//! Golden byte-pins for the committed predictor artifacts, plus the
//! speed leg of the predictor contract.
//!
//! The committed model (`results/PREDICT_model.json`) and its error
//! report must be exactly what the committed campaign produces on this
//! build — re-bless intentionally changed artifacts with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p stonne-predict --test golden_model
//! ```

use std::path::PathBuf;
use std::time::Instant;

use stonne_core::predict::{CyclePredictor, LayerFeatures};
use stonne_core::{AcceleratorConfig, AddrMap, LayerDims, NaturalOrder, Stonne, Tile};
use stonne_predict::{train, Model, TrainConfig};
use stonne_tensor::{Conv2dGeom, SeededRng, Tensor4};

fn results_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

fn check_golden(name: &str, rendered: &str) {
    let path = results_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "committed artifact {path:?} unreadable ({e}); bless it with \
             UPDATE_GOLDEN=1 cargo test -p stonne-predict --test golden_model"
        )
    });
    assert!(
        committed == rendered,
        "{name} drifted from the committed campaign's output; if the \
         predictor change is intentional, re-bless with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// Retrains the committed campaign and byte-diffs both artifacts against
/// the files shipped in-repo. This is the merge gate's local mirror: a
/// feature, prior, or campaign change that forgets to re-bless the
/// artifacts fails here before CI sees it.
#[test]
fn committed_artifacts_match_a_fresh_committed_campaign() {
    let (model, report) = train(&TrainConfig::committed());
    assert!(
        report.pass,
        "committed campaign misses its own error bounds"
    );
    check_golden("PREDICT_model.json", &model.to_json());
    check_golden("PREDICT_report.json", &report.canonical_json());
    // The in-memory committed model is the same artifact.
    assert_eq!(
        Model::committed().to_json(),
        model.to_json(),
        "Model::committed() is out of sync with results/PREDICT_model.json"
    );
}

/// The speed leg of the contract: prediction must be at least 100×
/// faster than what it replaces — the uncached engine's accounting walk
/// — on the layer kind whose walk is expensive, a padded convolution
/// (every delivery step sorts its window addresses; measured ≈ 800×).
///
/// Both fidelities compute real layer outputs with the same functional
/// kernel, so that pass is on neither side: the engine is timed through
/// `time_conv` (median of several runs, no layer cache), the predictor
/// as feature extraction plus prediction (mean over many calls).
/// `docs/PREDICT.md` records the layer kinds where the gap is small.
#[test]
fn prediction_is_100x_faster_than_the_uncached_engine() {
    let geom = Conv2dGeom::new(64, 64, 3, 3, 1, 1, 1);
    let (h, w) = (28, 28);
    let weights = Tensor4::random(64, 64, 3, 3, &mut SeededRng::new(5));
    let cfg = AcceleratorConfig::maeri_like(64, 16);

    let mut exact = Stonne::new(cfg.clone()).unwrap();
    let mut walks: Vec<_> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let stats =
                exact.time_conv("speed", (1, 64, h, w), &weights, &geom, None, &NaturalOrder);
            assert!(stats.engine_invocations > 0);
            t.elapsed()
        })
        .collect();
    walks.sort();
    let exact_time = walks[walks.len() / 2];

    // Average over many predictions (warm model) for a stable per-call
    // figure; `sum` keeps the loop from being optimized away.
    let model = Model::committed();
    let layer = LayerDims::from_conv(&geom, h, w, 1);
    let tile = Tile::auto_bw(&layer, cfg.ms_size, cfg.dn_bandwidth);
    const REPS: u32 = 256;
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..REPS {
        let f = LayerFeatures::dense(&cfg, &layer, &tile, &AddrMap::conv(&geom, 1, h, w));
        sum += model.predict_cycles(&f);
    }
    let fast_time = t.elapsed() / REPS;
    assert!(sum > 0);

    assert!(
        exact_time >= fast_time * 100,
        "predictor speedup below 100x: exact {exact_time:?}, fast {fast_time:?}"
    );
}
