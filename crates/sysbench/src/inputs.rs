//! The benchmark's fixed inputs: the run list **R** and the sweep grid
//! **G**. Only `--seed` varies them (weights and input samples); the
//! simulator never sees anything the harness did not generate.

use crate::api_surface::Scale;

/// One `arch:ms:bw` accelerator selection, in the grammar of
/// `stonne sweep --archs` and the serve wire (`bw` 0 = the preset's
/// default; `tpu` reads `ms` as the PE count of a square array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arch {
    /// Preset name.
    pub arch: &'static str,
    /// Multiplier switches.
    pub ms: usize,
    /// Global-buffer bandwidth (elements/cycle).
    pub bw: usize,
}

/// One point of the run list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Short name used in metric names (`nn.uncached_s.<label>`).
    pub label: &'static str,
    /// Zoo model, run at its Table I sparsity.
    pub model: &'static str,
    /// The light model the smoke run puts in its place (BERT's weights
    /// take five seconds to generate at any scale).
    pub smoke_model: &'static str,
    /// Accelerator.
    pub arch: Arch,
}

impl RunSpec {
    /// The model this point runs at `scale`.
    pub fn model_at(&self, scale: Scale) -> &'static str {
        match scale {
            Scale::Reduced => self.model,
            Scale::Tiny => self.smoke_model,
        }
    }
}

/// Run list **R**: one flexible-dense, one sparse and one systolic
/// point (pooling layers ride along in ResNet-50), about 3.1 G simulated
/// MACs per pass at Reduced scale.
pub const RUN_LIST: [RunSpec; 3] = [
    RunSpec {
        label: "bert_maeri",
        model: "bert",
        smoke_model: "squeezenet",
        arch: Arch {
            arch: "maeri",
            ms: 256,
            bw: 128,
        },
    },
    RunSpec {
        label: "resnet50_sigma",
        model: "resnet50",
        smoke_model: "mobilenet",
        arch: Arch {
            arch: "sigma",
            ms: 256,
            bw: 128,
        },
    },
    RunSpec {
        label: "resnet50_tpu",
        model: "resnet50",
        smoke_model: "mobilenet",
        arch: Arch {
            arch: "tpu",
            ms: 16,
            bw: 0,
        },
    },
];

/// A sweep grid: architectures × models × sparsities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// Accelerators.
    pub archs: &'static [Arch],
    /// Zoo models.
    pub models: &'static [&'static str],
    /// Weight sparsities.
    pub sparsities: &'static [f64],
}

const GRID_ARCHS: [Arch; 4] = [
    Arch {
        arch: "maeri",
        ms: 256,
        bw: 128,
    },
    Arch {
        arch: "maeri",
        ms: 128,
        bw: 64,
    },
    Arch {
        arch: "sigma",
        ms: 256,
        bw: 128,
    },
    Arch {
        arch: "tpu",
        ms: 16,
        bw: 0,
    },
];

/// Grid **G**: 4 architectures × 4 models × 3 sparsities = 48 points.
pub const GRID: Grid = Grid {
    archs: &GRID_ARCHS,
    models: &["alexnet", "squeezenet", "mobilenet", "ssd"],
    sparsities: &[0.0, 0.5, 0.8],
};

/// The smoke run's grid: every architecture, one light model.
pub const SMOKE_GRID: Grid = Grid {
    archs: &GRID_ARCHS,
    models: &["squeezenet"],
    sparsities: &[0.0, 0.5],
};

/// The grid swept at `scale`.
pub fn grid(scale: Scale) -> &'static Grid {
    match scale {
        Scale::Reduced => &GRID,
        Scale::Tiny => &SMOKE_GRID,
    }
}

/// One expanded grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Zoo model.
    pub model: &'static str,
    /// Accelerator.
    pub arch: Arch,
    /// Weight sparsity.
    pub sparsity: f64,
}

impl Grid {
    /// Number of points.
    pub fn points(&self) -> usize {
        self.archs.len() * self.models.len() * self.sparsities.len()
    }

    /// The point at `index` of the server's documented row-major order:
    /// models outermost, then architectures, then sparsities.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn point(&self, index: usize) -> GridPoint {
        assert!(index < self.points(), "grid index out of range");
        let per_model = self.archs.len() * self.sparsities.len();
        GridPoint {
            model: self.models[index / per_model],
            arch: self.archs[index % per_model / self.sparsities.len()],
            sparsity: self.sparsities[index % self.sparsities.len()],
        }
    }

    /// The `POST /v1/sweeps` body, in wire-JSON field names.
    pub fn request(&self, scale: Scale, seed: u64) -> String {
        let archs: Vec<String> = self
            .archs
            .iter()
            .map(|a| {
                format!(
                    "{{\"arch\":\"{}\",\"ms\":{},\"bw\":{}}}",
                    a.arch, a.ms, a.bw
                )
            })
            .collect();
        let models: Vec<String> = self
            .models
            .iter()
            .map(|m| format!("{{\"name\":\"{m}\",\"scale\":\"{}\"}}", scale.wire_name()))
            .collect();
        let sparsities: Vec<String> = self.sparsities.iter().map(|s| format!("{s:?}")).collect();
        format!(
            "{{\"name\":\"sysbench\",\"archs\":[{}],\"models\":[{}],\"sparsities\":[{}],\"seed\":{seed}}}",
            archs.join(","),
            models.join(","),
            sparsities.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_48_points_in_row_major_order() {
        assert_eq!(GRID.points(), 48);
        let first = GRID.point(0);
        assert_eq!(
            (first.model, first.arch.ms, first.sparsity),
            ("alexnet", 256, 0.0)
        );
        let p = GRID.point(1);
        assert_eq!(
            (p.model, p.arch.arch, p.sparsity),
            ("alexnet", "maeri", 0.5)
        );
        let p = GRID.point(3);
        assert_eq!((p.model, p.arch.ms, p.sparsity), ("alexnet", 128, 0.0));
        let last = GRID.point(47);
        assert_eq!(
            (last.model, last.arch.arch, last.sparsity),
            ("ssd", "tpu", 0.8)
        );
        assert_eq!(grid(Scale::Tiny).points(), 8);
    }

    #[test]
    fn request_body_uses_wire_field_names() {
        let body = GRID.request(Scale::Reduced, 7);
        assert!(body.starts_with(
            "{\"name\":\"sysbench\",\"archs\":[{\"arch\":\"maeri\",\"ms\":256,\"bw\":128}"
        ));
        assert!(body.contains("{\"name\":\"ssd\",\"scale\":\"reduced\"}"));
        assert!(body.contains("\"sparsities\":[0.0,0.5,0.8]"));
        assert!(body.ends_with("\"seed\":7}"));
    }

    #[test]
    fn smoke_run_swaps_in_light_models_only() {
        assert_eq!(RUN_LIST[0].model_at(Scale::Reduced), "bert");
        assert_eq!(RUN_LIST[0].model_at(Scale::Tiny), "squeezenet");
        assert_eq!(RUN_LIST[2].model_at(Scale::Reduced), "resnet50");
    }
}
