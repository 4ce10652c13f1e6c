//! Layer and tile descriptors: the paper's `Layer(R,S,C,K,G,N,X',Y')` and
//! `Tile(T_R,…,T_Y')` representation, plus the mapper that derives
//! virtual-neuron (cluster) configurations from them (inspired by mRNA).

use serde::{Deserialize, Serialize};
use stonne_tensor::Conv2dGeom;

/// The paper's 7(+1)-parameter DNN layer descriptor.
///
/// `R`/`S` are filter rows/columns, `C` input channels, `K` filters, `G`
/// groups, `N` batch, and `X'`/`Y'` the output rows/columns. The stride is
/// carried along because input-address generation (data delivery traffic)
/// depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerDims {
    /// Filter rows.
    pub r: usize,
    /// Filter columns.
    pub s: usize,
    /// Input channels (total across groups).
    pub c: usize,
    /// Number of filters (total across groups).
    pub k: usize,
    /// Groups (factorized convolutions).
    pub g: usize,
    /// Batch size.
    pub n: usize,
    /// Output rows.
    pub xp: usize,
    /// Output columns.
    pub yp: usize,
    /// Convolution stride.
    pub stride: usize,
}

impl LayerDims {
    /// Builds the descriptor for a convolution over an `in_h × in_w` input.
    pub fn from_conv(geom: &Conv2dGeom, in_h: usize, in_w: usize, batch: usize) -> Self {
        let (xp, yp) = geom.out_hw(in_h, in_w);
        Self {
            r: geom.kh,
            s: geom.kw,
            c: geom.in_c,
            k: geom.out_c,
            g: geom.groups,
            n: batch,
            xp,
            yp,
            stride: geom.stride,
        }
    }

    /// Builds the descriptor for a GEMM `M×N×K` (a 1×1 convolution with
    /// `N` output positions), the lowering the sparse controller uses.
    pub fn from_gemm(m: usize, n: usize, k: usize) -> Self {
        Self {
            r: 1,
            s: 1,
            c: k,
            k: m,
            g: 1,
            n: 1,
            xp: 1,
            yp: n,
            stride: 1,
        }
    }

    /// The layer as one group's GEMM: `(M, K, N)` = filters per group ×
    /// dot-product length × output positions.
    pub fn gemm_extents(&self) -> (usize, usize, usize) {
        let positions = self.n * self.xp * self.yp;
        (self.k_per_group(), self.dot_len(), positions)
    }

    /// Dot-product length per output: `R·S·C/G`.
    pub fn dot_len(&self) -> usize {
        self.r * self.s * self.c / self.g
    }

    /// Filters per group.
    pub fn k_per_group(&self) -> usize {
        self.k / self.g
    }

    /// Total outputs: `K·N·X'·Y'`.
    pub fn num_outputs(&self) -> usize {
        self.k * self.n * self.xp * self.yp
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.num_outputs() as u64 * self.dot_len() as u64
    }
}

/// The paper's tile descriptor: which sub-volume of the layer maps onto the
/// multiplier array per iteration.
///
/// `t_r·t_s·t_c` is the dot-product partition (virtual-neuron / cluster
/// size); `t_g·t_k·t_n·t_xp·t_yp` is the number of simultaneous clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tile {
    /// Filter-row slice.
    pub t_r: usize,
    /// Filter-column slice.
    pub t_s: usize,
    /// Channel slice.
    pub t_c: usize,
    /// Simultaneous groups.
    pub t_g: usize,
    /// Simultaneous filters.
    pub t_k: usize,
    /// Simultaneous batch items.
    pub t_n: usize,
    /// Simultaneous output rows.
    pub t_xp: usize,
    /// Simultaneous output columns.
    pub t_yp: usize,
}

impl Tile {
    /// Cluster (virtual neuron) size: the mapped dot-product slice.
    pub fn cluster_size(&self) -> usize {
        self.t_r * self.t_s * self.t_c
    }

    /// Number of simultaneous clusters.
    pub fn num_clusters(&self) -> usize {
        self.t_g * self.t_k * self.t_n * self.t_xp * self.t_yp
    }

    /// Multiplier switches the tile occupies.
    pub fn ms_used(&self) -> usize {
        self.cluster_size() * self.num_clusters()
    }

    /// Folding factor over the layer's dot product: how many sequential
    /// passes a cluster needs to cover `R·S·C/G`.
    pub fn folds(&self, layer: &LayerDims) -> usize {
        layer.dot_len().div_ceil(self.cluster_size())
    }

    /// Checks the tile against a layer and multiplier budget.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self, layer: &LayerDims, ms_size: usize) -> Result<(), String> {
        if self.cluster_size() == 0 || self.num_clusters() == 0 {
            return Err("tile dimensions must be positive".into());
        }
        if self.ms_used() > ms_size {
            return Err(format!(
                "tile needs {} multipliers but only {ms_size} exist",
                self.ms_used()
            ));
        }
        if self.t_r > layer.r || self.t_s > layer.s || self.t_c > layer.c / layer.g {
            return Err("dot-product tile exceeds filter volume".into());
        }
        if self.t_g > layer.g
            || self.t_k > layer.k_per_group()
            || self.t_n > layer.n
            || self.t_xp > layer.xp
            || self.t_yp > layer.yp
        {
            return Err("cluster tile exceeds layer extent".into());
        }
        Ok(())
    }

    /// Derives a bandwidth-aware tile: like [`Tile::auto`], but caps the
    /// cluster size near the delivery bandwidth so several filters'
    /// clusters share each streamed input via multicast — without this,
    /// a single array-wide cluster is delivery-bound whenever
    /// `bandwidth < ms_size` (the mRNA-style mapper optimizes the tile
    /// for the actual hardware parameters).
    pub fn auto_bw(layer: &LayerDims, ms_size: usize, bandwidth: usize) -> Tile {
        let mut t = Tile::auto(layer, ms_size);
        let bw = bandwidth.max(1);
        if t.cluster_size() > bw && t.t_k * t.t_g == 1 && layer.k_per_group() > 1 {
            // Shrink the channel slice until the cluster fits the
            // bandwidth, then let `auto`'s replication rule re-fill the
            // array with filter clusters (which multicast their inputs).
            let base = t.t_r * t.t_s;
            if base <= bw {
                let t_c = (bw / base).max(1).min(layer.c / layer.g);
                let cluster = base * t_c;
                let budget = (ms_size / cluster).max(1);
                let t_k = budget.min(layer.k_per_group()).max(1);
                let rem = (budget / t_k).max(1);
                let t_xp = rem.min(layer.xp).max(1);
                let t_yp = (rem / t_xp).max(1).min(layer.yp);
                t = Tile {
                    t_r: t.t_r,
                    t_s: t.t_s,
                    t_c,
                    t_g: 1,
                    t_k,
                    t_n: 1,
                    t_xp,
                    t_yp,
                };
            }
        }
        t
    }

    /// Derives a reasonable tile for a layer on `ms_size` multipliers —
    /// the mRNA-style heuristic the mapper applies when the user does not
    /// pin a tile: map the full filter volume per cluster when it fits
    /// (fold otherwise), then replicate clusters over filters and output
    /// positions to fill the array.
    pub fn auto(layer: &LayerDims, ms_size: usize) -> Tile {
        let dot = layer.dot_len().max(1);
        // Cluster = whole dot product when it fits, else the largest
        // R·S-aligned slice (fold over channels), else a flat slice.
        let (t_r, t_s, t_c) = if dot <= ms_size {
            (layer.r, layer.s, layer.c / layer.g)
        } else if layer.r * layer.s <= ms_size {
            let t_c = (ms_size / (layer.r * layer.s)).max(1);
            (layer.r, layer.s, t_c.min(layer.c / layer.g))
        } else {
            (1, layer.s.min(ms_size), 1)
        };
        let cluster = t_r * t_s * t_c;
        let budget = (ms_size / cluster).max(1);
        // Prefer replicating over filters (weight multicast over positions
        // is weaker than input multicast over filters), then output rows.
        let t_k = budget.min(layer.k_per_group()).max(1);
        let rem = (budget / t_k).max(1);
        let t_xp = rem.min(layer.xp).max(1);
        let rem = (rem / t_xp).max(1);
        let t_yp = rem.min(layer.yp).max(1);
        Tile {
            t_r,
            t_s,
            t_c,
            t_g: 1,
            t_k,
            t_n: 1,
            t_xp,
            t_yp,
        }
    }
}

/// Enumerates a family of candidate tiles for a layer on `ms_size`
/// multipliers: cluster sizes sweep the `R·S`-aligned channel slices (and
/// flat slices for GEMM-shaped layers), and the remaining budget is split
/// between filter replication and position replication.
///
/// This is the mapping-space the mRNA tool explores; pair it with
/// cycle-level simulation of each candidate (see
/// `Stonne::search_best_tile`) to pick mappings that analytical cost
/// models mis-rank.
pub fn candidate_tiles(layer: &LayerDims, ms_size: usize) -> Vec<Tile> {
    let mut tiles = Vec::new();
    let base = layer.r * layer.s;
    let cg = (layer.c / layer.g).max(1);
    if base == 0 || base > ms_size {
        return vec![Tile::auto(layer, ms_size)];
    }
    // Candidate channel slices: powers of two plus the full depth.
    let mut t_cs: Vec<usize> = Vec::new();
    let mut t_c = 1usize;
    while t_c <= cg && base * t_c <= ms_size {
        t_cs.push(t_c);
        t_c *= 2;
    }
    if !t_cs.contains(&cg) && base * cg <= ms_size {
        t_cs.push(cg);
    }
    for &t_c in &t_cs {
        let cluster = base * t_c;
        let budget = (ms_size / cluster).max(1);
        // Split the replication budget between filters and positions.
        let mut t_k = 1usize;
        while t_k <= budget {
            let rem = (budget / t_k).max(1);
            let t_xp = rem.min(layer.xp).max(1);
            let t_yp = (rem / t_xp).max(1).min(layer.yp);
            let tile = Tile {
                t_r: layer.r,
                t_s: layer.s,
                t_c,
                t_g: 1,
                t_k: t_k.min(layer.k_per_group()).max(1),
                t_n: 1,
                t_xp,
                t_yp,
            };
            if tile.validate(layer, ms_size).is_ok() && !tiles.contains(&tile) {
                tiles.push(tile);
            }
            t_k *= 2;
        }
    }
    if tiles.is_empty() {
        tiles.push(Tile::auto(layer, ms_size));
    }
    tiles
}

/// The mapper's derived signals for one tile mapping (the configuration
/// the Configuration Unit drives into the networks at runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingSignals {
    /// Cluster size each virtual neuron reduces.
    pub cluster_size: usize,
    /// Simultaneous virtual neurons.
    pub num_clusters: usize,
    /// Sequential folds to cover the dot product.
    pub folds: usize,
    /// Multipliers left unused by the mapping.
    pub idle_ms: usize,
}

/// Derives the mapping signals for a layer/tile pair.
///
/// # Panics
///
/// Panics if the tile does not validate against the layer.
pub fn map_tile(layer: &LayerDims, tile: &Tile, ms_size: usize) -> MappingSignals {
    tile.validate(layer, ms_size)
        .unwrap_or_else(|e| panic!("invalid tile: {e}"));
    MappingSignals {
        cluster_size: tile.cluster_size(),
        num_clusters: tile.num_clusters(),
        folds: tile.folds(layer),
        idle_ms: ms_size - tile.ms_used(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer() -> LayerDims {
        // 3x3 conv, 6 channels, 6 filters over a 7x7 input -> 5x5 output.
        LayerDims::from_conv(&Conv2dGeom::new(6, 6, 3, 3, 1, 0, 1), 7, 7, 1)
    }

    #[test]
    fn layer_from_conv_matches_geometry() {
        let l = conv_layer();
        assert_eq!((l.r, l.s, l.c, l.k), (3, 3, 6, 6));
        assert_eq!((l.xp, l.yp), (5, 5));
        assert_eq!(l.dot_len(), 54);
        assert_eq!(l.macs(), 6 * 25 * 54);
    }

    #[test]
    fn layer_from_gemm_is_1x1_conv() {
        let l = LayerDims::from_gemm(20, 25, 180);
        assert_eq!(l.dot_len(), 180);
        assert_eq!(l.num_outputs(), 20 * 25);
        assert_eq!(l.macs(), 20 * 25 * 180);
    }

    #[test]
    fn paper_maeri_tile_folds_six_times() {
        // Table V: Tile(T_R=3,T_S=3,T_C=1,...,T_X'=3,T_Y'=1) on MAERI-1.
        let l = conv_layer();
        let t = Tile {
            t_r: 3,
            t_s: 3,
            t_c: 1,
            t_g: 1,
            t_k: 1,
            t_n: 1,
            t_xp: 3,
            t_yp: 1,
        };
        t.validate(&l, 32).unwrap();
        assert_eq!(t.cluster_size(), 9);
        assert_eq!(t.num_clusters(), 3);
        assert_eq!(t.ms_used(), 27);
        assert_eq!(t.folds(&l), 6);
    }

    #[test]
    fn oversized_tile_is_rejected() {
        let l = conv_layer();
        let t = Tile {
            t_r: 3,
            t_s: 3,
            t_c: 6,
            t_g: 1,
            t_k: 2,
            t_n: 1,
            t_xp: 1,
            t_yp: 1,
        };
        assert!(t.validate(&l, 32).is_err()); // needs 108 MS
        assert!(t.validate(&l, 128).is_ok());
    }

    #[test]
    fn auto_tile_fits_and_covers() {
        for ms in [16, 32, 64, 128, 256, 512] {
            let l = conv_layer();
            let t = Tile::auto(&l, ms);
            t.validate(&l, ms)
                .unwrap_or_else(|e| panic!("ms={ms}: {e}"));
            assert!(t.ms_used() <= ms);
        }
    }

    #[test]
    fn auto_tile_folds_large_dot_products() {
        let l = LayerDims::from_gemm(4, 4, 1000);
        let t = Tile::auto(&l, 64);
        assert!(t.cluster_size() <= 64);
        assert!(t.folds(&l) >= 16);
    }

    #[test]
    fn auto_bw_caps_cluster_at_the_bandwidth() {
        // 2304-tap dot product on 256 MS at 128 elems/cycle: the plain
        // tile is one 256-wide cluster (delivery-bound); the bw-aware
        // tile halves the cluster and doubles the filters.
        let l = LayerDims::from_conv(&Conv2dGeom::new(256, 64, 3, 3, 1, 1, 1), 16, 16, 1);
        let plain = Tile::auto(&l, 256);
        assert_eq!(plain.t_k, 1);
        let smart = Tile::auto_bw(&l, 256, 128);
        smart.validate(&l, 256).unwrap();
        assert!(
            smart.cluster_size() <= 128,
            "cluster {}",
            smart.cluster_size()
        );
        assert!(smart.t_k >= 2, "t_k {}", smart.t_k);
    }

    #[test]
    fn auto_bw_keeps_small_clusters_unchanged() {
        let l = LayerDims::from_gemm(64, 128, 32);
        assert_eq!(Tile::auto_bw(&l, 128, 128), Tile::auto(&l, 128));
    }

    #[test]
    fn auto_tile_prefers_filter_replication() {
        // GEMM 64x128x32 on 128 MS: cluster 32, 4 clusters over filters.
        let l = LayerDims::from_gemm(64, 128, 32);
        let t = Tile::auto(&l, 128);
        assert_eq!(t.cluster_size(), 32);
        assert_eq!(t.t_k, 4);
    }

    #[test]
    fn candidate_tiles_all_validate_and_include_auto_shape() {
        let l = conv_layer();
        for ms in [32usize, 64, 128, 256] {
            let tiles = candidate_tiles(&l, ms);
            assert!(!tiles.is_empty());
            for t in &tiles {
                t.validate(&l, ms)
                    .unwrap_or_else(|e| panic!("ms={ms} {t:?}: {e}"));
            }
        }
    }

    #[test]
    fn candidate_tiles_cover_filter_and_position_splits() {
        let l = LayerDims::from_gemm(64, 64, 32);
        let tiles = candidate_tiles(&l, 128);
        assert!(tiles.iter().any(|t| t.t_k > 1), "no filter-replicated tile");
        assert!(
            tiles.iter().any(|t| t.t_xp * t.t_yp > 1),
            "no position-replicated tile"
        );
    }

    #[test]
    fn mapping_signals_report_idle_ms() {
        let l = conv_layer();
        let t = Tile {
            t_r: 3,
            t_s: 3,
            t_c: 1,
            t_g: 1,
            t_k: 1,
            t_n: 1,
            t_xp: 3,
            t_yp: 1,
        };
        let m = map_tile(&l, &t, 32);
        assert_eq!(m.idle_ms, 5);
        assert_eq!(m.folds, 6);
    }

    #[test]
    #[should_panic(expected = "invalid tile")]
    fn map_tile_panics_on_bad_tile() {
        let l = conv_layer();
        let t = Tile {
            t_r: 9,
            t_s: 9,
            t_c: 9,
            t_g: 1,
            t_k: 1,
            t_n: 1,
            t_xp: 1,
            t_yp: 1,
        };
        map_tile(&l, &t, 32);
    }
}
