//! Compute back-ends: native CPU reference vs the simulated accelerator.
//!
//! The [`Backend`] trait is the seam the paper's `Simulated*` PyTorch ops
//! introduce: identical call sites, with the implementation deciding
//! whether the math runs natively or cycle-by-cycle on a simulated
//! accelerator.

use std::sync::Arc;
use stonne_core::{NaturalOrder, RowSchedule, SimStats, Stonne};
use stonne_tensor::{
    conv2d_reference, gemm_reference, maxpool2d_reference, Conv2dGeom, Matrix, Tensor4,
};

/// A compute provider for the offloadable operations of a model graph.
pub trait Backend {
    /// 2-D (grouped) convolution; weights in KCHW layout.
    fn conv2d(
        &mut self,
        name: &str,
        input: &Tensor4,
        weights: &Tensor4,
        geom: &Conv2dGeom,
    ) -> Tensor4;

    /// Fully-connected layer: `input (seq×in) × weightsᵀ (out×in)`.
    fn linear(&mut self, name: &str, input: &Matrix, weights: &Matrix) -> Matrix;

    /// General matrix multiplication (attention score/context products).
    fn matmul(&mut self, name: &str, a: &Matrix, b: &Matrix) -> Matrix;

    /// Square-window max pooling.
    fn maxpool(&mut self, name: &str, input: &Tensor4, window: usize, stride: usize) -> Tensor4;
}

/// The native CPU reference (the paper's "run on the CPU" path used for
/// functional validation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl Backend for ReferenceBackend {
    fn conv2d(
        &mut self,
        _name: &str,
        input: &Tensor4,
        weights: &Tensor4,
        geom: &Conv2dGeom,
    ) -> Tensor4 {
        conv2d_reference(input, weights, geom)
    }

    fn linear(&mut self, _name: &str, input: &Matrix, weights: &Matrix) -> Matrix {
        gemm_reference(input, &weights.transposed())
    }

    fn matmul(&mut self, _name: &str, a: &Matrix, b: &Matrix) -> Matrix {
        gemm_reference(a, b)
    }

    fn maxpool(&mut self, _name: &str, input: &Tensor4, window: usize, stride: usize) -> Tensor4 {
        maxpool2d_reference(input, window, stride)
    }
}

/// The simulated-accelerator backend: every call becomes a STONNE API
/// sequence (configure + data + run) on the held instance, and the
/// per-layer statistics accumulate in the instance history.
pub struct SimBackend {
    sim: Stonne,
    schedule: Arc<dyn RowSchedule + Send + Sync>,
}

impl std::fmt::Debug for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBackend")
            .field("accelerator", &self.sim.config().name)
            .field("schedule", &self.schedule.name())
            .finish()
    }
}

impl SimBackend {
    /// Wraps a simulator instance with the default (natural) schedule.
    pub fn new(sim: Stonne) -> Self {
        Self {
            sim,
            schedule: Arc::new(NaturalOrder),
        }
    }

    /// Sets the filter schedule used on sparse configurations.
    pub fn with_schedule(mut self, schedule: Arc<dyn RowSchedule + Send + Sync>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Stats of every offloaded operation so far.
    pub fn layer_stats(&self) -> &[SimStats] {
        self.sim.history()
    }
}

impl Backend for SimBackend {
    fn conv2d(
        &mut self,
        name: &str,
        input: &Tensor4,
        weights: &Tensor4,
        geom: &Conv2dGeom,
    ) -> Tensor4 {
        let (out, _) =
            self.sim
                .run_conv_scheduled(name, input, weights, geom, None, self.schedule.as_ref());
        out
    }

    fn linear(&mut self, name: &str, input: &Matrix, weights: &Matrix) -> Matrix {
        let (out, _) = self
            .sim
            .run_linear_scheduled(name, input, weights, self.schedule.as_ref());
        out
    }

    fn matmul(&mut self, name: &str, a: &Matrix, b: &Matrix) -> Matrix {
        let (out, _) = self
            .sim
            .run_gemm_scheduled(name, a, b, self.schedule.as_ref());
        out
    }

    fn maxpool(&mut self, name: &str, input: &Tensor4, window: usize, stride: usize) -> Tensor4 {
        self.sim.run_maxpool(name, input, window, stride).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stonne_core::AcceleratorConfig;
    use stonne_tensor::{assert_slices_close, SeededRng};

    #[test]
    fn sim_backend_matches_reference_backend() {
        let mut rng = SeededRng::new(1);
        let input = Tensor4::random(1, 3, 6, 6, &mut rng);
        let weights = Tensor4::random(4, 3, 3, 3, &mut rng);
        let geom = Conv2dGeom::new(3, 4, 3, 3, 1, 1, 1);

        let mut r = ReferenceBackend;
        let expected = r.conv2d("c", &input, &weights, &geom);

        let sim = Stonne::new(AcceleratorConfig::maeri_like(64, 16)).unwrap();
        let mut s = SimBackend::new(sim);
        let actual = s.conv2d("c", &input, &weights, &geom);
        assert_slices_close(actual.as_slice(), expected.as_slice());
        assert_eq!(s.layer_stats().len(), 1);
    }

    #[test]
    fn linear_transposes_weights() {
        let mut rng = SeededRng::new(2);
        let input = Matrix::random(2, 8, &mut rng);
        let weights = Matrix::random(5, 8, &mut rng);
        let mut r = ReferenceBackend;
        let out = r.linear("fc", &input, &weights);
        assert_eq!((out.rows(), out.cols()), (2, 5));
    }
}
