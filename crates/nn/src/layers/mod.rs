//! Layer implementations with manual backpropagation.
//!
//! Each layer caches whatever it needs during [`Layer::forward`] and
//! consumes that cache in [`Layer::backward`]. Parameters and their
//! gradients are exposed through flat-slice read/write methods so the whole
//! model can be serialised into one `Vec<f32>` — the representation the
//! unlearning pipeline operates on.

mod conv2d;
mod flatten;
mod lanes;
mod linear;
mod maxpool2;
mod relu;

pub use conv2d::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use maxpool2::MaxPool2;
pub use relu::Relu;

use crate::tensor4::Tensor4;

/// A differentiable layer.
///
/// The contract is strict sequencing: `backward` must be called with the
/// gradient of the loss w.r.t. the output of the *most recent* `forward`
/// call. Gradients accumulate into the layer's gradient buffer until
/// [`Layer::zero_grads`] is called, which supports mini-batch accumulation.
pub trait Layer: Send {
    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Computes the layer output, caching anything `backward` needs.
    fn forward(&mut self, x: &Tensor4) -> Tensor4;

    /// Propagates `grad_out` (∂loss/∂output) to ∂loss/∂input, accumulating
    /// parameter gradients along the way.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Copies parameters into `out` (length exactly `param_count`).
    fn read_params(&self, _out: &mut [f32]) {}

    /// Overwrites parameters from `src` (length exactly `param_count`).
    fn write_params(&mut self, _src: &[f32]) {}

    /// Copies accumulated gradients into `out`.
    fn read_grads(&self, _out: &mut [f32]) {}

    /// Clears the gradient accumulation buffer.
    fn zero_grads(&mut self) {}

    /// Clones the layer behind a box (layers are held as trait objects).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// `f32` bit patterns, for bitwise comparisons.
    pub fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `len` values: a share `zeros` of them exactly `+0.0` or `-0.0`
    /// (half each), the rest uniform in `[-1, 1)`.
    pub fn signed_values<R: rand::Rng>(rng: &mut R, len: usize, zeros: f64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if !rng.gen_bool(zeros) {
                    rng.gen_range(-1.0f32..1.0)
                } else if rng.gen_bool(0.5) {
                    0.0
                } else {
                    -0.0
                }
            })
            .collect()
    }

    /// Numerically checks ∂loss/∂input of a layer against finite
    /// differences, where the "loss" is `Σ coeffᵢ · outᵢ` for fixed random
    /// coefficients (so ∂loss/∂out = coeff).
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor4, tol: f32) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);

        let out = layer.forward(x);
        let coeff: Vec<f32> = (0..out.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (n, c, h, w) = out.shape();
        let grad_out = Tensor4::from_vec(n, c, h, w, coeff.clone());
        let analytic = layer.backward(&grad_out);

        let loss = |layer: &mut dyn Layer, x: &Tensor4| -> f64 {
            let o = layer.forward(x);
            o.as_slice()
                .iter()
                .zip(&coeff)
                .map(|(a, b)| f64::from(*a) * f64::from(*b))
                .sum()
        };

        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = ((loss(layer, &xp) - loss(layer, &xm)) / (2.0 * f64::from(eps))) as f32;
            let ana = analytic.as_slice()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {i}: numeric={num} analytic={ana}"
            );
        }
    }

    /// Numerically checks parameter gradients the same way.
    pub fn check_param_gradient(layer: &mut dyn Layer, x: &Tensor4, tol: f32) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);

        let out = layer.forward(x);
        let coeff: Vec<f32> = (0..out.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (n, c, h, w) = out.shape();
        let grad_out = Tensor4::from_vec(n, c, h, w, coeff.clone());
        layer.zero_grads();
        let _ = layer.backward(&grad_out);
        let mut analytic = vec![0.0; layer.param_count()];
        layer.read_grads(&mut analytic);

        let mut params = vec![0.0; layer.param_count()];
        layer.read_params(&mut params);

        let loss = |layer: &mut dyn Layer, x: &Tensor4| -> f64 {
            let o = layer.forward(x);
            o.as_slice()
                .iter()
                .zip(&coeff)
                .map(|(a, b)| f64::from(*a) * f64::from(*b))
                .sum()
        };

        let eps = 1e-3f32;
        for i in 0..params.len() {
            let orig = params[i];
            params[i] = orig + eps;
            layer.write_params(&params);
            let up = loss(layer, x);
            params[i] = orig - eps;
            layer.write_params(&params);
            let down = loss(layer, x);
            params[i] = orig;
            layer.write_params(&params);
            let num = ((up - down) / (2.0 * f64::from(eps))) as f32;
            let ana = analytic[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "param grad mismatch at {i}: numeric={num} analytic={ana}"
            );
        }
    }
}
