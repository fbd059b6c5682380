//! Layer implementations with manual backpropagation.
//!
//! Each layer takes its input and its output gradient by value, caches
//! whatever it needs during [`Layer::forward`] and consumes that cache in
//! [`Layer::backward`]. Owning the tensors lets a layer work in place
//! (`Relu`, `Flatten`) or keep its input by move (`Conv2d`, `Linear`)
//! instead of copying it. Parameters and their gradients are exposed
//! through flat-slice read/write methods so the whole model can be
//! serialised into one `Vec<f32>` — the representation the unlearning
//! pipeline operates on.

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

    /// Computes the layer output from `x`, caching anything `backward`
    /// needs.
    fn forward(&mut self, x: Tensor4) -> Tensor4;

    /// Propagates `grad_out` (∂loss/∂output) to ∂loss/∂input, accumulating
    /// parameter gradients along the way.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: Tensor4) -> Tensor4;

    /// Accumulates the parameter gradients that [`Layer::backward`] would,
    /// without computing ∂loss/∂input: the model's first parametric layer
    /// runs this, since the gradient of the model's input is never read.
    /// The default runs `backward` and drops its result.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: Tensor4) {
        drop(self.backward(grad_out));
    }

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

    /// Asserts that ∂loss/∂input of a layer matches central finite
    /// differences within `tol` (see [`crate::gradcheck`]).
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor4, tol: f32) {
        let r = crate::gradcheck::check_input_gradient(layer, x, 1e-3, 42);
        assert!(r.passes(tol), "input grad mismatch: {r:?}");
    }

    /// Asserts the same of the parameter gradients.
    pub fn check_param_gradient(layer: &mut dyn Layer, x: &Tensor4, tol: f32) {
        let r = crate::gradcheck::check_param_gradient(layer, x, 1e-3, 43);
        assert!(r.passes(tol), "param grad mismatch: {r:?}");
    }
}
