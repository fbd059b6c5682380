//! Numerical gradient checking utilities.
//!
//! Public so downstream users adding custom [`Layer`]s can verify their
//! backward passes the same way this crate's own layers are tested. The
//! "loss" used is `Σ cᵢ·outᵢ` for fixed random coefficients `c`, whose
//! gradient w.r.t. the output is exactly `c` — so any mismatch is the
//! layer's fault.

use crate::layers::Layer;
use crate::tensor4::Tensor4;
use rand::{Rng, SeedableRng};

/// Result of a gradient check: the worst relative error found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheck {
    /// Largest relative deviation between numeric and analytic values.
    pub max_rel_error: f32,
    /// Flat index where it occurred.
    pub worst_index: usize,
}

impl GradCheck {
    /// Whether the check passed at the given tolerance.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_error <= tol
    }
}

fn probe_loss(layer: &mut dyn Layer, x: &Tensor4, coeff: &[f32]) -> f64 {
    let o = layer.forward(x);
    o.as_slice()
        .iter()
        .zip(coeff)
        .map(|(a, b)| f64::from(*a) * f64::from(*b))
        .sum()
}

/// Checks ∂loss/∂input against central finite differences.
///
/// `eps` is the probe step (1e-3 suits `f32`); layers with
/// non-differentiable points (ReLU at 0, max-pool ties) need inputs away
/// from those points.
///
/// ```
/// use fuiov_nn::gradcheck::check_input_gradient;
/// use fuiov_nn::layers::Relu;
/// use fuiov_nn::Tensor4;
///
/// // Every input sits well away from ReLU's kink at 0.
/// let mut layer = Relu::new();
/// let x = Tensor4::from_vec(1, 1, 1, 3, vec![-0.5, 0.2, 1.0]);
/// let report = check_input_gradient(&mut layer, &x, 1e-3, 42);
/// assert!(report.passes(1e-2));
/// ```
pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor4, eps: f32, seed: u64) -> GradCheck {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let out = layer.forward(x);
    let coeff: Vec<f32> = (0..out.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let (n, c, h, w) = out.shape();
    let grad_out = Tensor4::from_vec(n, c, h, w, coeff.clone());
    let analytic = layer.backward(&grad_out);

    let mut worst = GradCheck {
        max_rel_error: 0.0,
        worst_index: 0,
    };
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let num = ((probe_loss(layer, &xp, &coeff) - probe_loss(layer, &xm, &coeff))
            / (2.0 * f64::from(eps))) as f32;
        let ana = analytic.as_slice()[i];
        let rel = (num - ana).abs() / (1.0 + num.abs().max(ana.abs()));
        if rel > worst.max_rel_error {
            worst = GradCheck {
                max_rel_error: rel,
                worst_index: i,
            };
        }
    }
    worst
}

/// Checks parameter gradients against central finite differences.
pub fn check_param_gradient(layer: &mut dyn Layer, x: &Tensor4, eps: f32, seed: u64) -> GradCheck {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
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

    let mut worst = GradCheck {
        max_rel_error: 0.0,
        worst_index: 0,
    };
    for i in 0..params.len() {
        let orig = params[i];
        params[i] = orig + eps;
        layer.write_params(&params);
        let up = probe_loss(layer, x, &coeff);
        params[i] = orig - eps;
        layer.write_params(&params);
        let down = probe_loss(layer, x, &coeff);
        params[i] = orig;
        layer.write_params(&params);
        let num = ((up - down) / (2.0 * f64::from(eps))) as f32;
        let ana = analytic[i];
        let rel = (num - ana).abs() / (1.0 + num.abs().max(ana.abs()));
        if rel > worst.max_rel_error {
            worst = GradCheck {
                max_rel_error: rel,
                worst_index: i,
            };
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use rand::SeedableRng;

    #[test]
    fn relu_passes_away_from_the_kink() {
        let mut layer = Relu::new();
        let x = Tensor4::from_vec(1, 2, 1, 2, vec![-1.0, 0.3, -0.7, 2.0]);
        let r = check_input_gradient(&mut layer, &x, 1e-3, 1);
        assert!(r.passes(1e-2), "{r:?}");
    }

    #[test]
    fn linear_params_pass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = Tensor4::from_vec(2, 3, 1, 1, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]);
        let r = check_param_gradient(&mut layer, &x, 1e-3, 2);
        assert!(r.passes(1e-2), "{r:?}");
    }

    #[test]
    fn broken_layer_fails_the_check() {
        /// A layer whose backward lies (returns 2× the true gradient).
        #[derive(Clone)]
        struct Broken;
        impl Layer for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn forward(&mut self, x: &Tensor4) -> Tensor4 {
                x.clone()
            }
            fn backward(&mut self, g: &Tensor4) -> Tensor4 {
                let mut out = g.clone();
                for v in out.as_mut_slice() {
                    *v *= 2.0;
                }
                out
            }
            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }
        let mut layer = Broken;
        let x = Tensor4::from_vec(1, 1, 1, 3, vec![0.5, -0.5, 1.0]);
        let r = check_input_gradient(&mut layer, &x, 1e-3, 3);
        assert!(!r.passes(1e-2), "broken layer must fail: {r:?}");
    }
}
