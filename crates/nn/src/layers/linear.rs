//! Fully-connected layer: `y = W·x + b`.
//!
//! The forward pass vectorises across batch items: each output keeps
//! `vector::dot`'s sequence (`f64` products summed in input order from
//! `-0.0`, one cast to `f32`, then `+ bias`), so the result is bit for bit
//! the per-item dot product at any vector width.

use super::lanes::{to_lanes, LANES};
use super::Layer;
use crate::init;
use crate::tensor4::Tensor4;
use rand::Rng;

/// Dense layer mapping `(n, in_features, 1, 1)` to `(n, out_features, 1, 1)`.
///
/// Weights are stored row-major as `out_features × in_features`, followed by
/// the bias in the flat parameter layout.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// Row-major `out × in`.
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor4>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "Linear::new: zero dimension"
        );
        let mut weight = vec![0.0; in_features * out_features];
        init::xavier_uniform(rng, &mut weight, in_features, out_features);
        Linear {
            in_features,
            out_features,
            weight,
            bias: vec![0.0; out_features],
            grad_weight: vec![0.0; in_features * out_features],
            grad_bias: vec![0.0; out_features],
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, x: &Tensor4) -> Tensor4 {
        assert_eq!(
            x.features(),
            self.in_features,
            "linear: input features mismatch"
        );
        let (n, fin, fout) = (x.n(), self.in_features, self.out_features);
        let mut out = Tensor4::zeros(n, fout, 1, 1);
        let mut xl = Vec::new();
        for b0 in (0..n).step_by(LANES) {
            to_lanes(x.as_slice(), fin, b0, &mut xl);
            for (o, (row, &bias)) in self.weight.chunks_exact(fin).zip(&self.bias).enumerate() {
                let mut acc = [-0.0f64; LANES];
                for (&wv, xs) in row.iter().zip(&xl) {
                    for j in 0..LANES {
                        acc[j] += f64::from(wv) * f64::from(xs[j]);
                    }
                }
                for (j, &a) in acc[..(n - b0).min(LANES)].iter().enumerate() {
                    out.as_mut_slice()[(b0 + j) * fout + o] = a as f32 + bias;
                }
            }
        }
        self.cached_input = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let x = self
            .cached_input
            .as_ref()
            .expect("linear: backward before forward");
        let n = x.n();
        assert_eq!(
            grad_out.features(),
            self.out_features,
            "linear: grad features"
        );
        assert_eq!(grad_out.n(), n, "linear: grad batch size");

        let mut grad_in = Tensor4::zeros(n, self.in_features, 1, 1);
        for b in 0..n {
            let xi = x.item(b);
            let go = grad_out.item(b);
            let gi = &mut grad_in.as_mut_slice()[b * self.in_features..(b + 1) * self.in_features];
            for (o, &g) in go.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                self.grad_bias[o] += g;
                let wrow = &self.weight[o * self.in_features..(o + 1) * self.in_features];
                let grow = &mut self.grad_weight[o * self.in_features..(o + 1) * self.in_features];
                for i in 0..self.in_features {
                    grow[i] += g * xi[i];
                    gi[i] += g * wrow[i];
                }
            }
        }
        grad_in
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn read_params(&self, out: &mut [f32]) {
        let (w, b) = out.split_at_mut(self.weight.len());
        w.copy_from_slice(&self.weight);
        b.copy_from_slice(&self.bias);
    }

    fn write_params(&mut self, src: &[f32]) {
        let (w, b) = src.split_at(self.weight.len());
        self.weight.copy_from_slice(w);
        self.bias.copy_from_slice(b);
    }

    fn read_grads(&self, out: &mut [f32]) {
        let (w, b) = out.split_at_mut(self.grad_weight.len());
        w.copy_from_slice(&self.grad_weight);
        b.copy_from_slice(&self.grad_bias);
    }

    fn zero_grads(&mut self) {
        self.grad_weight.iter_mut().for_each(|v| *v = 0.0);
        self.grad_bias.iter_mut().for_each(|v| *v = 0.0);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{self, bits, signed_values};
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    /// The per-item `vector::dot` forward the kernel replaced: the
    /// reference for the per-output order.
    fn reference_forward(l: &Linear, x: &Tensor4) -> Tensor4 {
        let n = x.n();
        let mut out = Tensor4::zeros(n, l.out_features, 1, 1);
        for b in 0..n {
            let xi = x.item(b);
            let oi = &mut out.as_mut_slice()[b * l.out_features..(b + 1) * l.out_features];
            for (o, (row, bias)) in oi
                .iter_mut()
                .zip(l.weight.chunks_exact(l.in_features).zip(&l.bias))
            {
                *o = fuiov_tensor::vector::dot(row, xi) + bias;
            }
        }
        out
    }

    #[test]
    fn forward_matches_the_dot_product_loop_bitwise() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11ee);
        for case in 0..120 {
            let fin = if case % 10 == 0 {
                rng.gen_range(700..=800)
            } else {
                rng.gen_range(1..=80)
            };
            let fout = rng.gen_range(1..=12usize);
            let n = if case % 7 == 0 {
                60
            } else {
                rng.gen_range(1..=20)
            };
            let mut layer = Linear::new(&mut rng, fin, fout);
            // Exact-zero weights, ±0.0 inputs and −0.0 biases: every
            // product and partial sum can be a signed zero.
            let params = signed_values(&mut rng, layer.param_count(), 0.2);
            layer.write_params(&params);
            let x = Tensor4::from_vec(n, fin, 1, 1, signed_values(&mut rng, n * fin, 0.3));
            let y = layer.forward(&x);
            assert_eq!(
                bits(y.as_slice()),
                bits(reference_forward(&layer, &x).as_slice()),
                "case {case}: {n} x {fin} -> {fout}"
            );
        }
    }

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(&mut rng(), 2, 2);
        l.write_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]); // W=[[1,2],[3,4]], b=[0.5,-0.5]
        let x = Tensor4::from_vec(1, 2, 1, 1, vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn param_roundtrip() {
        let l = Linear::new(&mut rng(), 3, 2);
        let mut p = vec![0.0; l.param_count()];
        l.read_params(&mut p);
        let mut l2 = Linear::new(&mut rng(), 3, 2);
        l2.write_params(&p);
        let mut p2 = vec![0.0; l2.param_count()];
        l2.read_params(&mut p2);
        assert_eq!(p, p2);
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut l = Linear::new(&mut rng(), 4, 3);
        let x = Tensor4::from_vec(2, 4, 1, 1, (0..8).map(|i| i as f32 * 0.1 - 0.4).collect());
        testutil::check_input_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn param_gradient_matches_numeric() {
        let mut l = Linear::new(&mut rng(), 4, 3);
        let x = Tensor4::from_vec(2, 4, 1, 1, (0..8).map(|i| i as f32 * 0.1 - 0.4).collect());
        testutil::check_param_gradient(&mut l, &x, 1e-2);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = Linear::new(&mut rng(), 2, 1);
        let x = Tensor4::from_vec(1, 2, 1, 1, vec![1.0, 2.0]);
        let g = Tensor4::from_vec(1, 1, 1, 1, vec![1.0]);
        l.forward(&x);
        l.backward(&g);
        l.forward(&x);
        l.backward(&g);
        let mut grads = vec![0.0; l.param_count()];
        l.read_grads(&mut grads);
        assert_eq!(&grads[..2], &[2.0, 4.0]); // accumulated twice
        l.zero_grads();
        l.read_grads(&mut grads);
        assert!(grads.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut l = Linear::new(&mut rng(), 2, 1);
        let g = Tensor4::zeros(1, 1, 1, 1);
        let _ = l.backward(&g);
    }
}
