//! 2×2 max pooling with stride 2.

use super::Layer;
use crate::tensor4::Tensor4;

/// Max pooling over non-overlapping 2×2 windows.
///
/// Odd trailing rows/columns are dropped (floor division), matching the
/// common deep-learning default. The argmax position of each window is
/// cached so backward can route gradients to the winning element only.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2 {
    /// For each output element, flat index of the winning input element.
    argmax: Option<Vec<usize>>,
    in_shape: Option<(usize, usize, usize, usize)>,
}

impl MaxPool2 {
    /// Creates a 2×2/stride-2 max-pool layer.
    pub fn new() -> Self {
        MaxPool2 {
            argmax: None,
            in_shape: None,
        }
    }

    /// Output spatial size for an input of `h × w`.
    pub fn out_hw(h: usize, w: usize) -> (usize, usize) {
        (h / 2, w / 2)
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn forward(&mut self, x: &Tensor4) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        assert!(h >= 2 && w >= 2, "maxpool2: input smaller than window");
        let (oh, ow) = Self::out_hw(h, w);
        let mut out = Tensor4::zeros(n, c, oh, ow);
        let mut argmax = vec![0usize; out.len()];
        let mut oi = 0;
        for b in 0..n {
            for ch in 0..c {
                for y in 0..oh {
                    for xx in 0..ow {
                        // Seeded from the window's own first element, so a
                        // window of −∞ or NaN still routes its gradient to
                        // itself (and a leading NaN propagates).
                        let mut best_idx = x.index(b, ch, 2 * y, 2 * xx);
                        let mut best_val = x.as_slice()[best_idx];
                        for (dy, dx) in [(0, 1), (1, 0), (1, 1)] {
                            let idx = x.index(b, ch, 2 * y + dy, 2 * xx + dx);
                            let v = x.as_slice()[idx];
                            if v > best_val {
                                best_val = v;
                                best_idx = idx;
                            }
                        }
                        out.as_mut_slice()[oi] = best_val;
                        argmax[oi] = best_idx;
                        oi += 1;
                    }
                }
            }
        }
        self.argmax = Some(argmax);
        self.in_shape = Some((n, c, h, w));
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let argmax = self
            .argmax
            .as_ref()
            .expect("maxpool2: backward before forward");
        let (n, c, h, w) = self.in_shape.expect("maxpool2: backward before forward");
        assert_eq!(
            grad_out.len(),
            argmax.len(),
            "maxpool2: gradient shape mismatch"
        );
        let mut grad_in = Tensor4::zeros(n, c, h, w);
        for (&idx, &g) in argmax.iter().zip(grad_out.as_slice()) {
            grad_in.as_mut_slice()[idx] += g;
        }
        grad_in
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn forward_picks_window_max() {
        let mut p = MaxPool2::new();
        #[rustfmt::skip]
        let x = Tensor4::from_vec(1, 1, 2, 4, vec![
            1.0, 5.0, 2.0, 0.0,
            3.0, 4.0, 1.0, 6.0,
        ]);
        let y = p.forward(&x);
        assert_eq!(y.shape(), (1, 1, 1, 2));
        assert_eq!(y.as_slice(), &[5.0, 6.0]);
    }

    #[test]
    fn odd_dimensions_truncate() {
        let mut p = MaxPool2::new();
        let x = Tensor4::zeros(1, 1, 5, 3);
        let y = p.forward(&x);
        assert_eq!(y.shape(), (1, 1, 2, 1));
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut p = MaxPool2::new();
        #[rustfmt::skip]
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![
            1.0, 5.0,
            3.0, 4.0,
        ]);
        p.forward(&x);
        let g = Tensor4::from_vec(1, 1, 1, 1, vec![2.0]);
        let gi = p.backward(&g);
        assert_eq!(gi.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn all_negative_infinity_window_routes_inside_its_own_item() {
        let mut p = MaxPool2::new();
        let mut data = vec![1.0; 2 * 4];
        data[4..].fill(f32::NEG_INFINITY); // item 1's only window
        let x = Tensor4::from_vec(2, 1, 2, 2, data);
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[1.0, f32::NEG_INFINITY]);
        let gi = p.backward(&Tensor4::from_vec(2, 1, 1, 1, vec![0.0, 3.0]));
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn all_nan_window_outputs_nan() {
        let mut p = MaxPool2::new();
        let x = Tensor4::from_vec(
            1,
            1,
            2,
            4,
            vec![f32::NAN, f32::NAN, 1.0, 2.0, f32::NAN, f32::NAN, 3.0, 4.0],
        );
        let y = p.forward(&x);
        assert!(
            y.as_slice()[0].is_nan(),
            "NaN window must not output {}",
            y.as_slice()[0]
        );
        assert_eq!(y.as_slice()[1], 4.0);
        let gi = p.backward(&Tensor4::from_vec(1, 1, 1, 2, vec![5.0, 6.0]));
        assert_eq!(gi.as_slice(), &[5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn gradient_matches_numeric() {
        let mut p = MaxPool2::new();
        // Distinct values so the argmax is stable under ±eps perturbation.
        let x = Tensor4::from_vec(
            1,
            2,
            4,
            4,
            (0..32).map(|i| (i as f32 * 0.73).sin() * 3.0).collect(),
        );
        testutil::check_input_gradient(&mut p, &x, 1e-2);
    }
}
