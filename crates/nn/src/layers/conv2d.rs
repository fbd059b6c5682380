//! 2-D convolution (stride 1, symmetric zero padding).
//!
//! The kernels vectorise across independent output elements only — batch
//! items for the forward pass and the input gradient, output channels for
//! the parameter gradients — and every element keeps the accumulation
//! sequence of the plain direct loop (kept in the tests as the reference):
//!
//! - forward: `bias`, then `+= w·x` over the valid taps `(ic, dy, dx)`
//!   ascending; padded taps are skipped, never added as `w·0`;
//! - `grad_weight` / `grad_bias`: `+= g·x` / `+= g` over `(b, y, xx)`
//!   ascending;
//! - `grad_in`: `+= g·w` over `(oc, y, xx)` ascending, i.e. `(oc, dy, dx)`
//!   with `dy` and `dx` descending.
//!
//! The direct loop skips `g == 0`; these kernels add those terms too. With
//! finite weights and inputs they are ±0, and a gradient accumulator starts
//! at +0.0 and so can never be −0.0, so adding them changes no bit. Each
//! addition is rounded to `f32` on its own (rustc contracts nothing into
//! FMA), so SSE2, AVX2 and AVX-512 builds agree bit for bit.

use super::lanes::{from_lanes, to_lanes, Lanes, LANES};
use super::Layer;
use crate::init;
use crate::tensor4::Tensor4;
use rand::Rng;
use std::ops::Range;

/// Convolution with square kernels, stride 1 and zero padding.
///
/// Weights are stored as `out_channels × in_channels × k × k` followed by
/// the per-output-channel bias in the flat parameter layout.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor4>,
}

/// The `i` in `0..out` for which `i + shift` lies in `0..len`.
fn shifted(shift: isize, len: usize, out: usize) -> Range<usize> {
    let lo = shift.min(0).unsigned_abs().min(out);
    let hi = (len as isize - shift).clamp(0, out as isize) as usize;
    lo..hi.max(lo)
}

/// `dst[r][c] += w · src[r + dr][c + dc]`, lane by lane, over every `(r, c)`
/// of the `dh × dw` plane `dst` whose source lies inside the `sh × sw`
/// plane `src`. One call is one term of each element it touches.
fn axpy_shifted(
    w: f32,
    src: &[Lanes],
    (sh, sw): (usize, usize),
    dst: &mut [Lanes],
    (dh, dw): (usize, usize),
    (dr, dc): (isize, isize),
) {
    let cols = shifted(dc, sw, dw);
    if cols.is_empty() {
        return;
    }
    for r in shifted(dr, sh, dh) {
        let s0 = (r as isize + dr) as usize * sw + (cols.start as isize + dc) as usize;
        // The same `w` for every lane, so the row is one flat axpy, which
        // LLVM vectorises at any width (a per-lane inner loop here was
        // turned into strided shuffles on SSE2).
        let d = dst[r * dw + cols.start..r * dw + cols.end].as_flattened_mut();
        for (d, &s) in d.iter_mut().zip(src[s0..s0 + cols.len()].as_flattened()) {
            *d += w * s;
        }
    }
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0,
            "Conv2d::new: zero dimension"
        );
        let fan_in = in_channels * kernel * kernel;
        let mut weight = vec![0.0; out_channels * fan_in];
        init::kaiming_uniform(rng, &mut weight, fan_in);
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            padding,
            weight,
            bias: vec![0.0; out_channels],
            grad_weight: vec![0.0; out_channels * fan_in],
            grad_bias: vec![0.0; out_channels],
            cached_input: None,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.padding + 1 - self.kernel,
            w + 2 * self.padding + 1 - self.kernel,
        )
    }

    /// Adds this batch's terms to `grad_weight` and `grad_bias`, `LANES`
    /// output channels side by side: per tap, one running sum per channel
    /// over the item's pixels in order.
    fn accumulate_param_grads(&mut self, x: &Tensor4, grad_out: &Tensor4) {
        let (n, c, h, w) = x.shape();
        let (oh, ow) = self.out_hw(h, w);
        let (k, p) = (self.kernel, self.padding as isize);
        let (taps, plane) = (c * k * k, oh * ow);
        let blocks = self.out_channels.div_ceil(LANES);
        // Channel `blk·LANES + j` of the gradients lives in lane `j` of
        // entry `blk` (tap-major for the weights); padding lanes stay 0.
        let mut gw = vec![[0.0f32; LANES]; blocks * taps];
        let mut gb = vec![[0.0f32; LANES]; blocks];
        for (oc, (row, &bias)) in self
            .grad_weight
            .chunks_exact(taps)
            .zip(&self.grad_bias)
            .enumerate()
        {
            for (t, &v) in row.iter().enumerate() {
                gw[oc / LANES * taps + t][oc % LANES] = v;
            }
            gb[oc / LANES][oc % LANES] = bias;
        }
        let mut g = Vec::new();
        for b in 0..n {
            let xb = &x.as_slice()[b * c * h * w..][..c * h * w];
            for (blk, (gw, gb)) in gw.chunks_exact_mut(taps).zip(&mut gb).enumerate() {
                // This item's gradient for the block, channel-last.
                let oc0 = blk * LANES;
                let rows = grad_out.as_slice()[(b * self.out_channels + oc0) * plane..]
                    .chunks_exact(plane)
                    .take(LANES.min(self.out_channels - oc0));
                g.clear();
                g.resize(plane, [0.0f32; LANES]);
                for (j, gp) in rows.enumerate() {
                    for (o, &v) in g.iter_mut().zip(gp) {
                        o[j] = v;
                    }
                }
                for gv in &g {
                    for j in 0..LANES {
                        gb[j] += gv[j];
                    }
                }
                for (t, acc) in gw.iter_mut().enumerate() {
                    let (ic, dy, dx) = (t / (k * k), t / k % k, t % k);
                    let (dr, dc) = (dy as isize - p, dx as isize - p);
                    let cols = shifted(dc, w, ow);
                    if cols.is_empty() {
                        continue;
                    }
                    let xc = &xb[ic * h * w..][..h * w];
                    let mut sum = *acc;
                    for y in shifted(dr, h, oh) {
                        let x0 =
                            (y as isize + dr) as usize * w + (cols.start as isize + dc) as usize;
                        let xs = &xc[x0..x0 + cols.len()];
                        for (gv, &xv) in g[y * ow + cols.start..y * ow + cols.end].iter().zip(xs) {
                            for j in 0..LANES {
                                sum[j] += gv[j] * xv;
                            }
                        }
                    }
                    *acc = sum;
                }
            }
        }
        for (oc, (row, bias)) in self
            .grad_weight
            .chunks_exact_mut(taps)
            .zip(&mut self.grad_bias)
            .enumerate()
        {
            for (t, v) in row.iter_mut().enumerate() {
                *v = gw[oc / LANES * taps + t][oc % LANES];
            }
            *bias = gb[oc / LANES][oc % LANES];
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor4) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        assert_eq!(c, self.in_channels, "conv2d: input channel mismatch");
        assert!(h > 0 && w > 0, "conv2d: empty input plane");
        assert!(
            h + 2 * self.padding >= self.kernel && w + 2 * self.padding >= self.kernel,
            "conv2d: input smaller than kernel"
        );
        let (oh, ow) = self.out_hw(h, w);
        let (k, p, oc_n) = (self.kernel, self.padding as isize, self.out_channels);
        let mut out = Tensor4::zeros(n, oc_n, oh, ow);
        let (mut xl, mut yl) = (Vec::new(), vec![[0.0f32; LANES]; oc_n * oh * ow]);
        for b0 in (0..n).step_by(LANES) {
            to_lanes(x.as_slice(), c * h * w, b0, &mut xl);
            for (oc, (yp, wo)) in yl
                .chunks_exact_mut(oh * ow)
                .zip(self.weight.chunks_exact(c * k * k))
                .enumerate()
            {
                yp.fill([self.bias[oc]; LANES]);
                for (t, &wv) in wo.iter().enumerate() {
                    let (ic, dy, dx) = (t / (k * k), t / k % k, t % k);
                    let xp = &xl[ic * h * w..][..h * w];
                    let shift = (dy as isize - p, dx as isize - p);
                    axpy_shifted(wv, xp, (h, w), yp, (oh, ow), shift);
                }
            }
            from_lanes(&yl, oc_n * oh * ow, b0, out.as_mut_slice());
        }
        self.cached_input = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let x = self
            .cached_input
            .take()
            .expect("conv2d: backward before forward");
        let (n, c, h, w) = x.shape();
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(
            grad_out.shape(),
            (n, self.out_channels, oh, ow),
            "conv2d: gradient shape mismatch"
        );
        self.accumulate_param_grads(&x, grad_out);

        // The input gradient is the correlation of the output gradient with
        // the kernel turned 180°: tap (dy, dx) of output channel `oc` moves
        // `g[oc]` by (p − dy, p − dx) onto input channel `ic`. Visiting the
        // taps (oc, dy↓, dx↓) gives every element its terms in
        // `(oc, y, xx)` order.
        let (k, p, oc_n) = (self.kernel, self.padding as isize, self.out_channels);
        let mut grad_in = Tensor4::zeros(n, c, h, w);
        let (mut gl, mut il) = (Vec::new(), vec![[0.0f32; LANES]; c * h * w]);
        for b0 in (0..n).step_by(LANES) {
            to_lanes(grad_out.as_slice(), oc_n * oh * ow, b0, &mut gl);
            for (ic, ip) in il.chunks_exact_mut(h * w).enumerate() {
                ip.fill([0.0; LANES]);
                for (oc, gp) in gl.chunks_exact(oh * ow).enumerate() {
                    let wk = &self.weight[(oc * c + ic) * k * k..][..k * k];
                    for t in (0..k * k).rev() {
                        let shift = (p - (t / k) as isize, p - (t % k) as isize);
                        axpy_shifted(wk[t], gp, (oh, ow), ip, (h, w), shift);
                    }
                }
            }
            from_lanes(&il, c * h * w, b0, grad_in.as_mut_slice());
        }
        self.cached_input = Some(x);
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
        rand::rngs::StdRng::seed_from_u64(21)
    }

    /// The scalar direct forward the kernel replaced: one serial add chain
    /// per output element. The reference for the per-element order.
    fn reference_forward(l: &Conv2d, x: &Tensor4) -> Tensor4 {
        let (n, _, h, w) = x.shape();
        let (oh, ow) = l.out_hw(h, w);
        let w_index = |oc: usize, ic: usize, dy: usize, dx: usize| {
            ((oc * l.in_channels + ic) * l.kernel + dy) * l.kernel + dx
        };
        let mut out = Tensor4::zeros(n, l.out_channels, oh, ow);
        let p = l.padding as isize;
        for b in 0..n {
            for oc in 0..l.out_channels {
                for y in 0..oh {
                    for xx in 0..ow {
                        let mut acc = l.bias[oc];
                        for ic in 0..l.in_channels {
                            for dy in 0..l.kernel {
                                let iy = y as isize + dy as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for dx in 0..l.kernel {
                                    let ix = xx as isize + dx as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += l.weight[w_index(oc, ic, dy, dx)]
                                        * x.get(b, ic, iy as usize, ix as usize);
                                }
                            }
                        }
                        out.set(b, oc, y, xx, acc);
                    }
                }
            }
        }
        out
    }

    /// The scalar direct backward the kernel replaced, accumulating into
    /// `l`'s parameter gradients.
    fn reference_backward(l: &mut Conv2d, x: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let (n, _, h, w) = x.shape();
        let (oh, ow) = l.out_hw(h, w);
        let w_index = |oc: usize, ic: usize, dy: usize, dx: usize| {
            ((oc * l.in_channels + ic) * l.kernel + dy) * l.kernel + dx
        };
        let mut grad_in = Tensor4::zeros(n, l.in_channels, h, w);
        let p = l.padding as isize;
        for b in 0..n {
            for oc in 0..l.out_channels {
                for y in 0..oh {
                    for xx in 0..ow {
                        let g = grad_out.get(b, oc, y, xx);
                        if g == 0.0 {
                            continue;
                        }
                        l.grad_bias[oc] += g;
                        for ic in 0..l.in_channels {
                            for dy in 0..l.kernel {
                                let iy = y as isize + dy as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for dx in 0..l.kernel {
                                    let ix = xx as isize + dx as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let wi = w_index(oc, ic, dy, dx);
                                    l.grad_weight[wi] += g * x.get(b, ic, iy as usize, ix as usize);
                                    let gi = grad_in.index(b, ic, iy as usize, ix as usize);
                                    grad_in.as_mut_slice()[gi] += g * l.weight[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    #[test]
    fn kernels_match_the_scalar_loops_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0de);
        for case in 0..400 {
            let k = [1usize, 2, 3, 5][case % 4];
            let p = rng.gen_range(0..=2usize);
            let min_hw = k.saturating_sub(2 * p).max(1);
            let h = rng.gen_range(min_hw..=13);
            let w = rng.gen_range(min_hw..=13);
            // Mostly 1–3 items and 1–5 output channels; every tenth case
            // spans several lane groups of both.
            let (n, oc) = if case % 10 == 9 {
                let wide = LANES + 1..=2 * LANES + 1;
                (rng.gen_range(wide.clone()), rng.gen_range(wide))
            } else {
                (rng.gen_range(1..=3usize), rng.gen_range(1..=5usize))
            };
            let c = rng.gen_range(1..=5usize);
            let mut layer = Conv2d::new(&mut rng, c, oc, k, p);
            // Some weights exactly zero and some biases −0.0, so padded
            // taps that were wrongly added as `w·0` would flip a sign.
            let mut params = vec![0.0; layer.param_count()];
            layer.read_params(&mut params);
            let (weights, biases) = params.split_at_mut(oc * c * k * k);
            for v in weights.iter_mut() {
                if rng.gen_bool(0.1) {
                    *v = 0.0;
                }
            }
            for v in biases.iter_mut() {
                *v = [0.0, -0.0, rng.gen_range(-0.5f32..0.5)][rng.gen_range(0..3usize)];
            }
            layer.write_params(&params);

            let x = Tensor4::from_vec(n, c, h, w, signed_values(&mut rng, n * c * h * w, 0.3));
            let y = layer.forward(&x);
            assert_eq!(
                bits(y.as_slice()),
                bits(reference_forward(&layer, &x).as_slice()),
                "case {case}: forward, k={k} p={p} {n}x{c}x{h}x{w} -> {oc}"
            );

            let (_, _, oh, ow) = y.shape();
            let g = Tensor4::from_vec(n, oc, oh, ow, signed_values(&mut rng, y.len(), 0.4));
            layer.zero_grads();
            let mut reference = layer.clone();
            // Two passes: the parameter gradients accumulate across calls.
            for _ in 0..2 {
                let gi = layer.backward(&g);
                let want = reference_backward(&mut reference, &x, &g);
                assert_eq!(
                    bits(gi.as_slice()),
                    bits(want.as_slice()),
                    "case {case}: grad_in, k={k} p={p} {n}x{c}x{h}x{w} -> {oc}"
                );
            }
            assert_eq!(
                bits(&layer.grad_weight),
                bits(&reference.grad_weight),
                "case {case}: grad_weight"
            );
            assert_eq!(
                bits(&layer.grad_bias),
                bits(&reference.grad_bias),
                "case {case}: grad_bias"
            );
        }
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1, bias 0 == identity.
        let mut c = Conv2d::new(&mut rng(), 1, 1, 1, 0);
        c.write_params(&[1.0, 0.0]);
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_valid_convolution() {
        let mut c = Conv2d::new(&mut rng(), 1, 1, 3, 0);
        // Sum-of-window kernel, bias 10.
        let mut p = vec![1.0; 9];
        p.push(10.0);
        c.write_params(&p);
        let x = Tensor4::from_vec(1, 1, 3, 3, (1..=9).map(|i| i as f32).collect());
        let y = c.forward(&x);
        assert_eq!(y.shape(), (1, 1, 1, 1));
        assert_eq!(y.as_slice(), &[55.0]); // 45 + 10
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let c = Conv2d::new(&mut rng(), 1, 4, 3, 1);
        assert_eq!(c.out_hw(8, 8), (8, 8));
    }

    #[test]
    fn multi_channel_shapes() {
        let mut c = Conv2d::new(&mut rng(), 3, 5, 3, 1);
        let x = Tensor4::zeros(2, 3, 6, 6);
        let y = c.forward(&x);
        assert_eq!(y.shape(), (2, 5, 6, 6));
        assert_eq!(c.param_count(), 5 * 3 * 9 + 5);
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut c = Conv2d::new(&mut rng(), 2, 3, 3, 1);
        let x = Tensor4::from_vec(
            1,
            2,
            4,
            4,
            (0..32).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        testutil::check_input_gradient(&mut c, &x, 1e-2);
    }

    #[test]
    fn param_gradient_matches_numeric() {
        let mut c = Conv2d::new(&mut rng(), 2, 2, 3, 1);
        let x = Tensor4::from_vec(
            2,
            2,
            4,
            4,
            (0..64).map(|i| (i as f32 * 0.29).cos()).collect(),
        );
        testutil::check_param_gradient(&mut c, &x, 1e-2);
    }

    #[test]
    fn param_roundtrip() {
        let a = Conv2d::new(&mut rng(), 2, 3, 3, 1);
        let mut p = vec![0.0; a.param_count()];
        a.read_params(&mut p);
        let mut b = Conv2d::new(&mut rng(), 2, 3, 3, 1);
        b.write_params(&p);
        let mut q = vec![0.0; b.param_count()];
        b.read_params(&mut q);
        assert_eq!(p, q);
    }
}
