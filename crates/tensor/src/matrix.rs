//! A small row-major dense matrix.
//!
//! [`Mat`] is deliberately minimal: the unlearning pipeline only ever builds
//! matrices whose *smaller* dimension is `2s` (with `s` the L-BFGS buffer
//! size, 2 in the paper), so the implementation favours clarity over cache
//! blocking. The tall-skinny products (`AᵀB`, `Aᵀv`) used by compact L-BFGS
//! are provided as dedicated methods that never materialise transposes.
//!
//! [`row_dots`] is the one dot-sweep kernel: it dots a slice of rows,
//! borrowed wherever they live, against a shared vector, so the batched
//! recovery engine sweeps the L-BFGS pairs' own rows without stacking a
//! copy of them.

use std::fmt;

/// Row-major dense `f32` matrix.
///
/// ```
/// use fuiov_tensor::Mat;
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a.get(1, 0), 3.0);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// All-zeros matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a `dim × k` matrix whose columns are the given vectors.
    ///
    /// This is how the L-BFGS buffers `ΔW` and `ΔG` are assembled: each
    /// column is one model-difference (or gradient-difference) vector.
    /// Accepts any slice type (`Vec<f32>`, `&[f32]`, …) so ring-buffered
    /// callers can pass borrowed columns without cloning them first.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is empty or the vectors have unequal lengths.
    pub fn from_cols<C: AsRef<[f32]>>(cols: &[C]) -> Self {
        assert!(!cols.is_empty(), "from_cols: no columns");
        let dim = cols[0].as_ref().len();
        let k = cols.len();
        let mut m = Mat::zeros(dim, k);
        for (j, c) in cols.iter().enumerate() {
            let c = c.as_ref();
            assert_eq!(c.len(), dim, "from_cols: ragged columns");
            for (i, &v) in c.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: size mismatch");
        Mat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "get: index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "set: index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row: index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col: index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Matrix product `self · other`: the plain i → k → j triple loop,
    /// skipping zero entries of `self`.
    ///
    /// No pipeline path multiplies two dense matrices; this is the
    /// reference the L-BFGS Gram-pass tests and the tensor properties
    /// compare against, so it favours an obvious accumulation order over
    /// speed.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        out
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows)
            .map(|r| crate::vector::dot(self.row(r), v))
            .collect()
    }

    /// `selfᵀ · v` without materialising the transpose.
    ///
    /// For a tall-skinny `dim × k` buffer this is the `k`-vector of
    /// per-column dot products — the shape compact L-BFGS needs.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows`.
    pub fn tr_matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.rows, "tr_matvec: dimension mismatch");
        let mut out = vec![0.0f64; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (o, &x) in out.iter_mut().zip(row) {
                *o += f64::from(vr) * f64::from(x);
            }
        }
        out.into_iter().map(|x| x as f32).collect()
    }

    /// Gram-style product `selfᵀ · other` (a `k × m` matrix for tall-skinny
    /// inputs `dim × k` and `dim × m`), accumulated in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn tr_matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "tr_matmul: row count mismatch");
        let mut out = vec![0.0f64; self.cols * other.cols];
        for r in 0..self.rows {
            let a = self.row(r);
            let b = other.row(r);
            for (i, &ai) in a.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                for (j, &bj) in b.iter().enumerate() {
                    out[i * other.cols + j] += f64::from(ai) * f64::from(bj);
                }
            }
        }
        Mat::from_vec(
            self.cols,
            other.cols,
            out.into_iter().map(|x| x as f32).collect(),
        )
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Strictly-lower-triangular copy (Algorithm 2's `tril`, excluding the
    /// diagonal, as in the Byrd–Nocedal–Schnabel compact representation).
    pub fn tril_strict(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols.min(r) {
                out.set(r, c, self.get(r, c));
            }
        }
        out
    }

    /// Diagonal copy (Algorithm 2's `diag`).
    pub fn diag(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows.min(self.cols) {
            out.set(i, i, self.get(i, i));
        }
        out
    }

    /// Assembles a 2×2 block matrix `[[a, b], [c, d]]`.
    ///
    /// Used to build the `2s × 2s` middle matrix of compact L-BFGS.
    ///
    /// # Panics
    ///
    /// Panics if block shapes are inconsistent.
    pub fn block2x2(a: &Mat, b: &Mat, c: &Mat, d: &Mat) -> Mat {
        assert_eq!(a.rows, b.rows, "block2x2: top row height mismatch");
        assert_eq!(c.rows, d.rows, "block2x2: bottom row height mismatch");
        assert_eq!(a.cols, c.cols, "block2x2: left column width mismatch");
        assert_eq!(b.cols, d.cols, "block2x2: right column width mismatch");
        let rows = a.rows + c.rows;
        let cols = a.cols + b.cols;
        let mut out = Mat::zeros(rows, cols);
        for r in 0..a.rows {
            for cc in 0..a.cols {
                out.set(r, cc, a.get(r, cc));
            }
            for cc in 0..b.cols {
                out.set(r, a.cols + cc, b.get(r, cc));
            }
        }
        for r in 0..c.rows {
            for cc in 0..c.cols {
                out.set(a.rows + r, cc, c.get(r, cc));
            }
            for cc in 0..d.cols {
                out.set(a.rows + r, a.cols + cc, d.get(r, cc));
            }
        }
        out
    }

    /// `self ← self · s` (scalar).
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute element difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> f32 {
        assert_eq!(self.rows, other.rows, "max_abs_diff: shape mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

/// One dot product per row against the shared vector `v`: `out[i]` is
/// `rows[i]ᵀ·v`, accumulated as `f64(v[j]) · f64(rows[i][j])` in
/// ascending `j` from `+0.0`, skipping every `v[j] == 0.0`, and rounded
/// to `f32` once — per row exactly what [`Mat::tr_matvec`] computes per
/// column of the untransposed layout.
///
/// The rows are borrowed wherever they live, so callers dot rows they
/// share with others instead of copying them into one matrix: this is
/// the batched recovery engine's inbound sweep over the L-BFGS pairs'
/// own row handles, and the inbound half of a lone approximation's
/// Hessian-vector product. Each output is a pure function of its row and
/// `v`, so any split of the rows across calls (pool row bands, the
/// cross-job sweep's ranges) gives the same bits. Dispatches to the AVX2
/// kernel when [`crate::simd::enabled`] says so; [`row_dots_scalar`] is
/// the pinned reference it must match bit for bit.
///
/// ```
/// use fuiov_tensor::matrix::row_dots;
/// let rows: [&[f32]; 2] = [&[1.0, 2.0], &[3.0, 4.0]];
/// let mut out = [0.0f32; 2];
/// row_dots(&rows, &[1.0, 1.0], &mut out);
/// assert_eq!(out, [3.0, 7.0]);
/// ```
///
/// # Panics
///
/// Panics if `out.len() != rows.len()` or a row's length differs from
/// `v.len()`.
pub fn row_dots<R: AsRef<[f32]>>(rows: &[R], v: &[f32], out: &mut [f32]) {
    check_row_dots(rows, v, out);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        // SAFETY: `simd::enabled()` implies the AVX2 probe passed.
        unsafe { x86::row_dots_avx2(rows, v, out) };
        return;
    }
    row_dots_band_scalar(rows, v, out);
}

/// The pinned scalar reference for [`row_dots`]: the same per-row
/// accumulation, never dispatched to SIMD. The AVX2 path must reproduce
/// this function's output bit for bit (see `tests/simd_props.rs`);
/// benches time the two against each other.
///
/// # Panics
///
/// As [`row_dots`].
pub fn row_dots_scalar<R: AsRef<[f32]>>(rows: &[R], v: &[f32], out: &mut [f32]) {
    check_row_dots(rows, v, out);
    row_dots_band_scalar(rows, v, out);
}

/// The shape checks of [`row_dots`].
fn check_row_dots<R: AsRef<[f32]>>(rows: &[R], v: &[f32], out: &[f32]) {
    assert_eq!(out.len(), rows.len(), "row_dots: output length mismatch");
    assert!(
        rows.iter().all(|row| row.as_ref().len() == v.len()),
        "row_dots: row length mismatch"
    );
}

/// The scalar row-dots kernel: four rows per pass so the four f64
/// dependency chains run in parallel (each output keeps its own
/// accumulator, so per-row accumulation order — and hence the bits — is
/// untouched). A short last group repeats its first row in the spare
/// lanes, whose sums are dropped, so one to three rows still share one
/// pass over `v`. The per-client `tr_matvec` interleaves its 2s chains
/// the same way; matching it here is what makes the batched sweep at
/// least as fast per column. This is the pinned reference the AVX2
/// kernel must reproduce bit for bit.
fn row_dots_band_scalar<R: AsRef<[f32]>>(rows: &[R], v: &[f32], out: &mut [f32]) {
    for (group, slots) in rows.chunks(4).zip(out.chunks_mut(4)) {
        let row = |k: usize| group.get(k).unwrap_or(&group[0]).as_ref();
        let (a0, a1, a2, a3) = (row(0), row(1), row(2), row(3));
        let mut acc = [0.0f64; 4];
        for ((((&vj, &x0), &x1), &x2), &x3) in v.iter().zip(a0).zip(a1).zip(a2).zip(a3) {
            if vj == 0.0 {
                continue;
            }
            let vj64 = f64::from(vj);
            acc[0] += vj64 * f64::from(x0);
            acc[1] += vj64 * f64::from(x1);
            acc[2] += vj64 * f64::from(x2);
            acc[3] += vj64 * f64::from(x3);
        }
        for (slot, a) in slots.iter_mut().zip(acc) {
            *slot = a as f32;
        }
    }
}

/// One row's column tail: continues `acc` over `v[from..]` with
/// the exact scalar chain — ascending `j`, the `v[j] == 0.0` skip, one
/// `f64 → f32` rounding at the very end. The AVX2 kernel re-enters here
/// for column tails after extracting its lane accumulators, which is what
/// keeps every row a single unbroken chain.
fn row_dot_scalar_from(row: &[f32], v: &[f32], from: usize, mut acc: f64) -> f32 {
    for (&vj, &x) in v[from..].iter().zip(&row[from..]) {
        if vj == 0.0 {
            continue;
        }
        acc += f64::from(vj) * f64::from(x);
    }
    acc as f32
}

/// AVX2 implementation of the row-dots kernel. Only compiled on `x86_64`;
/// only *executed* when `crate::simd::enabled()` says the runtime probe
/// passed. It is bound by the bitwise contract of `crate::simd`: identical
/// bytes to the scalar reference at every input shape, which dictates the
/// vectorization shape. A row's f64 accumulation is one serial dependency
/// chain whose order defines the bits, so lanes must be whole chains
/// (lane = row), never chunks of one chain. An in-register 8×8 transpose
/// turns contiguous row loads into column-major vectors so the chains
/// still consume ascending `j`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{row_dot_scalar_from, row_dots_band_scalar};
    use std::arch::x86_64::*;

    /// AVX2 twin of `row_dots_band_scalar`: eight rows per block, lane =
    /// row. Each 8×8 tile — eight consecutive elements of eight rows,
    /// wherever each row lives — is loaded row-wise (contiguous) and
    /// transposed in registers (`unpack` / `shuffle` / `permute2f128`),
    /// giving one vector per column `j` whose lanes are rows — so the two
    /// f64 accumulator vectors advance all eight row chains by exactly
    /// one `acc += f64(vj) · f64(x)` step per column, in ascending `j`.
    /// The `vj == 0.0` skip stays a scalar branch (uniform across lanes,
    /// since `v` is shared by all rows). Column tails re-enter
    /// `row_dot_scalar_from` with the extracted lane accumulators; row
    /// tails fall back to the scalar kernel. Each block's eight slices
    /// are taken once and length-checked here, so the raw loads stay in
    /// bounds whatever the rows' `AsRef` does.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available (runtime-probed by
    /// `crate::simd::caps`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_dots_avx2<R: AsRef<[f32]>>(rows: &[R], v: &[f32], out: &mut [f32]) {
        let cols = v.len();
        let mut blocks = rows.chunks_exact(8);
        let mut slots = out.chunks_exact_mut(8);
        for (block, slots) in (&mut blocks).zip(&mut slots) {
            let rows8: [&[f32]; 8] = std::array::from_fn(|k| block[k].as_ref());
            assert!(
                rows8.iter().all(|row| row.len() == cols),
                "row_dots: row length mismatch"
            );
            let base = rows8.map(<[f32]>::as_ptr);
            let mut acc_lo = _mm256_setzero_pd();
            let mut acc_hi = _mm256_setzero_pd();
            let mut j = 0;
            while j + 8 <= cols {
                // In bounds: every row of the block holds `cols` elements
                // (asserted above) and `j + 8 <= cols`.
                let r0 = _mm256_loadu_ps(base[0].add(j));
                let r1 = _mm256_loadu_ps(base[1].add(j));
                let r2 = _mm256_loadu_ps(base[2].add(j));
                let r3 = _mm256_loadu_ps(base[3].add(j));
                let r4 = _mm256_loadu_ps(base[4].add(j));
                let r5 = _mm256_loadu_ps(base[5].add(j));
                let r6 = _mm256_loadu_ps(base[6].add(j));
                let r7 = _mm256_loadu_ps(base[7].add(j));
                // 8×8 transpose: pairs → quads → full lanes.
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                let t4 = _mm256_unpacklo_ps(r4, r5);
                let t5 = _mm256_unpackhi_ps(r4, r5);
                let t6 = _mm256_unpacklo_ps(r6, r7);
                let t7 = _mm256_unpackhi_ps(r6, r7);
                let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
                let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
                let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
                let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
                let cvecs = [
                    _mm256_permute2f128_ps::<0x20>(s0, s4),
                    _mm256_permute2f128_ps::<0x20>(s1, s5),
                    _mm256_permute2f128_ps::<0x20>(s2, s6),
                    _mm256_permute2f128_ps::<0x20>(s3, s7),
                    _mm256_permute2f128_ps::<0x31>(s0, s4),
                    _mm256_permute2f128_ps::<0x31>(s1, s5),
                    _mm256_permute2f128_ps::<0x31>(s2, s6),
                    _mm256_permute2f128_ps::<0x31>(s3, s7),
                ];
                for (&vj, &cv) in v[j..j + 8].iter().zip(&cvecs) {
                    if vj == 0.0 {
                        continue;
                    }
                    let vj64 = _mm256_set1_pd(f64::from(vj));
                    let x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(cv));
                    let x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(cv));
                    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(vj64, x_lo));
                    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(vj64, x_hi));
                }
                j += 8;
            }
            let mut acc = [0.0f64; 8];
            _mm256_storeu_pd(acc.as_mut_ptr(), acc_lo);
            _mm256_storeu_pd(acc.as_mut_ptr().add(4), acc_hi);
            for ((slot, row), a) in slots.iter_mut().zip(rows8).zip(acc) {
                *slot = row_dot_scalar_from(row, v, j, a);
            }
        }
        row_dots_band_scalar(blocks.remainder(), v, slots.into_remainder());
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_cols_matches_from_rows_transposed() {
        let cols = [vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let c = Mat::from_cols(&cols);
        let r = Mat::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]);
        assert_eq!(c, r);
        // Borrowed-slice columns work too (the ring-buffer call shape).
        let borrowed: Vec<&[f32]> = cols.iter().map(Vec::as_slice).collect();
        assert_eq!(Mat::from_cols(&borrowed), c);
    }

    #[test]
    fn eye_matvec_is_identity() {
        let i = Mat::eye(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn tr_matmul_equals_explicit_transpose_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let fast = a.tr_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn tr_matvec_equals_transpose_matvec() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let v = [1.0, -1.0, 2.0];
        assert_eq!(a.tr_matvec(&v), a.transpose().matvec(&v));
    }

    #[test]
    fn tril_and_diag() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.tril_strict(), Mat::from_rows(&[&[0.0, 0.0], &[3.0, 0.0]]));
        assert_eq!(a.diag(), Mat::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]));
    }

    #[test]
    fn block2x2_assembles() {
        let a = Mat::from_rows(&[&[1.0]]);
        let b = Mat::from_rows(&[&[2.0]]);
        let c = Mat::from_rows(&[&[3.0]]);
        let d = Mat::from_rows(&[&[4.0]]);
        let m = Mat::block2x2(&a, &b, &c, &d);
        assert_eq!(m, Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    /// Deterministic pseudo-random matrix (no RNG dependency in this crate's
    /// unit tests): SplitMix64-style scramble of the index, with a sprinkle
    /// of exact zeros to exercise the `v[j] == 0.0` skip path.
    fn test_mat(rows: usize, cols: usize, salt: u64) -> Mat {
        let mut data = Vec::with_capacity(rows * cols);
        for idx in 0..rows * cols {
            let mut z = (idx as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            if z.is_multiple_of(7) {
                data.push(0.0);
            } else {
                data.push((z % 2000) as f32 / 1000.0 - 1.0);
            }
        }
        Mat::from_vec(rows, cols, data)
    }

    /// The rows of `m`, each copied into an allocation of its own — how
    /// the recovery engine's rows live.
    fn owned_rows(m: &Mat) -> Vec<Vec<f32>> {
        (0..m.rows()).map(|r| m.row(r).to_vec()).collect()
    }

    #[test]
    fn row_dots_on_transpose_match_tr_matvec_bitwise() {
        // A tall-skinny dim × k buffer (the L-BFGS factor shape) and its
        // transpose's rows, each a separate allocation: the per-row dots
        // must reproduce tr_matvec on the original, bit for bit, on both
        // the dispatched and the scalar kernel. `test_mat` plants exact
        // zeros so the shared `v[j] == 0.0` skip is exercised.
        for &(dim, k) in &[(1usize, 1usize), (37, 4), (1024, 12), (20_000, 9)] {
            let a = test_mat(dim, k, 3);
            let v: Vec<f32> = test_mat(dim, 1, 4).as_slice().to_vec();
            let golden = a.tr_matvec(&v);
            let rows = owned_rows(&a.transpose());
            let mut dots = vec![0.0f32; k];
            row_dots(&rows, &v, &mut dots);
            let mut reference = vec![0.0f32; k];
            row_dots_scalar(&rows, &v, &mut reference);
            for (got, what) in [(&dots, "row_dots"), (&reference, "row_dots_scalar")] {
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    golden.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{what} diverged from tr_matvec at {dim}x{k}"
                );
            }
        }
    }

    #[test]
    fn row_dots_match_the_whole_sweep_at_any_partition() {
        // Any partitioning of the rows into calls must reproduce one call
        // over all of them bit for bit — the property the pool's row
        // bands and the cross-job batched recovery round build on.
        for &(rows, cols) in &[(1usize, 9usize), (13, 33), (64, 257)] {
            let m = owned_rows(&test_mat(rows, cols, 5));
            let v: Vec<f32> = test_mat(cols, 1, 6).as_slice().to_vec();
            let mut golden = vec![0.0f32; rows];
            row_dots(&m, &v, &mut golden);
            for chunk in [1usize, 3, rows] {
                let mut out = vec![0.0f32; rows];
                for (part, slots) in m.chunks(chunk).zip(out.chunks_mut(chunk)) {
                    row_dots(part, &v, slots);
                }
                assert_eq!(
                    out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    golden.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "partitioned sweep diverged at {rows}x{cols}, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn row_dots_refuses_a_short_row() {
        let rows: [&[f32]; 2] = [&[1.0, 2.0, 3.0], &[1.0, 2.0]];
        row_dots(&rows, &[1.0, 1.0, 1.0], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Mat::zeros(1, 1));
        assert!(s.contains("Mat 1x1"));
    }
}
