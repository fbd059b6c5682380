//! Sign-only gradient storage (the paper's §IV direction quantisation).
//!
//! A gradient element is stored as its *direction*: `+1` if it exceeds the
//! threshold `δ`, `−1` if below `−δ`, `0` otherwise. Directions are packed
//! 2 bits per element (4 per byte), which is where the paper's "~95 %
//! storage savings" claim comes from: 2 bits vs 32 bits is a 93.75 %
//! reduction before even counting allocator overheads.

/// Bit patterns for the three directions.
const CODE_ZERO: u8 = 0b00;
const CODE_POS: u8 = 0b01;
const CODE_NEG: u8 = 0b10;

/// Decodes one 2-bit code, with the same defensive `0b11 → 0` mapping as
/// [`GradientDirection::sign`].
const fn decode_code(code: u8) -> i8 {
    match code {
        CODE_POS => 1,
        CODE_NEG => -1,
        _ => 0,
    }
}

/// 256-entry byte LUT: packed byte → its four decoded signs, low pair
/// first. Built at compile time; one table lookup replaces four
/// shift/mask/branch sequences in the decode hot loops.
const SIGN_LUT: [[i8; 4]; 256] = {
    let mut lut = [[0i8; 4]; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut i = 0usize;
        while i < 4 {
            lut[b][i] = decode_code(((b as u8) >> (i * 2)) & 0b11);
            i += 1;
        }
        b += 1;
    }
    lut
};

/// [`SIGN_LUT`] widened to `f32`, so full bytes decode via a single
/// 16-byte `copy_from_slice` instead of four int→float conversions.
const F32_LUT: [[f32; 4]; 256] = {
    let mut lut = [[0.0f32; 4]; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut i = 0usize;
        while i < 4 {
            lut[b][i] = SIGN_LUT[b][i] as f32;
            i += 1;
        }
        b += 1;
    }
    lut
};

/// A packed vector of gradient directions (`+1`, `0`, `−1`), 2 bits each.
///
/// ```
/// use fuiov_storage::direction::GradientDirection;
///
/// let d = GradientDirection::quantize(&[0.5, -0.3, 1e-9], 1e-6);
/// assert_eq!(d.to_signs(), vec![1, -1, 0]);
/// assert_eq!(d.byte_size(), 1); // 3 elements fit in one byte
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradientDirection {
    len: usize,
    packed: Vec<u8>,
}

impl GradientDirection {
    /// Quantises a gradient with dead-zone threshold `delta`: `+1` if
    /// `v > δ`, `−1` if `v < −δ`, else `0`, so a NaN element (in neither
    /// open half-line) stores `0`.
    ///
    /// One branchless pass packs each element's two compares straight
    /// into its 2-bit code, four to a byte. Compare-and-pack does no
    /// rounding, so the bytes are the same at every vector width LLVM
    /// picks, and there is no SIMD twin to dispatch to (DESIGN §5).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or NaN.
    pub fn quantize(grad: &[f32], delta: f32) -> Self {
        assert!(delta >= 0.0, "quantize: delta must be >= 0");
        // CODE_POS when above the dead zone, CODE_NEG when below it.
        let code = |v: f32| u8::from(v > delta) | (u8::from(v < -delta) << 1);
        let pack = |four: &[f32]| {
            four.iter()
                .enumerate()
                .fold(0, |byte, (lane, &v)| byte | code(v) << (2 * lane))
        };
        let mut packed = vec![0u8; grad.len().div_ceil(4)];
        let quads = grad.chunks_exact(4);
        let tail = quads.remainder();
        for (byte, four) in packed.iter_mut().zip(quads) {
            *byte = pack(four);
        }
        if !tail.is_empty() {
            packed[grad.len() / 4] = pack(tail);
        }
        GradientDirection {
            len: grad.len(),
            packed,
        }
    }

    /// Packs an explicit sign vector.
    ///
    /// # Panics
    ///
    /// Panics if any element is outside `{-1, 0, 1}`.
    pub fn from_signs(signs: &[i8]) -> Self {
        let mut packed = vec![0u8; signs.len().div_ceil(4)];
        for (i, &s) in signs.iter().enumerate() {
            let code = match s {
                0 => CODE_ZERO,
                1 => CODE_POS,
                -1 => CODE_NEG,
                other => panic!("from_signs: invalid sign {other}"),
            };
            packed[i / 4] |= code << ((i % 4) * 2);
        }
        GradientDirection {
            len: signs.len(),
            packed,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Direction of element `i` as an `i8` in `{-1, 0, 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn sign(&self, i: usize) -> i8 {
        assert!(i < self.len, "sign: index out of bounds");
        match (self.packed[i / 4] >> ((i % 4) * 2)) & 0b11 {
            CODE_ZERO => 0,
            CODE_POS => 1,
            CODE_NEG => -1,
            _ => 0, // 0b11 never written; treat defensively as 0
        }
    }

    /// Unpacks to a sign vector. Runtime-dispatched: 32 signs per
    /// iteration through the AVX2 shuffle decode where available, 4 signs
    /// per byte-LUT hit otherwise (`fuiov_tensor::simd` owns the choice;
    /// both paths produce identical bytes).
    pub fn to_signs(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.len];
        #[cfg(target_arch = "x86_64")]
        if fuiov_tensor::simd::enabled() {
            // SAFETY: `simd::enabled()` implies the AVX2 probe passed.
            unsafe { x86::signs_avx2(&self.packed, &mut out) };
            return out;
        }
        signs_tail(&self.packed, &mut out, 0);
        out
    }

    /// The pinned scalar reference for [`GradientDirection::to_signs`]:
    /// never dispatched to SIMD (word-level, 4 signs per byte LUT hit).
    pub fn to_signs_scalar(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.len];
        signs_tail(&self.packed, &mut out, 0);
        out
    }

    /// Unpacks to `f32` (the form Eq. 6 consumes as the base gradient).
    pub fn to_f32(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.decode_into(&mut out);
        out
    }

    /// Decodes the stored signs into a caller-owned `f32` buffer — the
    /// zero-allocation form of [`GradientDirection::to_f32`]. This is the
    /// batched replay loop's way of seeding each estimate row in place.
    /// Runtime-dispatched: 32 elements per iteration (8 packed bytes →
    /// one shuffle decode → four 8-lane widening stores) on AVX2, four
    /// elements per byte-LUT hit otherwise; identical bytes either way.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "decode_into: length mismatch");
        #[cfg(target_arch = "x86_64")]
        if fuiov_tensor::simd::enabled() {
            // SAFETY: `simd::enabled()` implies the AVX2 probe passed.
            unsafe { x86::decode_f32_avx2(&self.packed, out) };
            return;
        }
        decode_f32_tail(&self.packed, out, 0);
    }

    /// The pinned scalar reference for [`GradientDirection::decode_into`]:
    /// never dispatched to SIMD.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into_scalar(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "decode_into: length mismatch");
        decode_f32_tail(&self.packed, out, 0);
    }

    /// Fused decode-and-accumulate: `acc[i] += a · sign(i)` over the whole
    /// vector, with the sign decoded through the byte LUT. Arithmetic is
    /// exactly `a * f64::from(sign)` per element — including the zeros —
    /// so replacing a scalar `to_signs()` accumulation loop with this
    /// kernel changes no bits.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.len()`.
    pub fn decode_axpy(&self, a: f64, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.len, "decode_axpy: length mismatch");
        #[cfg(target_arch = "x86_64")]
        if fuiov_tensor::simd::enabled() {
            // SAFETY: `simd::enabled()` implies the AVX2 probe passed.
            unsafe { x86::axpy_avx2(&self.packed, a, acc) };
            return;
        }
        axpy_tail(&self.packed, a, acc, 0);
    }

    /// The pinned scalar reference for [`GradientDirection::decode_axpy`]:
    /// never dispatched to SIMD.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.len()`.
    pub fn decode_axpy_scalar(&self, a: f64, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.len, "decode_axpy: length mismatch");
        axpy_tail(&self.packed, a, acc, 0);
    }

    /// The raw packed 2-bit words (4 signs per byte, low pair first) —
    /// what the spill-segment codec copies verbatim, so a reloaded
    /// direction is bit-identical by construction.
    pub fn packed_bytes(&self) -> &[u8] {
        &self.packed
    }

    /// Reassembles a direction from raw packed words. `None` if the byte
    /// count doesn't match `len` (a malformed spill record or wire frame).
    pub fn from_packed(len: usize, packed: Vec<u8>) -> Option<Self> {
        (packed.len() == len.div_ceil(4)).then_some(GradientDirection { len, packed })
    }

    /// Bytes used by the packed representation.
    pub fn byte_size(&self) -> usize {
        self.packed.len()
    }

    /// Bytes an uncompressed `f32` gradient of the same length would use.
    pub fn full_f32_byte_size(&self) -> usize {
        self.len * std::mem::size_of::<f32>()
    }

    /// Fraction of storage saved vs full `f32` storage (≈ 0.9375 plus
    /// rounding effects; `0.0` for empty vectors).
    pub fn savings_ratio(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        1.0 - self.byte_size() as f64 / self.full_f32_byte_size() as f64
    }

    /// Iterates over the stored signs without materialising a vector.
    ///
    /// ```
    /// use fuiov_storage::direction::GradientDirection;
    /// let d = GradientDirection::from_signs(&[1, 0, -1]);
    /// assert_eq!(d.iter().sum::<i8>(), 0);
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter { dir: self, pos: 0 }
    }

    /// Fraction of elements quantised to zero (diagnostic for choosing δ).
    pub fn sparsity(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let zeros = (0..self.len).filter(|&i| self.sign(i) == 0).count();
        zeros as f64 / self.len as f64
    }
}

/// Scalar sign decode of elements `from..out.len()` (`from` must be a
/// multiple of 4, i.e. byte-aligned): full bytes through [`SIGN_LUT`],
/// then the final partial byte lane by lane. With `from == 0` this *is*
/// the scalar reference; the AVX2 kernels re-enter it for their tails.
fn signs_tail(packed: &[u8], out: &mut [i8], from: usize) {
    let full_end = out.len() / 4 * 4;
    for (chunk, &byte) in out[from..full_end]
        .chunks_exact_mut(4)
        .zip(&packed[from / 4..])
    {
        chunk.copy_from_slice(&SIGN_LUT[byte as usize]);
    }
    for (lane, slot) in out[full_end..].iter_mut().enumerate() {
        *slot = SIGN_LUT[packed[full_end / 4] as usize][lane];
    }
}

/// `f32` twin of [`signs_tail`], through [`F32_LUT`].
fn decode_f32_tail(packed: &[u8], out: &mut [f32], from: usize) {
    let full_end = out.len() / 4 * 4;
    for (chunk, &byte) in out[from..full_end]
        .chunks_exact_mut(4)
        .zip(&packed[from / 4..])
    {
        chunk.copy_from_slice(&F32_LUT[byte as usize]);
    }
    for (lane, slot) in out[full_end..].iter_mut().enumerate() {
        *slot = F32_LUT[packed[full_end / 4] as usize][lane];
    }
}

/// Accumulating twin of [`signs_tail`]: `acc[i] += a · sign(i)` for
/// elements `from..acc.len()`, zeros included (the exact scalar op
/// sequence the AVX2 kernel reproduces).
fn axpy_tail(packed: &[u8], a: f64, acc: &mut [f64], from: usize) {
    let full_end = acc.len() / 4 * 4;
    for (chunk, &byte) in acc[from..full_end]
        .chunks_exact_mut(4)
        .zip(&packed[from / 4..])
    {
        for (slot, &s) in chunk.iter_mut().zip(&SIGN_LUT[byte as usize]) {
            *slot += a * f64::from(s);
        }
    }
    for (lane, slot) in acc[full_end..].iter_mut().enumerate() {
        *slot += a * f64::from(SIGN_LUT[packed[full_end / 4] as usize][lane]);
    }
}

/// AVX2 decode kernels: 8 packed bytes → 32 signs per iteration. Only
/// compiled on `x86_64`, only executed when the runtime probe passed
/// (`fuiov_tensor::simd::enabled`). The decode itself is integer — byte
/// replication via `vpshufb`, per-position 2-bit extraction via shifted
/// masks, then a 4-entry sign table shuffle — so bitwise identity with
/// the scalar LUT is structural; the float widenings (`i8 → f32`,
/// `i8 → f64` for the axpy) are exact for {−1, 0, 1} and the axpy does
/// the same one `mul` + one `add` per element as the scalar loop.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{axpy_tail, decode_f32_tail, signs_tail};
    use std::arch::x86_64::*;

    /// Decodes 8 packed bytes (one `u64`) into 32 sign bytes, lane `o`
    /// holding `decode_code((packed[o / 4] >> (2 · (o % 4))) & 0b11)` —
    /// including the defensive `0b11 → 0` mapping, via the table.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn signs32(w: u64) -> __m256i {
        // Byte o of each 128-bit lane ← packed byte o/4 (both 64-bit
        // halves of each lane hold `w`, so indices 0..8 are valid).
        #[rustfmt::skip]
        let rep_idx = _mm256_setr_epi8(
            0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
            4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
        );
        let rep = _mm256_shuffle_epi8(_mm256_set1_epi64x(w as i64), rep_idx);
        // Per-byte variable shifts don't exist; shift the whole register
        // by each of the four code offsets and keep each result only at
        // the byte positions that want that offset. `srli_epi16` bleeds
        // neighbour bits into the upper bits of a byte, but the final
        // `& 0b11` only keeps the two we extracted.
        let v0 = _mm256_and_si256(rep, _mm256_set1_epi32(0x0000_00FF));
        let v1 = _mm256_and_si256(_mm256_srli_epi16::<2>(rep), _mm256_set1_epi32(0x0000_FF00));
        let v2 = _mm256_and_si256(_mm256_srli_epi16::<4>(rep), _mm256_set1_epi32(0x00FF_0000));
        let v3 = _mm256_and_si256(
            _mm256_srli_epi16::<6>(rep),
            _mm256_set1_epi32(0xFF00_0000u32 as i32),
        );
        let codes = _mm256_and_si256(
            _mm256_or_si256(_mm256_or_si256(v0, v1), _mm256_or_si256(v2, v3)),
            _mm256_set1_epi8(0b11),
        );
        // code → sign: 0→0, 1→+1, 2→−1, 3→0 (same as `decode_code`).
        #[rustfmt::skip]
        let sign_tbl = _mm256_setr_epi8(
            0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0,
            0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0,
        );
        _mm256_shuffle_epi8(sign_tbl, codes)
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available; `out.len()` must equal the
    /// direction's element count for `packed`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn signs_avx2(packed: &[u8], out: &mut [i8]) {
        let blocks = out.len() / 32;
        for blk in 0..blocks {
            let w = packed.as_ptr().add(blk * 8).cast::<u64>().read_unaligned();
            _mm256_storeu_si256(out.as_mut_ptr().add(blk * 32).cast(), signs32(w));
        }
        signs_tail(packed, out, blocks * 32);
    }

    /// # Safety
    ///
    /// As [`signs_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_f32_avx2(packed: &[u8], out: &mut [f32]) {
        // Straight from packed bits to floats, no byte-replication or
        // int→float conversion chain: broadcast 16 codes (a `u32` of the
        // packed stream) to every dword lane, variable-shift each lane so
        // its own 2-bit code lands at the bottom, and let `vpermd` (which
        // only reads the low bits of each index) look the code up in an
        // in-register float table. The table is `F32_LUT` by another
        // name — code 0→0.0, 1→1.0, 2→−1.0, 3→0.0 — so bitwise identity
        // with the scalar path is again structural.
        let tbl = _mm256_setr_ps(0.0, 1.0, -1.0, 0.0, 0.0, 1.0, -1.0, 0.0);
        let sh_lo = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
        let sh_hi = _mm256_setr_epi32(16, 18, 20, 22, 24, 26, 28, 30);
        let three = _mm256_set1_epi32(0b11);
        let blocks = out.len() / 32;
        for blk in 0..blocks {
            let p = out.as_mut_ptr().add(blk * 32);
            for half in 0..2 {
                let codes16 = packed
                    .as_ptr()
                    .add(blk * 8 + half * 4)
                    .cast::<u32>()
                    .read_unaligned();
                let bl = _mm256_set1_epi32(codes16 as i32);
                let idx0 = _mm256_and_si256(_mm256_srlv_epi32(bl, sh_lo), three);
                let idx1 = _mm256_and_si256(_mm256_srlv_epi32(bl, sh_hi), three);
                let q = p.add(half * 16);
                _mm256_storeu_ps(q, _mm256_permutevar8x32_ps(tbl, idx0));
                _mm256_storeu_ps(q.add(8), _mm256_permutevar8x32_ps(tbl, idx1));
            }
        }
        decode_f32_tail(packed, out, blocks * 32);
    }

    /// # Safety
    ///
    /// As [`signs_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(packed: &[u8], a: f64, acc: &mut [f64]) {
        let av = _mm256_set1_pd(a);
        let blocks = acc.len() / 32;
        for blk in 0..blocks {
            let w = packed.as_ptr().add(blk * 8).cast::<u64>().read_unaligned();
            let s = signs32(w);
            let lo = _mm256_castsi256_si128(s);
            let hi = _mm256_extracti128_si256::<1>(s);
            // 32 signs → eight 4-lane f64 groups, each `acc += a · s`.
            let quads = [
                _mm256_cvtepi8_epi32(lo),
                _mm256_cvtepi8_epi32(_mm_srli_si128::<8>(lo)),
                _mm256_cvtepi8_epi32(hi),
                _mm256_cvtepi8_epi32(_mm_srli_si128::<8>(hi)),
            ];
            for (q, &octet) in quads.iter().enumerate() {
                let d0 = _mm256_cvtepi32_pd(_mm256_castsi256_si128(octet));
                let d1 = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(octet));
                let p = acc.as_mut_ptr().add(blk * 32 + q * 8);
                _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), _mm256_mul_pd(av, d0)));
                let p1 = p.add(4);
                _mm256_storeu_pd(
                    p1,
                    _mm256_add_pd(_mm256_loadu_pd(p1), _mm256_mul_pd(av, d1)),
                );
            }
        }
        axpy_tail(packed, a, acc, blocks * 32);
    }
}

/// Iterator over the signs of a [`GradientDirection`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    dir: &'a GradientDirection,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = i8;

    fn next(&mut self) -> Option<i8> {
        if self.pos >= self.dir.len() {
            return None;
        }
        let s = self.dir.sign(self.pos);
        self.pos += 1;
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dir.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a GradientDirection {
    type Item = i8;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<i8> for GradientDirection {
    /// Collects signs into the packed representation.
    ///
    /// # Panics
    ///
    /// Panics if any element is outside `{-1, 0, 1}`.
    fn from_iter<I: IntoIterator<Item = i8>>(iter: I) -> Self {
        let signs: Vec<i8> = iter.into_iter().collect();
        GradientDirection::from_signs(&signs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_sign_patterns() {
        let signs: Vec<i8> = vec![1, -1, 0, 1, 1, 0, -1, -1, 0];
        let d = GradientDirection::from_signs(&signs);
        assert_eq!(d.to_signs(), signs);
        assert_eq!(d.len(), 9);
        assert_eq!(d.byte_size(), 3);
    }

    #[test]
    fn quantize_applies_dead_zone() {
        let d = GradientDirection::quantize(&[2e-6, -2e-6, 5e-7, -5e-7], 1e-6);
        assert_eq!(d.to_signs(), vec![1, -1, 0, 0]);
        let d = GradientDirection::quantize(&[0.5, -0.5, 1e-7, -1e-7, 0.0], 1e-6);
        assert_eq!(d.to_signs(), vec![1, -1, 0, 0, 0]);
    }

    #[test]
    fn quantize_with_zero_delta_is_plain_sign() {
        let d = GradientDirection::quantize(&[2.0, -3.0, 0.0, -0.0], 0.0);
        assert_eq!(d.to_signs(), vec![1, -1, 0, 0]);
    }

    #[test]
    fn quantize_maps_nan_to_zero() {
        let d = GradientDirection::quantize(&[f32::NAN, -f32::NAN, 1.0], 0.0);
        assert_eq!(d.to_signs(), vec![0, 0, 1]);
    }

    #[test]
    fn to_f32_matches_signs() {
        let d = GradientDirection::from_signs(&[1, 0, -1]);
        assert_eq!(d.to_f32(), vec![1.0, 0.0, -1.0]);
    }

    #[test]
    fn savings_is_about_94_percent() {
        let grad = vec![0.1f32; 10_000];
        let d = GradientDirection::quantize(&grad, 1e-6);
        assert_eq!(d.byte_size(), 2500);
        assert_eq!(d.full_f32_byte_size(), 40_000);
        assert!((d.savings_ratio() - 0.9375).abs() < 1e-9);
    }

    #[test]
    fn empty_vector_is_fine() {
        let d = GradientDirection::quantize(&[], 0.0);
        assert!(d.is_empty());
        assert_eq!(d.byte_size(), 0);
        assert_eq!(d.savings_ratio(), 0.0);
        assert_eq!(d.sparsity(), 0.0);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let d = GradientDirection::from_signs(&[0, 0, 1, -1]);
        assert!((d.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid sign")]
    fn rejects_invalid_sign() {
        let _ = GradientDirection::from_signs(&[2]);
    }

    #[test]
    fn iterator_roundtrip_and_hints() {
        let signs = vec![1i8, -1, 0, 1, 0];
        let d: GradientDirection = signs.iter().copied().collect();
        assert_eq!(d.iter().collect::<Vec<i8>>(), signs);
        assert_eq!(d.iter().len(), 5);
        let mut it = d.iter();
        it.next();
        assert_eq!(it.size_hint(), (4, Some(4)));
        // &d into_iter sugar.
        let total: i8 = (&d).into_iter().sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn lut_agrees_with_scalar_decode_for_every_byte() {
        // Exhaustive: every possible packed byte, every lane, including the
        // never-written 0b11 code (decodes defensively to 0 on both paths).
        for byte in 0u8..=255 {
            let d = GradientDirection {
                len: 4,
                packed: vec![byte],
            };
            for lane in 0..4 {
                assert_eq!(
                    SIGN_LUT[byte as usize][lane],
                    d.sign(lane),
                    "byte {byte:#010b}"
                );
                assert_eq!(
                    F32_LUT[byte as usize][lane].to_bits(),
                    f32::from(d.sign(lane)).to_bits(),
                    "byte {byte:#010b}"
                );
            }
        }
    }

    #[test]
    fn decode_into_matches_scalar_at_all_tail_lengths() {
        for n in 0..=17usize {
            let signs: Vec<i8> = (0..n).map(|i| [1i8, -1, 0, 0, 1][i % 5]).collect();
            let d = GradientDirection::from_signs(&signs);
            let mut out = vec![7.0f32; n]; // poisoned: every slot must be written
            d.decode_into(&mut out);
            let scalar: Vec<f32> = (0..n).map(|i| f32::from(d.sign(i))).collect();
            assert_eq!(out, scalar, "n={n}");
            assert_eq!(d.to_f32(), scalar, "n={n}");
        }
    }

    #[test]
    fn decode_axpy_matches_scalar_accumulation_bitwise() {
        for n in [0usize, 3, 4, 7, 12, 31] {
            let signs: Vec<i8> = (0..n).map(|i| [0i8, 1, -1][i % 3]).collect();
            let d = GradientDirection::from_signs(&signs);
            let w = 2.375f64;
            let mut acc: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 1.0).collect();
            let mut scalar = acc.clone();
            d.decode_axpy(w, &mut acc);
            for (slot, s) in scalar.iter_mut().zip(d.to_signs()) {
                *slot += w * f64::from(s);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&acc), bits(&scalar), "n={n}");
        }
    }

    #[test]
    fn non_multiple_of_four_lengths() {
        for n in 1..=9usize {
            let signs: Vec<i8> = (0..n).map(|i| [1i8, -1, 0][i % 3]).collect();
            let d = GradientDirection::from_signs(&signs);
            assert_eq!(d.to_signs(), signs, "roundtrip failed for n={n}");
            assert_eq!(d.byte_size(), n.div_ceil(4));
        }
    }
}
