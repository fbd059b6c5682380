//! Lossless delta coding of `f32` checkpoint vectors.
//!
//! Between two keyframes the global model moves slowly, so consecutive
//! checkpoints agree in their high bits. This module encodes a round's
//! model as the element-wise difference from a *base* round, varint
//! (LEB128) compressed after zigzag mapping — and reconstructs the
//! original **bit for bit**, which is what lets the tiered
//! [`HistoryStore`](crate::history::HistoryStore) keep replay bitwise
//! identical to the flat in-memory store.
//!
//! The difference is taken in a *totally ordered* integer image of the
//! `f32` bit pattern (sign-magnitude folded so that the integer order
//! matches numeric order). Nearby floats map to nearby integers, so
//! small parameter movement yields small deltas and short varints; the
//! mapping is a bijection, so the inverse transform is exact for every
//! bit pattern including `-0.0` and NaN payloads.
//!
//! Encode and decode are each one scalar loop, with no SIMD dispatch:
//! spilled model deltas are mostly 2- and 3-byte varints, which an
//! 8-wide fast path over uniform 1- or 2-byte groups does not speed up
//! (DESIGN.md §5, *SIMD dispatch & the determinism boundary*).

/// Maps `f32` bits to a totally ordered `u32`: numeric order of the
/// floats (with `-0.0 < +0.0`) becomes unsigned integer order.
#[inline]
pub fn to_ordered(bits: u32) -> u32 {
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`to_ordered`].
#[inline]
pub fn from_ordered(ord: u32) -> u32 {
    if ord & 0x8000_0000 != 0 {
        ord & 0x7FFF_FFFF
    } else {
        !ord
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The zigzag-mapped difference of `cur` from `base` in the ordered
/// image: the value one varint carries.
#[inline]
fn zigzag_delta(base: f32, cur: f32) -> u64 {
    zigzag(i64::from(to_ordered(cur.to_bits())) - i64::from(to_ordered(base.to_bits())))
}

/// Bytes the LEB128 encoding of `v` occupies (1..=10), from the bit
/// width alone.
#[inline]
fn varint_len(v: u64) -> usize {
    ((64 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Appends `v` as a LEB128 varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint, advancing `buf`. `None` on truncation or a
/// varint longer than 10 bytes.
#[inline]
fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in 0..10 {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        v |= u64::from(byte & 0x7F) << (shift * 7);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Exact number of bytes [`encode`] will append for this pair: one
/// varint length per element, read off the zigzag magnitude's bit width.
/// One cheap integer pass, so [`encode`] can reserve its full output up
/// front instead of growing the buffer through repeated reallocation.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn encoded_len(base: &[f32], cur: &[f32]) -> usize {
    assert_eq!(base.len(), cur.len(), "delta::encoded_len: length mismatch");
    base.iter()
        .zip(cur)
        .map(|(&b, &c)| varint_len(zigzag_delta(b, c)))
        .sum()
}

/// Encodes `cur` as zigzag-varint deltas against `base`, appending to
/// `out`. The full output capacity is reserved up front (one sizing pass
/// over the bit widths, see [`encoded_len`]), then each element appends
/// its one canonical LEB128 varint.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn encode(base: &[f32], cur: &[f32], out: &mut Vec<u8>) {
    assert_eq!(base.len(), cur.len(), "delta::encode: length mismatch");
    out.reserve(encoded_len(base, cur));
    for (&b, &c) in base.iter().zip(cur) {
        put_varint(out, zigzag_delta(b, c));
    }
}

/// Decodes one element against `base_elem`, advancing `bytes`. `None` on
/// truncation, a varint longer than 10 bytes, or an out-of-range delta.
#[inline]
fn decode_one(base_elem: f32, bytes: &mut &[u8]) -> Option<f32> {
    let d = unzigzag(get_varint(bytes)?);
    let ord = i64::from(to_ordered(base_elem.to_bits())) + d;
    let ord = u32::try_from(ord).ok()?;
    Some(f32::from_bits(from_ordered(ord)))
}

/// Decodes `len` delta-coded elements against `base` (exact inverse of
/// [`encode`]). Returns `None` on a base of another length, truncation, a
/// varint longer than 10 bytes, an out-of-range delta, or trailing bytes
/// — never panics on malformed input.
pub fn decode(base: &[f32], mut bytes: &[u8], len: usize) -> Option<Vec<f32>> {
    if base.len() != len {
        return None;
    }
    let mut out = Vec::with_capacity(len);
    for &b in base {
        out.push(decode_one(b, &mut bytes)?);
    }
    bytes.is_empty().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_mapping_is_a_monotone_bijection() {
        let samples = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e-30,
            -1e-30,
            f32::NAN,
        ];
        for &v in &samples {
            let bits = v.to_bits();
            assert_eq!(from_ordered(to_ordered(bits)), bits, "{v}");
        }
        // Numeric order ↦ unsigned order (finite values; total_cmp also
        // puts -0.0 below +0.0, matching the mapping).
        let mut finite: Vec<f32> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        finite.sort_by(f32::total_cmp);
        let mapped: Vec<u32> = finite.iter().map(|v| to_ordered(v.to_bits())).collect();
        let mut sorted = mapped.clone();
        sorted.sort_unstable();
        assert_eq!(mapped, sorted);
        // -0.0 maps strictly below +0.0.
        assert!(to_ordered((-0.0f32).to_bits()) < to_ordered(0.0f32.to_bits()));
    }

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(get_varint(&mut s), Some(v));
            assert!(s.is_empty());
        }
        let mut s: &[u8] = &[0x80, 0x80]; // truncated continuation
        assert_eq!(get_varint(&mut s), None);
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let base = vec![0.5f32, -0.25, 0.0, -0.0, 1e-8, 1000.0, f32::NAN];
        let cur = vec![0.50001f32, -0.26, -0.0, 0.0, -1e-8, 999.5, 3.25];
        let mut buf = Vec::new();
        encode(&base, &cur, &mut buf);
        let back = decode(&base, &buf, cur.len()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&back), bits(&cur));
    }

    #[test]
    fn small_movement_compresses_below_f32() {
        // A realistic SGD step: every parameter moves by ~1e-4 relative.
        let base: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        let cur: Vec<f32> = base.iter().map(|v| v - 1e-4 * v).collect();
        let mut buf = Vec::new();
        encode(&base, &cur, &mut buf);
        assert!(
            buf.len() < cur.len() * 4,
            "delta stream ({} B) should beat raw f32 ({} B)",
            buf.len(),
            cur.len() * 4
        );
        let back = decode(&base, &buf, cur.len()).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            cur.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let base = vec![1.0f32; 8];
        let cur = vec![1.25f32; 8];
        let mut buf = Vec::new();
        encode(&base, &cur, &mut buf);
        assert!(decode(&base, &buf[..buf.len() - 1], 8).is_none());
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode(&base, &extended, 8).is_none());
        assert!(
            decode(&base[..4], &buf, 8).is_none(),
            "base length mismatch"
        );
    }

    #[test]
    fn empty_vectors_encode_to_nothing() {
        let mut buf = Vec::new();
        encode(&[], &[], &mut buf);
        assert!(buf.is_empty());
        assert_eq!(decode(&[], &buf, 0), Some(Vec::new()));
    }

    #[test]
    fn encoded_len_is_exact_and_reserved_up_front() {
        let base: Vec<f32> = (0..300).map(|i| (i as f32).cos()).collect();
        // Mixed magnitudes: tiny deltas (1-byte varints) and huge ones.
        let cur: Vec<f32> = base
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 7 == 0 {
                    -v * 1e20
                } else {
                    v * (1.0 + 1e-6)
                }
            })
            .collect();
        let predicted = encoded_len(&base, &cur);
        let mut buf = Vec::new();
        encode(&base, &cur, &mut buf);
        assert_eq!(buf.len(), predicted);
        // The single up-front reserve covered the whole stream.
        assert!(buf.capacity() >= predicted);
    }

    #[test]
    fn decode_returns_none_on_length_overflow_without_panicking() {
        // A delta that pushes the ordered image past u32::MAX from the
        // very top of the range: the error path must be `None`, never a
        // panic or a wrapped bit pattern.
        let top = f32::from_bits(0x7FFF_FFFF); // ordered image == u32::MAX
        let mut buf = Vec::new();
        put_varint(&mut buf, zigzag(1));
        assert_eq!(decode(&[top], &buf, 1), None);
        // The same overflow after seven in-range elements: no partial
        // model comes back.
        let mut base8 = [1.0f32; 8];
        base8[7] = top;
        let buf8 = vec![zigzag(1) as u8; 8];
        assert_eq!(decode(&base8, &buf8, 8), None);
        // Underflow off the bottom of the range, mid-stream.
        let bottom = f32::from_bits(0xFFFF_FFFF); // ordered image == 0
        let mut base_lo = [1.0f32; 8];
        base_lo[3] = bottom;
        let buf_lo = vec![zigzag(-1) as u8; 8];
        assert_eq!(decode(&base_lo, &buf_lo, 8), None);
        // An over-long varint (11 continuation-heavy bytes) is malformed.
        let long = vec![0x80u8; 11];
        assert_eq!(decode(&[0.0], &long, 1), None);
        // Element-count mismatch against the base.
        assert_eq!(decode(&[0.0, 1.0], &[0, 0], 1), None);
    }

    #[test]
    fn mixed_varint_widths_roundtrip() {
        // Zero, one-ulp and huge deltas interleaved give 1- and 5-byte
        // varints side by side; every prefix length 0..=67 must encode to
        // its predicted size and decode bit for bit.
        let base: Vec<f32> = (0..67).map(|i| (i as f32) * 0.125 - 4.0).collect();
        let cur: Vec<f32> = base
            .iter()
            .enumerate()
            .map(|(i, v)| match i % 9 {
                0 => v * -3.0e10,
                1..=4 => f32::from_bits(v.to_bits() ^ 1),
                _ => *v,
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for n in 0..=base.len() {
            let mut buf = Vec::new();
            encode(&base[..n], &cur[..n], &mut buf);
            assert_eq!(buf.len(), encoded_len(&base[..n], &cur[..n]), "n={n}");
            let back = decode(&base[..n], &buf, n).unwrap();
            assert_eq!(bits(&back), bits(&cur[..n]), "n={n}");
        }
    }
}
