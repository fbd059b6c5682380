//! Exhaustive decode-error coverage for model checkpoints: one sealed
//! FUSG keyframe record.
//!
//! The fault-injection harness (`fuiov-testkit`) corrupts checkpoints at
//! arbitrary byte positions; these tests pin the contract it relies on:
//! *every* strict prefix is `Truncated`, any magic perturbation is
//! `BadMagic`, any version perturbation is `BadVersion`, a flipped payload
//! bit is `BadChecksum`, and round-trips are bit-exact for empty through
//! large vectors.

use fuiov_storage::segment::{
    decode_keyframe, encode_history, encode_keyframe, reseal, SegmentDecodeError, HEADER_LEN,
    MAGIC, TRAILER_LEN,
};
use fuiov_storage::HistoryStore;

/// Record framing plus the `u32` element count.
const OVERHEAD: usize = HEADER_LEN + 4 + TRAILER_LEN;

#[test]
fn every_strict_prefix_is_truncated() {
    for params in [vec![], vec![1.0f32], vec![0.5, -0.5, 2.0]] {
        let blob = encode_keyframe(4, &params);
        assert_eq!(blob.len(), OVERHEAD + 4 * params.len());
        for cut in 0..blob.len() {
            assert_eq!(
                decode_keyframe(&blob[..cut]),
                Err(SegmentDecodeError::Truncated),
                "prefix of {cut}/{} bytes must be Truncated",
                blob.len()
            );
        }
        // The full record still decodes.
        assert_eq!(decode_keyframe(&blob).unwrap(), (4, params));
    }
}

#[test]
fn any_magic_byte_flip_is_bad_magic() {
    let blob = encode_keyframe(0, &[1.0, 2.0]);
    for byte in 0..4 {
        for bit in 0..8 {
            let mut m = blob.clone();
            m[byte] ^= 1 << bit;
            match decode_keyframe(&m) {
                Err(SegmentDecodeError::BadMagic(got)) => {
                    assert_ne!(got, MAGIC, "reported magic must be the corrupted one");
                }
                other => panic!("magic byte {byte} bit {bit}: expected BadMagic, got {other:?}"),
            }
        }
    }
}

#[test]
fn any_version_change_is_bad_version() {
    let blob = encode_keyframe(0, &[1.0]);
    for v in [0u16, 2, 3, 0x00FF, 0xFF00, u16::MAX] {
        let mut m = blob.clone();
        m[4..6].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            decode_keyframe(&m),
            Err(SegmentDecodeError::BadVersion(v)),
            "version {v}"
        );
    }
    // Version 1 (the current one) still decodes.
    assert_eq!(decode_keyframe(&blob).unwrap(), (0, vec![1.0]));
}

#[test]
fn magic_is_checked_before_version_and_length() {
    // A record corrupt in *both* magic and version reports BadMagic: the
    // decoder validates outside-in, so corruption diagnostics are stable.
    let mut m = encode_keyframe(0, &[1.0]);
    m[0] ^= 0xFF;
    m[4] = 99;
    assert!(matches!(
        decode_keyframe(&m),
        Err(SegmentDecodeError::BadMagic(_))
    ));
}

#[test]
fn declared_length_longer_than_payload_is_truncated() {
    let mut m = encode_keyframe(0, &[1.0, 2.0]);
    // Inflate the declared element count without adding payload, and
    // reseal so the checksum does not catch it first.
    m[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut m);
    assert_eq!(decode_keyframe(&m), Err(SegmentDecodeError::Truncated));
}

#[test]
fn any_payload_bit_flip_is_bad_checksum() {
    let blob = encode_keyframe(2, &[4.25, -1.5]);
    for byte in HEADER_LEN..blob.len() {
        for bit in 0..8 {
            let mut m = blob.clone();
            m[byte] ^= 1 << bit;
            assert!(
                matches!(
                    decode_keyframe(&m),
                    Err(SegmentDecodeError::BadChecksum { .. })
                ),
                "byte {byte} bit {bit}"
            );
        }
    }
}

#[test]
fn a_history_file_is_not_a_checkpoint() {
    let roster = encode_history(&HistoryStore::new(0.5)).unwrap();
    assert_eq!(
        decode_keyframe(&roster),
        Err(SegmentDecodeError::BadKind(12))
    );
}

#[test]
fn empty_vector_roundtrips() {
    let blob = encode_keyframe(0, &[]);
    assert_eq!(blob.len(), OVERHEAD);
    assert_eq!(decode_keyframe(&blob).unwrap(), (0, Vec::new()));
}

#[test]
fn large_vector_roundtrips_bit_exactly() {
    // 10k elements spanning magnitudes, signed zero and subnormals.
    let params: Vec<f32> = (0..10_000)
        .map(|i| match i % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 2.0, // subnormal
            3 => -(i as f32) * 1e30,
            4 => (i as f32).sqrt(),
            5 => -1.0 / (i as f32 + 1.0),
            _ => i as f32,
        })
        .collect();
    let (round, decoded) = decode_keyframe(&encode_keyframe(99, &params)).unwrap();
    assert_eq!(round, 99);
    assert_eq!(decoded.len(), params.len());
    for (i, (a, b)) in params.iter().zip(&decoded).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i} changed bits");
    }
}

#[test]
fn non_finite_values_roundtrip_by_bits() {
    let params = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
    let (_, decoded) = decode_keyframe(&encode_keyframe(0, &params)).unwrap();
    for (a, b) in params.iter().zip(&decoded) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn trailing_garbage_after_the_record_is_not_read() {
    // The record is length-prefixed and sealed; decode reads exactly what
    // the header declares. Extra bytes after the trailer do not corrupt
    // the result (a reader over a larger buffer sees the same params).
    let mut m = encode_keyframe(1, &[4.25]);
    m.extend_from_slice(&[0xAB, 0xCD]);
    assert_eq!(decode_keyframe(&m).unwrap(), (1, vec![4.25]));
}
