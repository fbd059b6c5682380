//! Crafted history blobs that must decode to a typed error.
//!
//! `fuiov info` and `fuiov unlearn --history` hand a file's bytes straight
//! to `decode_history`, so a damaged or hostile file must come back as a
//! [`HistoryDecodeError`]: never an index panic, a dimension-check panic
//! inside the store, or an allocation the remaining bytes cannot back.

use fuiov_storage::serialize::{decode_history, encode_history, HistoryDecodeError};
use fuiov_storage::HistoryStore;

/// Builds a blob field by field in the encoder's layout (little-endian).
struct Blob(Vec<u8>);

impl Blob {
    /// Magic, version 1 and δ.
    fn header(delta: f32) -> Self {
        let mut b = Blob(Vec::new());
        b.u32(0x4655_4853).u16(1).f32(delta);
        b
    }
    fn u16(&mut self, v: u16) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn f32(&mut self, v: f32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.0.extend_from_slice(v);
        self
    }
    /// One model record: round, length, values.
    fn model(&mut self, round: u64, params: &[f32]) -> &mut Self {
        self.u64(round).u32(params.len() as u32);
        for &p in params {
            self.f32(p);
        }
        self
    }
    /// One direction record with explicit length and byte-count fields.
    fn direction(&mut self, round: u64, client: u64, len: u32, packed: &[u8]) -> &mut Self {
        self.u64(round)
            .u64(client)
            .u32(len)
            .u32(packed.len() as u32)
            .bytes(packed)
    }
}

#[test]
fn the_crafted_layout_matches_the_encoder() {
    let mut h = HistoryStore::new(0.25);
    h.record_model(0, vec![1.0, -2.0, 0.5]);
    h.record_join(4, 0);
    h.set_weight(4, 8.0);
    h.record_gradient(0, 4, &[1.0, -1.0, 0.0]);
    let mut b = Blob::header(0.25);
    b.u32(1).model(0, &[1.0, -2.0, 0.5]);
    // Signs +1, −1, 0 pack as 01, 10, 00 from the low bits up.
    b.u32(1).direction(0, 4, 3, &[0b00_10_01]);
    b.u32(1).u64(4).u64(0).bytes(&[0]).f32(8.0);
    assert_eq!(b.0, encode_history(&h).to_vec());
}

#[test]
fn a_direction_longer_than_its_bytes_is_an_error() {
    // 40 elements need 10 packed bytes; the record carries 2.
    let mut b = Blob::header(1e-6);
    b.u32(1).model(0, &[0.0; 40]);
    b.u32(1).direction(0, 1, 40, &[0xFF, 0xFF]);
    b.u32(0);
    assert!(matches!(
        decode_history(&b.0),
        Err(HistoryDecodeError::Inconsistent(_))
    ));
}

#[test]
fn a_direction_with_surplus_bytes_is_an_error() {
    let mut b = Blob::header(1e-6);
    b.u32(1).model(0, &[0.0; 4]);
    b.u32(1).direction(0, 1, 4, &[0b01, 0]);
    b.u32(0);
    assert!(matches!(
        decode_history(&b.0),
        Err(HistoryDecodeError::Inconsistent(_))
    ));
}

#[test]
fn a_huge_direction_count_reserves_nothing_it_cannot_read() {
    // u32::MAX records would ask for ~172 GB up front; the blob holds
    // none of them, so decoding must stop at the first missing record.
    let mut b = Blob::header(1e-6);
    b.u32(0);
    b.u32(u32::MAX);
    assert_eq!(
        decode_history(&b.0).unwrap_err(),
        HistoryDecodeError::Truncated
    );
}

#[test]
fn models_of_different_lengths_are_an_error() {
    let mut b = Blob::header(1e-6);
    b.u32(2).model(0, &[1.0, 2.0, 3.0]).model(1, &[1.0, 2.0]);
    b.u32(0).u32(0);
    assert!(matches!(
        decode_history(&b.0),
        Err(HistoryDecodeError::Inconsistent(_))
    ));
}

#[test]
fn a_direction_of_another_length_than_the_models_is_an_error() {
    let mut b = Blob::header(1e-6);
    b.u32(1).model(0, &[1.0, 2.0, 3.0]);
    b.u32(1).direction(0, 1, 5, &[0, 0]);
    b.u32(0);
    assert!(matches!(
        decode_history(&b.0),
        Err(HistoryDecodeError::Inconsistent(_))
    ));
}

#[test]
fn directions_of_different_lengths_are_an_error() {
    // No models: the first direction sets the dimension.
    let mut b = Blob::header(1e-6);
    b.u32(0);
    b.u32(2)
        .direction(0, 1, 4, &[0b01])
        .direction(0, 2, 8, &[0b01, 0]);
    b.u32(0);
    assert!(matches!(
        decode_history(&b.0),
        Err(HistoryDecodeError::Inconsistent(_))
    ));
}

#[test]
fn a_negative_or_nan_delta_is_an_error() {
    for delta in [-1.0, f32::NAN] {
        let mut b = Blob::header(delta);
        b.u32(0).u32(0).u32(0);
        assert!(matches!(
            decode_history(&b.0),
            Err(HistoryDecodeError::Inconsistent(_))
        ));
    }
}

#[test]
fn errors_name_the_inconsistency() {
    let err = HistoryDecodeError::Inconsistent("dimension mismatch");
    assert_eq!(err.to_string(), "inconsistent history: dimension mismatch");
}
