//! Binary serialisation of the training history.
//!
//! An RSU must survive restarts without losing the record that makes
//! unlearning possible. This module gives [`HistoryStore`] a compact,
//! versioned binary encoding: models as little-endian `f32`, gradient
//! directions in their packed 2-bit form (so the on-disk format keeps the
//! paper's storage savings).

use crate::direction::GradientDirection;
use crate::history::{DirectionRef, HistoryStore, Participation};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

const MAGIC: u32 = 0x4655_4853; // "FUHS"
const VERSION: u16 = 1;

/// Error decoding a serialised history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryDecodeError {
    /// Buffer ended before the declared contents.
    Truncated,
    /// Magic mismatch — not a FUIOV history blob.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
    /// A field contradicts the format or an earlier field: a negative or
    /// NaN δ, a direction whose byte count is not `⌈len / 4⌉`, or a model
    /// or direction whose length differs from the first one's.
    Inconsistent(&'static str),
}

impl fmt::Display for HistoryDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryDecodeError::Truncated => write!(f, "history blob truncated"),
            HistoryDecodeError::BadMagic(m) => write!(f, "bad history magic {m:#010x}"),
            HistoryDecodeError::BadVersion(v) => write!(f, "unsupported history version {v}"),
            HistoryDecodeError::Inconsistent(what) => write!(f, "inconsistent history: {what}"),
        }
    }
}

impl Error for HistoryDecodeError {}

/// Smallest encoded direction record: round, client, length and byte
/// count, with no packed bytes.
const MIN_DIRECTION_RECORD: usize = 24;

fn need(buf: &[u8], n: usize) -> Result<(), HistoryDecodeError> {
    if buf.len() < n {
        Err(HistoryDecodeError::Truncated)
    } else {
        Ok(())
    }
}

/// Checks that a model or direction has the dimension of the first one
/// read, which the store would otherwise enforce with a panic.
fn check_dim(dim: &mut Option<usize>, len: usize) -> Result<(), HistoryDecodeError> {
    if *dim.get_or_insert(len) == len {
        Ok(())
    } else {
        Err(HistoryDecodeError::Inconsistent("dimension mismatch"))
    }
}

/// Serialises a history store to a self-describing byte buffer.
///
/// ```
/// use fuiov_storage::{HistoryStore, serialize};
///
/// let mut h = HistoryStore::new(1e-6);
/// h.record_model(0, vec![1.0, 2.0]);
/// h.record_join(3, 0);
/// h.record_gradient(0, 3, &[0.5, -0.5]);
/// let blob = serialize::encode_history(&h);
/// let back = serialize::decode_history(&blob)?;
/// assert_eq!(back.model(0), h.model(0));
/// assert_eq!(back.direction(0, 3), h.direction(0, 3));
/// # Ok::<(), fuiov_storage::serialize::HistoryDecodeError>(())
/// ```
pub fn encode_history(h: &HistoryStore) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_f32_le(h.delta());

    // Models.
    let rounds = h.rounds();
    buf.put_u32_le(rounds.len() as u32);
    for r in &rounds {
        let m = h.model(*r).expect("round listed");
        buf.put_u64_le(*r as u64);
        buf.put_u32_le(m.len() as u32);
        for v in m.iter() {
            buf.put_f32_le(*v);
        }
    }

    // Directions (packed form, per round × client).
    let mut entries: Vec<(usize, usize, DirectionRef)> = Vec::new();
    for r in &rounds {
        for c in h.clients_in_round(*r) {
            if let Some(d) = h.direction(*r, c) {
                entries.push((*r, c, d));
            }
        }
    }
    buf.put_u32_le(entries.len() as u32);
    for (r, c, d) in entries {
        buf.put_u64_le(r as u64);
        buf.put_u64_le(c as u64);
        buf.put_u32_le(d.len() as u32);
        let signs = d.to_signs();
        // Re-pack through the canonical constructor to stay format-stable.
        let packed = GradientDirection::from_signs(&signs);
        buf.put_u32_le(packed.byte_size() as u32);
        buf.put_slice(&packed_bytes(&packed, &signs));
    }

    // Participation + weights.
    let clients = h.clients();
    buf.put_u32_le(clients.len() as u32);
    for c in clients {
        let p = h.participation(c).expect("client listed");
        buf.put_u64_le(c as u64);
        buf.put_u64_le(p.joined as u64);
        match p.left {
            Some(l) => {
                buf.put_u8(1);
                buf.put_u64_le(l as u64);
            }
            None => buf.put_u8(0),
        }
        buf.put_f32_le(h.weight(c));
    }

    buf.freeze()
}

/// The 2-bit packed byte image of a direction vector.
fn packed_bytes(_d: &GradientDirection, signs: &[i8]) -> Vec<u8> {
    // The packing layout is an implementation detail of `direction`; we
    // re-derive it here from the public sign interface so the wire format
    // is defined by this module alone: 2 bits/element, 4 per byte,
    // little-bit-endian, 00=0 01=+1 10=−1.
    let mut out = vec![0u8; signs.len().div_ceil(4)];
    for (i, &s) in signs.iter().enumerate() {
        let code: u8 = match s {
            0 => 0b00,
            1 => 0b01,
            -1 => 0b10,
            other => unreachable!("invalid sign {other}"),
        };
        out[i / 4] |= code << ((i % 4) * 2);
    }
    out
}

fn unpack_bytes(bytes: &[u8], len: usize) -> Vec<i8> {
    (0..len)
        .map(|i| match (bytes[i / 4] >> ((i % 4) * 2)) & 0b11 {
            0b00 => 0,
            0b01 => 1,
            0b10 => -1,
            _ => 0,
        })
        .collect()
}

/// Decodes a history serialised by [`encode_history`].
///
/// # Errors
///
/// Returns [`HistoryDecodeError`] on truncation, bad magic or version, or
/// inconsistent fields. No input makes it panic, and it never reserves
/// more memory than the remaining bytes can fill.
pub fn decode_history(mut buf: &[u8]) -> Result<HistoryStore, HistoryDecodeError> {
    need(buf, 10)?;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(HistoryDecodeError::BadMagic(magic));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(HistoryDecodeError::BadVersion(version));
    }
    let delta = buf.get_f32_le();
    if delta.is_nan() || delta < 0.0 {
        return Err(HistoryDecodeError::Inconsistent("negative or NaN delta"));
    }
    let mut h = HistoryStore::new(delta);
    let mut dim = None;

    need(buf, 4)?;
    let n_models = buf.get_u32_le() as usize;
    for _ in 0..n_models {
        need(buf, 12)?;
        let round = buf.get_u64_le() as usize;
        let len = buf.get_u32_le() as usize;
        need(buf, len * 4)?;
        check_dim(&mut dim, len)?;
        let params: Vec<f32> = (0..len).map(|_| buf.get_f32_le()).collect();
        h.record_model(round, params);
    }

    need(buf, 4)?;
    let n_dirs = buf.get_u32_le() as usize;
    let mut raw_dirs: Vec<(usize, usize, Vec<i8>)> =
        Vec::with_capacity(n_dirs.min(buf.len() / MIN_DIRECTION_RECORD));
    for _ in 0..n_dirs {
        need(buf, MIN_DIRECTION_RECORD)?;
        let round = buf.get_u64_le() as usize;
        let client = buf.get_u64_le() as usize;
        let len = buf.get_u32_le() as usize;
        let nbytes = buf.get_u32_le() as usize;
        if nbytes != len.div_ceil(4) {
            return Err(HistoryDecodeError::Inconsistent("direction byte count"));
        }
        need(buf, nbytes)?;
        check_dim(&mut dim, len)?;
        let bytes = &buf[..nbytes];
        let signs = unpack_bytes(bytes, len);
        buf.advance(nbytes);
        raw_dirs.push((round, client, signs));
    }

    need(buf, 4)?;
    let n_clients = buf.get_u32_le() as usize;
    for _ in 0..n_clients {
        need(buf, 17)?;
        let client = buf.get_u64_le() as usize;
        let joined = buf.get_u64_le() as usize;
        let has_left = buf.get_u8() == 1;
        h.record_join(client, joined);
        if has_left {
            need(buf, 8)?;
            let left = buf.get_u64_le() as usize;
            h.record_leave(client, left);
        }
        need(buf, 4)?;
        let weight = buf.get_f32_le();
        if weight > 0.0 && weight.is_finite() {
            h.set_weight(client, weight);
        }
    }

    // Record directions after participation so join rounds reflect the
    // recorded participation, not first-gradient order. Signs are restored
    // verbatim (no re-quantisation), so any δ round-trips losslessly.
    for (round, client, signs) in raw_dirs {
        h.record_direction(round, client, GradientDirection::from_signs(&signs));
    }

    Ok(h)
}

/// Round-trip description of a participation record, used by tests and
/// diagnostics.
pub fn participation_summary(p: Participation) -> String {
    match p.left {
        Some(l) => format!("joined {} left {}", p.joined, l),
        None => format!("joined {}", p.joined),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_history() -> HistoryStore {
        let mut h = HistoryStore::new(1e-6);
        h.record_model(0, vec![0.0, 1.0, -1.0]);
        h.record_model(1, vec![0.5, 0.5, 0.5]);
        h.record_join(2, 0);
        h.record_join(7, 1);
        h.record_leave(7, 1);
        h.set_weight(2, 30.0);
        h.record_gradient(0, 2, &[0.5, -0.5, 0.0]);
        h.record_gradient(1, 2, &[0.1, 0.0, -0.1]);
        h.record_gradient(1, 7, &[-0.3, 0.3, 0.0]);
        h
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let h = sample_history();
        let blob = encode_history(&h);
        let back = decode_history(&blob).unwrap();
        assert_eq!(back.delta(), h.delta());
        assert_eq!(back.rounds(), h.rounds());
        for r in h.rounds() {
            assert_eq!(back.model(r), h.model(r));
        }
        assert_eq!(back.clients(), h.clients());
        for c in h.clients() {
            assert_eq!(back.participation(c), h.participation(c));
            assert_eq!(back.weight(c), h.weight(c));
        }
        assert_eq!(
            back.direction(1, 7).unwrap().to_signs(),
            h.direction(1, 7).unwrap().to_signs()
        );
        assert_eq!(back.direction_bytes(), h.direction_bytes());
    }

    #[test]
    fn empty_history_roundtrips() {
        let h = HistoryStore::new(0.5);
        let back = decode_history(&encode_history(&h)).unwrap();
        assert_eq!(back.delta(), 0.5);
        assert!(back.rounds().is_empty());
        assert!(back.clients().is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            decode_history(&[1, 2, 3]).unwrap_err(),
            HistoryDecodeError::Truncated
        );
        let mut blob = encode_history(&sample_history()).to_vec();
        blob[0] ^= 0xFF;
        assert!(matches!(
            decode_history(&blob),
            Err(HistoryDecodeError::BadMagic(_))
        ));
        let mut blob2 = encode_history(&sample_history()).to_vec();
        blob2[4] = 0xEE;
        assert!(matches!(
            decode_history(&blob2),
            Err(HistoryDecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let blob = encode_history(&sample_history());
        for cut in [5usize, 11, 20, blob.len() - 1] {
            assert_eq!(
                decode_history(&blob[..cut]).unwrap_err(),
                HistoryDecodeError::Truncated,
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn participation_summary_formats() {
        assert_eq!(
            participation_summary(Participation {
                joined: 3,
                left: None
            }),
            "joined 3"
        );
        assert_eq!(
            participation_summary(Participation {
                joined: 3,
                left: Some(9)
            }),
            "joined 3 left 9"
        );
    }
}
