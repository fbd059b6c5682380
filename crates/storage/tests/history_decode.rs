//! Crafted history files that must decode to a typed error.
//!
//! `fuiov info` and `fuiov unlearn --history` hand a file's bytes straight
//! to `decode_history`, so a damaged or hostile file must come back as a
//! [`SegmentDecodeError`]: never an index panic, a dimension-check panic
//! inside the store, an allocation the remaining bytes cannot back, or a
//! different history than the one that was written.
//!
//! The crafted records are sealed with a valid checksum, so each case
//! reaches the check it is about instead of failing on the trailer.

use fuiov_storage::segment::{
    self, decode_history, encode_history, SegmentDecodeError, HEADER_LEN, TRAILER_LEN,
};
use fuiov_storage::{GradientDirection, HistoryStore, TierConfig};

const KEYFRAME: u8 = 1;
const DELTA: u8 = 2;
const DIRECTIONS: u8 = 3;
const ROSTER: u8 = 12;
/// Leave round of a client that is still active.
const ACTIVE: u64 = u64::MAX;

/// Builds a record stream field by field in the encoder's layout
/// (little-endian), sealing each record with the FNV-1a trailer.
#[derive(Default)]
struct Stream(Vec<u8>);

/// A payload under construction.
#[derive(Default)]
struct Payload(Vec<u8>);

impl Payload {
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
}

impl Stream {
    /// One sealed record: header, payload, checksum.
    fn record(&mut self, kind: u8, round: u64, base: u64, payload: &Payload) -> &mut Self {
        let start = self.0.len();
        self.0.extend_from_slice(&0x4655_5347u32.to_le_bytes());
        self.0.extend_from_slice(&1u16.to_le_bytes());
        self.0.push(kind);
        self.0.extend_from_slice(&round.to_le_bytes());
        self.0.extend_from_slice(&base.to_le_bytes());
        self.0
            .extend_from_slice(&(payload.0.len() as u32).to_le_bytes());
        self.0.extend_from_slice(&payload.0);
        let sum = segment::fnv1a64(&self.0[start..]);
        self.0.extend_from_slice(&sum.to_le_bytes());
        self
    }
    /// The roster: δ, then `(id, joined, left, weight)` per client, with
    /// `count` records declared to follow.
    fn roster(&mut self, delta: f32, count: u64, clients: &[(u64, u64, u64, f32)]) -> &mut Self {
        let mut p = Payload::default();
        p.f32(delta);
        for &(id, joined, left, weight) in clients {
            p.u64(id).u64(joined).u64(left).f32(weight);
        }
        self.record(ROSTER, count, clients.len() as u64, &p)
    }
    /// One model keyframe: length, values.
    fn keyframe(&mut self, round: u64, params: &[f32]) -> &mut Self {
        let mut p = Payload::default();
        p.u32(params.len() as u32);
        for &v in params {
            p.f32(v);
        }
        self.record(KEYFRAME, round, round, &p)
    }
    /// One round's directions, each `(client, len, packed)` with an
    /// explicit length and byte count.
    fn directions(&mut self, round: u64, dirs: &[(u64, u32, &[u8])]) -> &mut Self {
        let mut p = Payload::default();
        p.u32(dirs.len() as u32);
        for &(client, len, packed) in dirs {
            p.u64(client)
                .u32(len)
                .u32(packed.len() as u32)
                .bytes(packed);
        }
        self.record(DIRECTIONS, round, round, &p)
    }
}

fn inconsistent(bytes: &[u8]) -> bool {
    matches!(
        decode_history(bytes),
        Err(SegmentDecodeError::Inconsistent(_))
    )
}

/// Decodes `bytes`, which must be exactly what the encoder writes for the
/// decoded history: re-encoding it gives the same bytes back.
fn decode_exact(bytes: &[u8]) -> HistoryStore {
    let h = decode_history(bytes).expect("decodes");
    assert_eq!(
        encode_history(&h).unwrap(),
        bytes,
        "re-encodes to the same bytes"
    );
    h
}

/// `blob` with one byte appended to the payload of its `index`-th
/// record (length field bumped, record resealed).
fn with_surplus_byte(blob: &[u8], index: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = blob;
    for i in 0.. {
        if rest.is_empty() {
            break;
        }
        let len = segment::framed_len(rest).unwrap();
        let (record, tail) = rest.split_at(len);
        rest = tail;
        if i != index {
            out.extend_from_slice(record);
            continue;
        }
        let mut grown = record[..len - TRAILER_LEN].to_vec();
        grown.push(0);
        let payload_len = (len - HEADER_LEN - TRAILER_LEN + 1) as u32;
        grown[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        grown.extend_from_slice(&[0; TRAILER_LEN]);
        segment::reseal(&mut grown);
        out.extend_from_slice(&grown);
    }
    out
}

/// Four clients over six rounds, one of them joining late and one
/// leaving, with distinct weights.
fn churned_history() -> HistoryStore {
    let mut h = HistoryStore::new(1e-3);
    for c in 0..4 {
        h.record_join(c, if c == 3 { 2 } else { 0 });
        h.set_weight(c, 10.0 + c as f32);
    }
    h.record_leave(1, 3);
    for t in 0..6 {
        h.record_model(t, (0..5).map(|j| (t * 5 + j) as f32 * 0.1).collect());
        for c in 0..4 {
            if (c == 3 && t < 2) || (c == 1 && t > 3) {
                continue;
            }
            let g: Vec<f32> = (0..5)
                .map(|j| ((t + c + j) % 3) as f32 - 1.0 + 0.01 * j as f32)
                .collect();
            h.record_gradient(t, c, &g);
        }
    }
    h
}

fn signs(h: &HistoryStore, r: usize, c: usize) -> Option<Vec<i8>> {
    h.direction(r, c)
        .as_deref()
        .map(GradientDirection::to_signs)
}

/// Every model, direction, participation record and weight agree.
fn assert_same_history(a: &HistoryStore, b: &HistoryStore) {
    assert_eq!(a.delta().to_bits(), b.delta().to_bits());
    assert_eq!(a.rounds(), b.rounds());
    assert_eq!(a.direction_rounds(), b.direction_rounds());
    for r in a.rounds() {
        assert_eq!(a.model(r), b.model(r), "model {r}");
    }
    for r in a.direction_rounds() {
        assert_eq!(a.clients_in_round(r), b.clients_in_round(r), "round {r}");
        for c in a.clients_in_round(r) {
            assert_eq!(signs(a, r, c), signs(b, r, c), "direction ({r}, {c})");
        }
    }
    assert_eq!(a.clients(), b.clients());
    for c in a.clients() {
        assert_eq!(a.participation(c), b.participation(c), "client {c}");
        assert_eq!(a.weight(c).to_bits(), b.weight(c).to_bits(), "client {c}");
    }
    assert_eq!(a.direction_bytes(), b.direction_bytes());
}

#[test]
fn the_crafted_layout_matches_the_encoder() {
    let mut h = HistoryStore::new(0.25);
    h.record_model(0, vec![1.0, -2.0, 0.5]);
    h.record_join(4, 0);
    h.set_weight(4, 8.0);
    h.record_gradient(0, 4, &[1.0, -1.0, 0.0]);
    let mut s = Stream::default();
    s.roster(0.25, 2, &[(4, 0, ACTIVE, 8.0)]);
    s.keyframe(0, &[1.0, -2.0, 0.5]);
    // Signs +1, −1, 0 pack as 01, 10, 00 from the low bits up.
    s.directions(0, &[(4, 3, &[0b00_10_01])]);
    assert_eq!(s.0, encode_history(&h).unwrap());
    decode_exact(&s.0);
}

#[test]
fn a_churned_history_roundtrips_every_field() {
    let h = churned_history();
    let back = decode_exact(&encode_history(&h).unwrap());
    assert_same_history(&h, &back);
    assert_eq!(back.participation(1).unwrap().left, Some(3));
    assert_eq!(back.join_round(3), Some(2));
}

#[test]
fn an_empty_history_roundtrips() {
    let h = HistoryStore::new(0.5);
    let back = decode_exact(&encode_history(&h).unwrap());
    assert_eq!(back.delta(), 0.5);
    assert!(back.rounds().is_empty());
    assert!(back.clients().is_empty());
}

#[test]
fn a_thinned_history_roundtrips_with_every_rounds_directions() {
    let full = churned_history();
    let thin = full.thinned_models(4);
    assert_eq!(thin.rounds(), vec![0, 2, 4, 5]);
    assert_eq!(thin.direction_rounds(), full.direction_rounds());
    let back = decode_exact(&encode_history(&thin).unwrap());
    assert_same_history(&thin, &back);
    for r in [1, 3] {
        assert!(back.model(r).is_none());
        assert_eq!(back.clients_in_round(r), full.clients_in_round(r));
    }

    let mut lost = churned_history();
    lost.remove_model(3).unwrap();
    let back = decode_exact(&encode_history(&lost).unwrap());
    assert_same_history(&lost, &back);
    assert_eq!(back.clients_in_round(3), vec![0, 1, 2, 3]);
}

#[test]
fn a_spilled_history_encodes_the_same_bytes() {
    let hot = churned_history();
    let mut cold = churned_history();
    cold.set_budget(Some(0));
    assert!(cold.spilled_bytes() > 0);
    assert_eq!(
        encode_history(&cold).unwrap(),
        encode_history(&hot).unwrap()
    );
}

#[test]
fn encoding_a_history_whose_spill_file_was_cut_is_a_typed_error() {
    let mut h = HistoryStore::with_tier(1e-3, TierConfig::bounded(0));
    h.record_join(0, 0);
    for t in 0..3 {
        h.record_model(t, vec![t as f32; 16]);
        h.record_gradient(t, 0, &[0.5; 16]);
    }
    h.invalidate_caches();
    std::fs::OpenOptions::new()
        .write(true)
        .open(h.spill_path())
        .unwrap()
        .set_len(10)
        .unwrap();
    assert_eq!(encode_history(&h), Err(SegmentDecodeError::Truncated));
}

#[test]
fn a_direction_longer_than_its_bytes_is_an_error() {
    // 40 elements need 10 packed bytes; the record carries 2.
    let mut s = Stream::default();
    s.roster(1e-6, 2, &[]);
    s.keyframe(0, &[0.0; 40]);
    s.directions(0, &[(1, 40, &[0xFF, 0xFF])]);
    assert_eq!(
        decode_history(&s.0).unwrap_err(),
        SegmentDecodeError::Truncated
    );
}

#[test]
fn a_direction_with_surplus_bytes_is_an_error() {
    let mut s = Stream::default();
    s.roster(1e-6, 2, &[]);
    s.keyframe(0, &[0.0; 4]);
    s.directions(0, &[(1, 4, &[0b01, 0])]);
    assert_eq!(
        decode_history(&s.0).unwrap_err(),
        SegmentDecodeError::Truncated
    );
}

#[test]
fn a_huge_record_count_reserves_nothing_it_cannot_read() {
    // The roster declares u64::MAX records; the stream holds none of
    // them, so decoding must stop at the first missing record.
    for count in [u64::from(u32::MAX), u64::MAX] {
        let mut s = Stream::default();
        s.roster(1e-6, count, &[(0, 0, ACTIVE, 1.0)]);
        assert_eq!(
            decode_history(&s.0).unwrap_err(),
            SegmentDecodeError::Truncated
        );
    }
}

#[test]
fn models_of_different_lengths_are_an_error() {
    let mut s = Stream::default();
    s.roster(1e-6, 2, &[]);
    s.keyframe(0, &[1.0, 2.0, 3.0]).keyframe(1, &[1.0, 2.0]);
    assert!(inconsistent(&s.0));
}

#[test]
fn a_direction_of_another_length_than_the_models_is_an_error() {
    let mut s = Stream::default();
    s.roster(1e-6, 2, &[(1, 0, ACTIVE, 1.0)]);
    s.keyframe(0, &[1.0, 2.0, 3.0]);
    s.directions(0, &[(1, 5, &[0, 0])]);
    assert_eq!(
        decode_history(&s.0).unwrap_err(),
        SegmentDecodeError::Inconsistent("dimension mismatch")
    );
}

#[test]
fn directions_of_different_lengths_are_an_error() {
    // No models: the first direction sets the dimension.
    let mut s = Stream::default();
    s.roster(1e-6, 1, &[(1, 0, ACTIVE, 1.0), (2, 0, ACTIVE, 1.0)]);
    s.directions(0, &[(1, 4, &[0b01]), (2, 8, &[0b01, 0])]);
    assert_eq!(
        decode_history(&s.0).unwrap_err(),
        SegmentDecodeError::Inconsistent("dimension mismatch")
    );
}

#[test]
fn a_direction_of_a_client_off_the_roster_is_an_error() {
    // Client 9 never joined: replay would never estimate it, yet every
    // reader of round 0 would count it at weight 1.
    let mut s = Stream::default();
    s.roster(1e-6, 2, &[(1, 0, ACTIVE, 1.0)]);
    s.keyframe(0, &[1.0, 2.0]);
    s.directions(0, &[(1, 2, &[0b01]), (9, 2, &[0b10])]);
    assert_eq!(
        decode_history(&s.0).unwrap_err(),
        SegmentDecodeError::Inconsistent("direction for a client the roster lacks")
    );
    // The encoder refuses to write that stream in the first place, so
    // every history it writes still decodes.
    let mut h = HistoryStore::new(1e-6);
    h.record_join(1, 0);
    h.record_model(0, vec![1.0, 2.0]);
    h.record_gradient(0, 1, &[0.5, -0.5]);
    h.record_gradient(0, 9, &[-0.5, 0.5]);
    assert_eq!(
        encode_history(&h).unwrap_err(),
        SegmentDecodeError::Inconsistent("direction for a client the roster lacks")
    );
    h.record_join(9, 0);
    assert!(decode_history(&encode_history(&h).unwrap()).is_ok());
}

#[test]
fn a_negative_or_nan_delta_is_an_error() {
    for delta in [-1.0, f32::NAN] {
        let mut s = Stream::default();
        s.roster(delta, 0, &[]);
        assert!(inconsistent(&s.0), "δ = {delta}");
    }
}

#[test]
fn an_invalid_weight_is_an_error() {
    for weight in [0.0, -1.0, f32::NAN, f32::INFINITY] {
        let mut s = Stream::default();
        s.roster(1e-6, 0, &[(0, 0, ACTIVE, 1.0), (1, 0, ACTIVE, weight)]);
        assert!(inconsistent(&s.0), "weight {weight}");
    }
}

#[test]
fn a_roster_of_the_wrong_length_is_an_error() {
    // Two client entries, but the header's client count says three.
    let mut p = Payload::default();
    p.f32(1e-6);
    for id in 0..2 {
        p.u64(id).u64(0).u64(ACTIVE).f32(1.0);
    }
    let mut s = Stream::default();
    s.record(ROSTER, 0, 3, &p);
    assert!(inconsistent(&s.0));
    // A roster too short for δ itself.
    let mut s = Stream::default();
    s.record(ROSTER, 0, 0, &Payload::default());
    assert_eq!(
        decode_history(&s.0).unwrap_err(),
        SegmentDecodeError::Truncated
    );
}

#[test]
fn a_cut_at_a_record_boundary_is_truncated() {
    let blob = encode_history(&churned_history()).unwrap();
    let mut boundaries = Vec::new();
    let mut at = 0;
    while at < blob.len() {
        at += segment::framed_len(&blob[at..]).unwrap();
        boundaries.push(at);
    }
    assert_eq!(boundaries.len(), 1 + 6 + 6, "roster, keyframes, directions");
    assert_eq!(boundaries.pop(), Some(blob.len()));
    for cut in boundaries {
        assert_eq!(
            decode_history(&blob[..cut]).unwrap_err(),
            SegmentDecodeError::Truncated,
            "cut after a whole record at byte {cut}"
        );
    }
}

#[test]
fn a_trailing_extra_record_or_byte_is_an_error() {
    let blob = encode_history(&churned_history()).unwrap();
    let mut extra = blob.clone();
    extra.extend_from_slice(&segment::encode_keyframe(6, &[0.0; 5]));
    assert!(inconsistent(&extra));
    let mut junk = blob;
    junk.push(0);
    assert!(inconsistent(&junk));
}

#[test]
fn only_the_roster_may_open_and_only_models_and_directions_may_follow() {
    // A checkpoint is not a history.
    let checkpoint = segment::encode_keyframe(0, &[1.0, 2.0]);
    assert_eq!(
        decode_history(&checkpoint).unwrap_err(),
        SegmentDecodeError::BadKind(KEYFRAME)
    );
    for (kind, payload) in [(DELTA, vec![2u8, 0, 0, 0, 0, 0]), (ROSTER, vec![0; 4])] {
        let mut s = Stream::default();
        s.roster(1e-6, 2, &[]);
        s.keyframe(0, &[1.0, 2.0]);
        s.record(kind, 1, 0, &Payload(payload));
        assert_eq!(
            decode_history(&s.0).unwrap_err(),
            SegmentDecodeError::BadKind(kind)
        );
    }
}

#[test]
fn every_strict_prefix_is_truncated_and_no_bit_flip_decodes() {
    let h = churned_history().thinned_models(2);
    let blob = encode_history(&h).unwrap();
    assert_same_history(&h, &decode_exact(&blob));
    for cut in 0..blob.len() {
        assert_eq!(
            decode_history(&blob[..cut]).unwrap_err(),
            SegmentDecodeError::Truncated,
            "prefix of {cut}/{} bytes",
            blob.len()
        );
    }
    let mut flipped = blob.clone();
    for i in 0..blob.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            if let Ok(back) = decode_history(&flipped) {
                panic!(
                    "flipping bit {bit} of byte {i} decoded to a history with rounds {:?}",
                    back.rounds()
                );
            }
            flipped[i] ^= 1 << bit;
        }
    }
}

#[test]
fn a_legacy_history_or_checkpoint_is_bad_magic() {
    // The formats this one replaced: a FUHS history (magic, version 1,
    // δ, one 3-element model, no directions, no clients) and a FUIO
    // checkpoint of eight parameters.
    let mut fuhs = 0x4655_4853u32.to_le_bytes().to_vec();
    fuhs.extend_from_slice(&1u16.to_le_bytes());
    fuhs.extend_from_slice(&1e-6f32.to_le_bytes());
    fuhs.extend_from_slice(&1u32.to_le_bytes());
    fuhs.extend_from_slice(&0u64.to_le_bytes());
    fuhs.extend_from_slice(&3u32.to_le_bytes());
    fuhs.extend(std::iter::repeat_n(0u8, 12 + 8));
    assert!(fuhs.len() >= HEADER_LEN + TRAILER_LEN);
    assert_eq!(
        decode_history(&fuhs).unwrap_err(),
        SegmentDecodeError::BadMagic(0x4655_4853)
    );
    let mut fuio = 0x4655_494Fu32.to_le_bytes().to_vec();
    fuio.extend_from_slice(&1u16.to_le_bytes());
    fuio.extend_from_slice(&8u32.to_le_bytes());
    fuio.extend(std::iter::repeat_n(0u8, 32));
    assert_eq!(
        segment::decode_keyframe(&fuio).unwrap_err(),
        SegmentDecodeError::BadMagic(0x4655_494F)
    );
}

#[test]
fn errors_name_the_inconsistency() {
    let err = SegmentDecodeError::Inconsistent("dimension mismatch");
    assert_eq!(err.to_string(), "inconsistent records: dimension mismatch");
}

/// The decoder accepts the encoder's layout and nothing else: every case
/// below is validly sealed and used to decode — merging duplicates,
/// overwriting a repeated keyframe, or ignoring surplus payload bytes —
/// so one file could stand for several histories.
#[test]
fn only_the_encoders_layout_decodes() {
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "duplicate roster client",
            Stream::default()
                .roster(1e-6, 1, &[(1, 0, ACTIVE, 1.0), (1, 2, 5, 2.0)])
                .keyframe(0, &[1.0, 2.0])
                .0
                .clone(),
            "roster out of client order",
        ),
        (
            "descending roster",
            Stream::default()
                .roster(1e-6, 1, &[(2, 0, ACTIVE, 1.0), (1, 0, ACTIVE, 1.0)])
                .keyframe(0, &[1.0, 2.0])
                .0
                .clone(),
            "roster out of client order",
        ),
        (
            "duplicate client inside a directions record",
            Stream::default()
                .roster(1e-6, 2, &[(1, 0, ACTIVE, 1.0)])
                .keyframe(0, &[1.0, 2.0])
                .directions(0, &[(1, 2, &[0b01]), (1, 2, &[0b10])])
                .0
                .clone(),
            "directions out of client order",
        ),
        (
            "duplicate keyframe round",
            Stream::default()
                .roster(1e-6, 2, &[])
                .keyframe(3, &[1.0, 2.0])
                .keyframe(3, &[4.0, 5.0])
                .0
                .clone(),
            "keyframes out of order",
        ),
        (
            "keyframe after directions",
            Stream::default()
                .roster(1e-6, 3, &[(1, 0, ACTIVE, 1.0)])
                .keyframe(0, &[1.0, 2.0])
                .directions(0, &[(1, 2, &[0b01])])
                .keyframe(1, &[3.0, 4.0])
                .0
                .clone(),
            "keyframe after directions",
        ),
        (
            "two directions records for one round",
            Stream::default()
                .roster(1e-6, 3, &[(1, 0, ACTIVE, 1.0), (2, 0, ACTIVE, 1.0)])
                .keyframe(0, &[1.0, 2.0])
                .directions(0, &[(1, 2, &[0b01])])
                .directions(0, &[(2, 2, &[0b10])])
                .0
                .clone(),
            "directions out of order",
        ),
    ];
    let blob = encode_history(&churned_history()).unwrap();
    let surplus = [
        // Record 1 is the first keyframe; 1 + 6 is the first directions.
        (
            "one surplus byte in a keyframe",
            with_surplus_byte(&blob, 1),
            "surplus keyframe bytes",
        ),
        (
            "one surplus byte in a directions record",
            with_surplus_byte(&blob, 7),
            "surplus directions bytes",
        ),
    ];
    for (label, bytes, what) in cases.into_iter().chain(surplus) {
        assert_eq!(
            decode_history(&bytes).unwrap_err(),
            SegmentDecodeError::Inconsistent(what),
            "{label}"
        );
    }
    // The same surplus byte in a model checkpoint is refused too.
    let checkpoint = segment::encode_keyframe(4, &[1.0, 2.0]);
    assert_eq!(
        segment::decode_keyframe(&with_surplus_byte(&checkpoint, 0)).unwrap_err(),
        SegmentDecodeError::Inconsistent("surplus keyframe bytes")
    );
}
