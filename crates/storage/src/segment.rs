//! FUSG: the one sealed record format.
//!
//! Every binary stream the stack persists or sends is a run of
//! self-describing, checksummed records: the spill segments of the tiered
//! [`HistoryStore`], job logs, wire frames, history files
//! and model checkpoints. Framing is little-endian with magic + version up
//! front, truncation is detected before any payload is touched, and an
//! FNV-1a trailer makes bit rot inside a record a typed
//! [`SegmentDecodeError`], never a panic or a silently wrong model.
//!
//! ```text
//! record := magic:u32 | version:u16 | kind:u8 | round:u64 | base:u64
//!         | payload_len:u32 | payload | fnv1a64(header‖payload):u64
//! ```
//!
//! `kind` selects the payload codec ([`RecordKind`]): a raw `f32`
//! keyframe, a [`delta`]-coded model residual against `base`, a round's
//! packed direction map (client ids + 2-bit sign words, verbatim), and so
//! on. `base` equals `round` for keyframe and direction records.
//!
//! A history file ([`encode_history`]) is a [`RecordKind::Roster`] record
//! followed by one keyframe per model round and one directions record per
//! round with directions; a model checkpoint is a single keyframe
//! ([`encode_keyframe`]).

use crate::delta;
use crate::direction::GradientDirection;
use crate::history::{ClientId, HistoryStore, Round};
use bytes::{Buf, BufMut};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Record magic, "FUSG".
pub const MAGIC: u32 = 0x4655_5347;
/// Segment format version.
pub const VERSION: u16 = 1;
/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 8 + 8 + 4;
/// Trailing checksum bytes.
pub const TRAILER_LEN: usize = 8;
/// Byte offset of the `round` field inside a record (testkit's
/// stale-keyframe fault rewrites it, then [`reseal`]s the record).
pub const ROUND_FIELD_OFFSET: usize = 4 + 2 + 1;

/// What a record's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Raw little-endian `f32` model keyframe.
    Keyframe,
    /// Varint-zigzag model residual against the `base` round.
    Delta,
    /// A round's packed `client → GradientDirection` map.
    Directions,
    /// An in-progress recovery job's sealed resume state. The `round`
    /// field holds the job's next replay round, the `base` field its job
    /// id; the payload is the `core::jobs` state codec's opaque bytes.
    JobCheckpoint,
    /// Wire (`fuiov-net`): a vehicle announcing itself to the RSU
    /// registry. Client id in `base`; payload holds the FedAvg weight
    /// and model dimension.
    Register,
    /// Wire: the round's global-model broadcast. Round in `round`; the
    /// payload is the raw little-endian `f32` parameter vector, nothing
    /// else, so payload bytes equal `comms::round_bytes` download bytes
    /// exactly.
    RoundModel,
    /// Wire: a 2-bit sign-compressed gradient upload. Round in `round`,
    /// client id in `base`; the payload is the packed sign words
    /// verbatim (`⌈d/4⌉` bytes for a `d`-parameter model).
    SignUpload,
    /// Wire: a full-precision gradient upload. Round in `round`, client
    /// id in `base`; the payload is the raw little-endian `f32` gradient
    /// (`4·d` bytes).
    GradUpload,
    /// Wire: a request to unlearn a set of vehicles. Submitting client
    /// in `base`; the payload lists the target client ids as `u64`s.
    ForgetRequest,
    /// Wire: a control frame (round-loop handshakes — ack, done). The
    /// control code rides in `round`, a code-specific argument in
    /// `base`; the payload is empty.
    Control,
    /// The first record of a history file: the number of records that
    /// follow in `round`, the client count in `base`; the payload is δ
    /// (`f32`) and then, per client, its id, join round, leave round
    /// (`u64::MAX` while active) and FedAvg weight.
    Roster,
}

impl RecordKind {
    /// The on-wire/on-disk code of this kind. Code 5 is reserved: it
    /// named a kind that is gone, and a record carrying it is `BadKind(5)`.
    pub fn code(self) -> u8 {
        match self {
            RecordKind::Keyframe => 1,
            RecordKind::Delta => 2,
            RecordKind::Directions => 3,
            RecordKind::JobCheckpoint => 4,
            RecordKind::Register => 6,
            RecordKind::RoundModel => 7,
            RecordKind::SignUpload => 8,
            RecordKind::GradUpload => 9,
            RecordKind::ForgetRequest => 10,
            RecordKind::Control => 11,
            RecordKind::Roster => 12,
        }
    }

    /// The kind for an on-wire/on-disk code, if known.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(RecordKind::Keyframe),
            2 => Some(RecordKind::Delta),
            3 => Some(RecordKind::Directions),
            4 => Some(RecordKind::JobCheckpoint),
            6 => Some(RecordKind::Register),
            7 => Some(RecordKind::RoundModel),
            8 => Some(RecordKind::SignUpload),
            9 => Some(RecordKind::GradUpload),
            10 => Some(RecordKind::ForgetRequest),
            11 => Some(RecordKind::Control),
            12 => Some(RecordKind::Roster),
            _ => None,
        }
    }
}

/// Error decoding a FUSG record or record stream. Every corruption mode
/// the testkit `Corruptor` can inject maps to a distinct variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentDecodeError {
    /// Record shorter than its header + declared payload, or a payload
    /// that ends mid-value.
    Truncated,
    /// Magic mismatch — not a FUSG record.
    BadMagic(u32),
    /// Unsupported record version.
    BadVersion(u16),
    /// Unknown record kind code, or a kind the decoder does not expect
    /// at this point.
    BadKind(u8),
    /// FNV-1a checksum mismatch — the record bytes rotted.
    BadChecksum {
        /// Checksum stored in the record trailer.
        expected: u64,
        /// Checksum recomputed over the record bytes.
        found: u64,
    },
    /// The record decodes cleanly but describes a different round than
    /// the index said it would (a stale keyframe).
    RoundMismatch {
        /// Round the caller asked for.
        expected: u64,
        /// Round the record claims to hold.
        found: u64,
    },
    /// A delta record was decoded without its base model (round given).
    MissingBase(u64),
    /// Underlying I/O failure reading the spill file.
    Io(String),
    /// Sealed records that contradict each other or what the store
    /// accepts: a negative or NaN δ, a model or direction of another
    /// dimension or of none at all, a weight that is not positive and
    /// finite, a roster of the wrong length, or bytes after the last
    /// declared record.
    Inconsistent(&'static str),
}

impl fmt::Display for SegmentDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentDecodeError::Truncated => write!(f, "record truncated"),
            SegmentDecodeError::BadMagic(m) => write!(f, "bad record magic {m:#010x}"),
            SegmentDecodeError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            SegmentDecodeError::BadKind(k) => write!(f, "unexpected record kind {k}"),
            SegmentDecodeError::BadChecksum { expected, found } => write!(
                f,
                "record checksum mismatch (stored {expected:#018x}, computed {found:#018x})"
            ),
            SegmentDecodeError::RoundMismatch { expected, found } => {
                write!(
                    f,
                    "stale record: wanted round {expected}, record holds {found}"
                )
            }
            SegmentDecodeError::MissingBase(r) => {
                write!(f, "delta record needs base model of round {r}")
            }
            SegmentDecodeError::Io(e) => write!(f, "spill file i/o: {e}"),
            SegmentDecodeError::Inconsistent(what) => write!(f, "inconsistent records: {what}"),
        }
    }
}

impl Error for SegmentDecodeError {}

/// FNV-1a over `data`, absorbed a 64-bit little-endian word per step
/// (byte-wise over the tail) — the same digest family the golden-trace
/// system uses, but one multiply per 8 payload bytes instead of per byte.
/// Record verification sits on the streaming-replay hot path, so the
/// checksum must not cost a per-byte multiply chain; any single-byte flip
/// still changes the word it lands in and therefore the digest.
pub fn fnv1a64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Recomputes and rewrites the trailing checksum of a framed record in
/// place (after deliberate field surgery — the testkit's stale-keyframe
/// fault must present as [`SegmentDecodeError::RoundMismatch`], not as a
/// checksum failure).
///
/// # Panics
///
/// Panics if `record` is shorter than a checksum trailer.
pub fn reseal(record: &mut [u8]) {
    let body = record.len() - TRAILER_LEN;
    let sum = fnv1a64(&record[..body]);
    record[body..].copy_from_slice(&sum.to_le_bytes());
}

fn frame(kind: RecordKind, round: Round, base: Round, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    frame_into(&mut buf, kind, round, base as u64, payload);
    buf
}

/// Frames `payload` as a sealed FUSG record into `buf` (cleared first),
/// so callers on a hot path — the wire layer frames one record per
/// message — can reuse one scratch buffer instead of allocating.
pub fn frame_into(buf: &mut Vec<u8>, kind: RecordKind, round: Round, base: u64, payload: &[u8]) {
    buf.clear();
    buf.reserve(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(kind.code());
    buf.put_u64_le(round as u64);
    buf.put_u64_le(base);
    buf.put_u32_le(payload.len() as u32);
    buf.extend_from_slice(payload);
    let sum = fnv1a64(buf);
    buf.put_u64_le(sum);
}

/// Frames `payload` as a freshly allocated sealed record — the general
/// entry point the wire protocol builds its messages on.
pub fn encode_record(kind: RecordKind, round: Round, base: u64, payload: &[u8]) -> Vec<u8> {
    frame(kind, round, base as Round, payload)
}

/// The header and trailer of a record whose checksum also covers an
/// external payload slice: `(header, trailer)` such that
/// `header ‖ payload ‖ trailer` is exactly [`encode_record`]'s output.
/// This is the zero-copy broadcast primitive — the round's model payload
/// is serialized once and handed to every connection's vectored write
/// without being copied into a per-client frame.
pub fn frame_parts(
    kind: RecordKind,
    round: Round,
    base: u64,
    payload: &[u8],
) -> ([u8; HEADER_LEN], [u8; TRAILER_LEN]) {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = kind.code();
    header[7..15].copy_from_slice(&(round as u64).to_le_bytes());
    header[15..23].copy_from_slice(&base.to_le_bytes());
    header[23..27].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    // FNV absorbs word-wise from the start of the record; the header is
    // 27 bytes (not a multiple of 8), so the digest must run over the
    // logical concatenation, not the two slices independently.
    let mut body = Vec::with_capacity(HEADER_LEN + payload.len());
    body.extend_from_slice(&header);
    body.extend_from_slice(payload);
    let sum = fnv1a64(&body);
    (header, sum.to_le_bytes())
}

/// Encodes a full `f32` keyframe record.
pub fn encode_keyframe(round: Round, params: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + params.len() * 4);
    payload.put_u32_le(params.len() as u32);
    for &p in params {
        payload.put_f32_le(p);
    }
    frame(RecordKind::Keyframe, round, round, &payload)
}

/// Encodes a delta record: `cur` coded against the model of `base_round`.
///
/// # Panics
///
/// Panics if `base.len() != cur.len()`.
pub fn encode_delta(round: Round, base_round: Round, base: &[f32], cur: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + cur.len());
    payload.put_u32_le(cur.len() as u32);
    delta::encode(base, cur, &mut payload);
    frame(RecordKind::Delta, round, base_round, &payload)
}

/// Encodes a round's direction map: the packed 2-bit sign words are
/// copied verbatim, so spill → reload is bit-identical by construction.
pub fn encode_directions(round: Round, dirs: &BTreeMap<ClientId, GradientDirection>) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.put_u32_le(dirs.len() as u32);
    for (&client, dir) in dirs {
        payload.put_u64_le(client as u64);
        payload.put_u32_le(dir.len() as u32);
        let packed = dir.packed_bytes();
        payload.put_u32_le(packed.len() as u32);
        payload.extend_from_slice(packed);
    }
    frame(RecordKind::Directions, round, round, &payload)
}

/// Encodes a recovery-job checkpoint record. The framing reuses the FUSG
/// discipline — FNV-sealed, truncation-typed — with `next_round` in the
/// `round` field and the job id in the `base` field, so job logs get the
/// same corruption taxonomy as the spill tier for free.
pub fn encode_job_checkpoint(job: u64, next_round: Round, payload: &[u8]) -> Vec<u8> {
    frame(RecordKind::JobCheckpoint, next_round, job as Round, payload)
}

/// Decodes a job-checkpoint record into `(job, next_round, payload)`.
///
/// # Errors
///
/// Framing/checksum errors from [`check_record`], `BadKind` if the record
/// is not a job checkpoint.
pub fn decode_job_checkpoint(record: &[u8]) -> Result<(u64, Round, Vec<u8>), SegmentDecodeError> {
    let (kind, round, base, payload) = check_record(record)?;
    if kind != RecordKind::JobCheckpoint {
        return Err(SegmentDecodeError::BadKind(kind.code()));
    }
    Ok((base as u64, round, payload.to_vec()))
}

/// Declared total record length (header + payload + trailer) of the record
/// starting at `bytes`, or `None` when not even a full header is present —
/// the sequential-scan primitive job logs use to walk their records and
/// stop cleanly at a torn tail.
pub fn framed_len(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let payload_len =
        u32::from_le_bytes(bytes[HEADER_LEN - 4..HEADER_LEN].try_into().ok()?) as usize;
    Some(HEADER_LEN + payload_len + TRAILER_LEN)
}

/// Validates framing + checksum and returns `(kind, round, base, payload)`.
///
/// # Errors
///
/// Any [`SegmentDecodeError`] except `RoundMismatch`/`MissingBase`, which
/// are the typed-decode layer's concern.
pub fn check_record(
    record: &[u8],
) -> Result<(RecordKind, Round, Round, &[u8]), SegmentDecodeError> {
    if record.len() < HEADER_LEN + TRAILER_LEN {
        return Err(SegmentDecodeError::Truncated);
    }
    let mut buf = record;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(SegmentDecodeError::BadMagic(magic));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(SegmentDecodeError::BadVersion(version));
    }
    let kind_code = buf.get_u8();
    let kind = RecordKind::from_code(kind_code).ok_or(SegmentDecodeError::BadKind(kind_code))?;
    let round = buf.get_u64_le();
    let base = buf.get_u64_le();
    let payload_len = buf.get_u32_le() as usize;
    if buf.len() < payload_len + TRAILER_LEN {
        return Err(SegmentDecodeError::Truncated);
    }
    let payload = &buf[..payload_len];
    let body = HEADER_LEN + payload_len;
    let expected = u64::from_le_bytes(record[body..body + TRAILER_LEN].try_into().unwrap());
    let found = fnv1a64(&record[..body]);
    if expected != found {
        fuiov_obs::counter!("storage.segment_checksum_failures").inc();
        return Err(SegmentDecodeError::BadChecksum { expected, found });
    }
    Ok((kind, round as Round, base as Round, payload))
}

/// Decodes a model record (keyframe or delta) for `expected_round`.
/// Delta records need the base-round model in `base`.
///
/// # Errors
///
/// Framing/checksum errors from [`check_record`], `RoundMismatch` if the
/// record holds a different round, `MissingBase` for a delta without its
/// base, `Truncated`/`BadKind` for malformed payloads.
pub fn decode_model(
    record: &[u8],
    expected_round: Round,
    base: Option<&[f32]>,
) -> Result<Vec<f32>, SegmentDecodeError> {
    let (kind, round, base_round, mut payload) = check_record(record)?;
    if round != expected_round {
        return Err(SegmentDecodeError::RoundMismatch {
            expected: expected_round as u64,
            found: round as u64,
        });
    }
    if payload.len() < 4 {
        return Err(SegmentDecodeError::Truncated);
    }
    let len = payload.get_u32_le() as usize;
    match kind {
        RecordKind::Keyframe => {
            if payload.len() < len * 4 {
                return Err(SegmentDecodeError::Truncated);
            }
            if payload.len() > len * 4 {
                return Err(SegmentDecodeError::Inconsistent("surplus keyframe bytes"));
            }
            Ok((0..len).map(|_| payload.get_f32_le()).collect())
        }
        RecordKind::Delta => {
            let base = base.ok_or(SegmentDecodeError::MissingBase(base_round as u64))?;
            delta::decode(base, payload, len).ok_or(SegmentDecodeError::Truncated)
        }
        _ => Err(SegmentDecodeError::BadKind(kind.code())),
    }
}

/// Decodes a directions record for `expected_round`.
///
/// # Errors
///
/// Framing/checksum errors from [`check_record`], `RoundMismatch`,
/// `BadKind` for a model record, `Truncated` for malformed payloads,
/// `Inconsistent` for client ids that are not strictly ascending (the
/// encoder's order, so a repeated client is refused rather than merged)
/// and for bytes after the last entry.
pub fn decode_directions(
    record: &[u8],
    expected_round: Round,
) -> Result<BTreeMap<ClientId, GradientDirection>, SegmentDecodeError> {
    let (kind, round, _, mut payload) = check_record(record)?;
    if round != expected_round {
        return Err(SegmentDecodeError::RoundMismatch {
            expected: expected_round as u64,
            found: round as u64,
        });
    }
    if kind != RecordKind::Directions {
        return Err(SegmentDecodeError::BadKind(kind.code()));
    }
    if payload.len() < 4 {
        return Err(SegmentDecodeError::Truncated);
    }
    let n = payload.get_u32_le() as usize;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        if payload.len() < 16 {
            return Err(SegmentDecodeError::Truncated);
        }
        let client = payload.get_u64_le() as ClientId;
        if out
            .last_key_value()
            .is_some_and(|(&prev, _)| prev >= client)
        {
            return Err(SegmentDecodeError::Inconsistent(
                "directions out of client order",
            ));
        }
        let len = payload.get_u32_le() as usize;
        let nbytes = payload.get_u32_le() as usize;
        if payload.len() < nbytes {
            return Err(SegmentDecodeError::Truncated);
        }
        let dir = GradientDirection::from_packed(len, payload[..nbytes].to_vec())
            .ok_or(SegmentDecodeError::Truncated)?;
        payload.advance(nbytes);
        out.insert(client, dir);
    }
    if !payload.is_empty() {
        return Err(SegmentDecodeError::Inconsistent("surplus directions bytes"));
    }
    Ok(out)
}

/// Decodes a single keyframe record (a model checkpoint) into
/// `(round, params)`. Bytes after the record's trailer are not read.
///
/// ```
/// use fuiov_storage::segment;
/// let rec = segment::encode_keyframe(7, &[1.0, -2.5]);
/// assert_eq!(segment::decode_keyframe(&rec)?, (7, vec![1.0, -2.5]));
/// # Ok::<(), fuiov_storage::SegmentDecodeError>(())
/// ```
///
/// # Errors
///
/// Framing/checksum errors from [`check_record`], `BadKind` for any other
/// kind, `Truncated` for a payload shorter than its element count.
pub fn decode_keyframe(record: &[u8]) -> Result<(Round, Vec<f32>), SegmentDecodeError> {
    let (kind, round, _, _) = check_record(record)?;
    if kind != RecordKind::Keyframe {
        return Err(SegmentDecodeError::BadKind(kind.code()));
    }
    Ok((round, decode_model(record, round, None)?))
}

/// Roster bytes per client: id, join round, leave round, weight.
const ROSTER_ENTRY: usize = 8 + 8 + 8 + 4;

/// What a history names when a direction's client is not on its roster.
const UNROSTERED: &str = "direction for a client the roster lacks";

/// Encodes a whole history as a record stream: a [`RecordKind::Roster`],
/// one keyframe per model round, then one directions record per round
/// with directions (including rounds whose model was thinned away or
/// removed), each group ascending.
///
/// ```
/// use fuiov_storage::{segment, HistoryStore};
///
/// let mut h = HistoryStore::new(1e-6);
/// h.record_model(0, vec![1.0, 2.0]);
/// h.record_join(3, 0);
/// h.record_gradient(0, 3, &[0.5, -0.5]);
/// let back = segment::decode_history(&segment::encode_history(&h)?)?;
/// assert_eq!(back.model(0), h.model(0));
/// assert_eq!(back.direction(0, 3), h.direction(0, 3));
/// # Ok::<(), fuiov_storage::SegmentDecodeError>(())
/// ```
///
/// # Errors
///
/// The typed error of a spilled round that no longer decodes, and
/// `Inconsistent` for a direction recorded for a client that never
/// joined: [`decode_history`] refuses such a stream, so it is not written.
pub fn encode_history(h: &HistoryStore) -> Result<Vec<u8>, SegmentDecodeError> {
    let models = h.rounds();
    let dir_rounds = h.direction_rounds();
    let roster: Vec<_> = h
        .clients()
        .into_iter()
        .filter_map(|c| Some((c, h.participation(c)?)))
        .collect();
    let mut payload = Vec::with_capacity(4 + roster.len() * ROSTER_ENTRY);
    payload.put_f32_le(h.delta());
    for &(client, p) in &roster {
        payload.put_u64_le(client as u64);
        payload.put_u64_le(p.joined as u64);
        payload.put_u64_le(p.left.map_or(u64::MAX, |l| l as u64));
        payload.put_f32_le(h.weight(client));
    }
    let count = models.len() + dir_rounds.len();
    let mut out = frame(RecordKind::Roster, count, roster.len(), &payload);
    for r in models {
        if let Some(m) = h.try_model(r)? {
            out.extend_from_slice(&encode_keyframe(r, &m));
        }
    }
    for r in dir_rounds {
        let dirs = h.try_directions(r)?;
        if dirs.keys().any(|&c| h.participation(c).is_none()) {
            return Err(SegmentDecodeError::Inconsistent(UNROSTERED));
        }
        out.extend_from_slice(&encode_directions(r, &dirs));
    }
    Ok(out)
}

/// Splits the next framed record off the front of `stream`; a record cut
/// short keeps the rest of the stream, so [`check_record`] calls it
/// `Truncated`.
fn next_record<'a>(stream: &mut &'a [u8]) -> &'a [u8] {
    let len = framed_len(stream).map_or(stream.len(), |n| n.min(stream.len()));
    let (record, rest) = stream.split_at(len);
    *stream = rest;
    record
}

/// Decodes a history written by [`encode_history`], accepting only the
/// layout the encoder writes, so a file decodes to one history or none.
/// The store it returns is unbounded; a caller that wants a byte budget
/// sets one with [`HistoryStore::set_budget`].
///
/// # Errors
///
/// Any record's framing or checksum error; `Truncated` when the stream
/// ends before the roster's declared record count, even at a record
/// boundary; `BadKind` for a first record that is not a roster or a later
/// one that is neither a keyframe nor directions; `Inconsistent` for
/// contradictions the store would assert on, for a model or direction of
/// length 0, for a direction of a client the roster does not list, for
/// bytes after the last declared record or inside a
/// record after its last entry, and for anything out of the encoder's
/// order — roster client ids strictly ascending, keyframes strictly
/// ascending by round and then directions strictly ascending by round,
/// client ids strictly ascending within each directions record. No input
/// makes it panic, and it reserves nothing from a count field.
pub fn decode_history(mut stream: &[u8]) -> Result<HistoryStore, SegmentDecodeError> {
    let (kind, count, n_clients, mut payload) = check_record(next_record(&mut stream))?;
    if kind != RecordKind::Roster {
        return Err(SegmentDecodeError::BadKind(kind.code()));
    }
    if payload.len() < 4 {
        return Err(SegmentDecodeError::Truncated);
    }
    let delta = payload.get_f32_le();
    if delta.is_nan() || delta < 0.0 {
        return Err(SegmentDecodeError::Inconsistent("negative or NaN delta"));
    }
    if Some(payload.len()) != n_clients.checked_mul(ROSTER_ENTRY) {
        return Err(SegmentDecodeError::Inconsistent("roster length"));
    }
    let mut h = HistoryStore::new(delta);
    let mut prev_client = None;
    for mut entry in payload.chunks_exact(ROSTER_ENTRY) {
        let client = entry.get_u64_le() as ClientId;
        if prev_client.is_some_and(|prev| prev >= client) {
            return Err(SegmentDecodeError::Inconsistent(
                "roster out of client order",
            ));
        }
        prev_client = Some(client);
        let joined = entry.get_u64_le() as Round;
        let left = entry.get_u64_le();
        let weight = entry.get_f32_le();
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(SegmentDecodeError::Inconsistent("invalid weight"));
        }
        h.record_join(client, joined);
        if left != u64::MAX {
            h.record_leave(client, left as Round);
        }
        h.set_weight(client, weight);
    }
    // The store asserts one dimension for every model and direction, and
    // recovery needs at least one parameter.
    let mut dim = None;
    let mut check_dim = |len: usize| {
        if len == 0 {
            return Err(SegmentDecodeError::Inconsistent("zero-dimension model"));
        }
        (*dim.get_or_insert(len) == len)
            .then_some(())
            .ok_or(SegmentDecodeError::Inconsistent("dimension mismatch"))
    };
    // The last keyframe round and the last directions round read so far.
    let (mut last_model, mut last_dirs) = (None, None);
    for _ in 0..count {
        let record = next_record(&mut stream);
        let (kind, round, _, _) = check_record(record)?;
        match kind {
            RecordKind::Keyframe => {
                if last_dirs.is_some() {
                    return Err(SegmentDecodeError::Inconsistent(
                        "keyframe after directions",
                    ));
                }
                if last_model.is_some_and(|last| last >= round) {
                    return Err(SegmentDecodeError::Inconsistent("keyframes out of order"));
                }
                last_model = Some(round);
                let params = decode_model(record, round, None)?;
                check_dim(params.len())?;
                h.record_model(round, params);
            }
            RecordKind::Directions => {
                if last_dirs.is_some_and(|last| last >= round) {
                    return Err(SegmentDecodeError::Inconsistent("directions out of order"));
                }
                last_dirs = Some(round);
                for (client, dir) in decode_directions(record, round)? {
                    // Replay estimates only the roster's clients, so a
                    // direction of anyone else would still be counted
                    // (at weight 1) by every reader of the round.
                    if h.participation(client).is_none() {
                        return Err(SegmentDecodeError::Inconsistent(UNROSTERED));
                    }
                    check_dim(dir.len())?;
                    h.record_direction(round, client, dir);
                }
            }
            other => return Err(SegmentDecodeError::BadKind(other.code())),
        }
    }
    if !stream.is_empty() {
        return Err(SegmentDecodeError::Inconsistent("trailing bytes"));
    }
    Ok(h)
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

struct SpillInner {
    file: Option<File>,
    path: PathBuf,
    len: u64,
}

/// The append-only spill file backing one [`HistoryStore`] lineage.
///
/// Shared via `Arc` between a store, its clones and its thinned copies —
/// records are never rewritten, so an `(offset, len)` handle taken by any
/// of them stays valid for the lifetime of the `Arc`. The file is created
/// lazily on first append (an unbounded store never touches disk) and
/// deleted when the last owner drops.
pub struct SpillFile {
    inner: Mutex<SpillInner>,
}

impl fmt::Debug for SpillFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SpillFile")
            .field("path", &inner.path)
            .field("len", &inner.len)
            .field("created", &inner.file.is_some())
            .finish()
    }
}

impl SpillFile {
    /// A lazily-created spill file in the system temp directory.
    pub fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "fuiov-spill-{}-{}.seg",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        SpillFile {
            inner: Mutex::new(SpillInner {
                file: None,
                path,
                len: 0,
            }),
        }
    }

    /// Where the segment file lives (or will live once first written).
    pub fn path(&self) -> PathBuf {
        self.inner.lock().path.clone()
    }

    /// Bytes appended so far (logical length; a fault-injected
    /// `set_len` on the path is deliberately not observed).
    pub fn len(&self) -> u64 {
        self.inner.lock().len
    }

    /// Whether nothing has been spilled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a framed record, returning its `(offset, len)` handle.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn append(&self, record: &[u8]) -> std::io::Result<(u64, u32)> {
        let mut inner = self.inner.lock();
        if inner.file.is_none() {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&inner.path)?;
            inner.file = Some(file);
        }
        let offset = inner.len;
        let file = inner.file.as_mut().expect("just created");
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(record)?;
        inner.len = offset + record.len() as u64;
        Ok((offset, record.len() as u32))
    }

    /// Reads back the record at `(offset, len)`.
    ///
    /// # Errors
    ///
    /// `Truncated` if the file ends early (e.g. a crash mid-append),
    /// `Io` for anything else.
    pub fn read(&self, offset: u64, len: u32) -> Result<Vec<u8>, SegmentDecodeError> {
        let mut inner = self.inner.lock();
        let file = inner
            .file
            .as_mut()
            .ok_or_else(|| SegmentDecodeError::Io("spill file never created".into()))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| SegmentDecodeError::Io(e.to_string()))?;
        let mut buf = vec![0u8; len as usize];
        let mut filled = 0usize;
        while filled < buf.len() {
            match file.read(&mut buf[filled..]) {
                Ok(0) => return Err(SegmentDecodeError::Truncated),
                Ok(n) => filled += n,
                Err(e) => return Err(SegmentDecodeError::Io(e.to_string())),
            }
        }
        Ok(buf)
    }
}

impl Default for SpillFile {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let inner = self.inner.lock();
        if inner.file.is_some() {
            let _ = std::fs::remove_file(&inner.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn keyframe_roundtrips_bitwise() {
        let params = vec![0.0f32, -0.0, 1.5, -3.25, f32::MIN_POSITIVE, f32::NAN];
        let rec = encode_keyframe(9, &params);
        let back = decode_model(&rec, 9, None).unwrap();
        assert_eq!(bits(&back), bits(&params));
    }

    #[test]
    fn delta_roundtrips_bitwise_and_requires_base() {
        let base = vec![1.0f32, 2.0, -3.0, 0.25];
        let cur = vec![1.0001f32, 1.9998, -3.002, 0.2501];
        let rec = encode_delta(5, 4, &base, &cur);
        let back = decode_model(&rec, 5, Some(&base)).unwrap();
        assert_eq!(bits(&back), bits(&cur));
        assert_eq!(
            decode_model(&rec, 5, None),
            Err(SegmentDecodeError::MissingBase(4))
        );
    }

    #[test]
    fn directions_roundtrip_verbatim() {
        let mut dirs = BTreeMap::new();
        dirs.insert(
            3 as ClientId,
            GradientDirection::from_signs(&[1, -1, 0, 0, 1]),
        );
        dirs.insert(11 as ClientId, GradientDirection::from_signs(&[0, 0, -1]));
        let rec = encode_directions(2, &dirs);
        let back = decode_directions(&rec, 2).unwrap();
        assert_eq!(back, dirs);
    }

    #[test]
    fn truncation_is_typed() {
        let rec = encode_keyframe(0, &[1.0, 2.0]);
        for cut in [
            3,
            HEADER_LEN - 1,
            rec.len() - TRAILER_LEN - 1,
            rec.len() - 1,
        ] {
            assert_eq!(
                decode_model(&rec[..cut], 0, None),
                Err(SegmentDecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_are_typed() {
        let mut rec = encode_keyframe(0, &[1.0]);
        rec[0] ^= 0xFF;
        assert!(matches!(
            check_record(&rec),
            Err(SegmentDecodeError::BadMagic(_))
        ));

        let mut rec = encode_keyframe(0, &[1.0]);
        rec[4] = 0xEE;
        reseal(&mut rec); // version field is inside the checksummed body
        assert!(matches!(
            check_record(&rec),
            Err(SegmentDecodeError::BadVersion(_))
        ));

        let mut rec = encode_keyframe(0, &[1.0]);
        rec[6] = 99;
        reseal(&mut rec);
        assert_eq!(
            check_record(&rec).unwrap_err(),
            SegmentDecodeError::BadKind(99)
        );
    }

    #[test]
    fn kind_codes_are_pinned_and_five_stays_reserved() {
        // The codes are on disk and on the wire: none may move.
        let pinned = [
            (RecordKind::Keyframe, 1),
            (RecordKind::Delta, 2),
            (RecordKind::Directions, 3),
            (RecordKind::JobCheckpoint, 4),
            (RecordKind::Register, 6),
            (RecordKind::RoundModel, 7),
            (RecordKind::SignUpload, 8),
            (RecordKind::GradUpload, 9),
            (RecordKind::ForgetRequest, 10),
            (RecordKind::Control, 11),
            (RecordKind::Roster, 12),
        ];
        for (kind, code) in pinned {
            assert_eq!(kind.code(), code, "{kind:?}");
            assert_eq!(RecordKind::from_code(code), Some(kind));
        }
        let known = (0..=u8::MAX)
            .filter(|&c| RecordKind::from_code(c).is_some())
            .count();
        assert_eq!(known, pinned.len(), "every kind is pinned above");
        assert_eq!(RecordKind::from_code(5), None);

        // A validly sealed record with kind byte 5 is refused by kind.
        let mut rec = encode_keyframe(0, &[1.0]);
        rec[6] = 5;
        reseal(&mut rec);
        assert_eq!(
            check_record(&rec).unwrap_err(),
            SegmentDecodeError::BadKind(5)
        );
    }

    #[test]
    fn checksum_catches_payload_rot() {
        let mut rec = encode_keyframe(1, &[1.0, 2.0, 3.0]);
        rec[HEADER_LEN + 5] ^= 0x01;
        assert!(matches!(
            decode_model(&rec, 1, None),
            Err(SegmentDecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn stale_round_after_reseal_is_round_mismatch() {
        let mut rec = encode_keyframe(7, &[4.0, 5.0]);
        rec[ROUND_FIELD_OFFSET..ROUND_FIELD_OFFSET + 8].copy_from_slice(&3u64.to_le_bytes());
        reseal(&mut rec);
        assert_eq!(
            decode_model(&rec, 7, None),
            Err(SegmentDecodeError::RoundMismatch {
                expected: 7,
                found: 3
            })
        );
        // Without the reseal the checksum fires first.
        let mut rec2 = encode_keyframe(7, &[4.0, 5.0]);
        rec2[ROUND_FIELD_OFFSET] ^= 0x02;
        assert!(matches!(
            decode_model(&rec2, 7, None),
            Err(SegmentDecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn model_vs_direction_kind_confusion_is_typed() {
        let rec = encode_keyframe(0, &[1.0]);
        assert!(matches!(
            decode_directions(&rec, 0),
            Err(SegmentDecodeError::BadKind(1))
        ));
        let dirs = BTreeMap::from([(1 as ClientId, GradientDirection::from_signs(&[1]))]);
        let rec = encode_directions(0, &dirs);
        assert!(matches!(
            decode_model(&rec, 0, None),
            Err(SegmentDecodeError::BadKind(3))
        ));
    }

    #[test]
    fn job_checkpoint_roundtrips_and_is_kind_checked() {
        let payload = vec![7u8, 0, 1, 2, 3, 255];
        let rec = encode_job_checkpoint(42, 9, &payload);
        assert_eq!(framed_len(&rec), Some(rec.len()));
        let (job, next_round, back) = decode_job_checkpoint(&rec).unwrap();
        assert_eq!(job, 42);
        assert_eq!(next_round, 9);
        assert_eq!(back, payload);

        // Kind confusion in both directions is typed.
        assert_eq!(
            decode_model(&rec, 9, None),
            Err(SegmentDecodeError::BadKind(4))
        );
        assert_eq!(
            decode_directions(&rec, 9),
            Err(SegmentDecodeError::BadKind(4))
        );
        let model_rec = encode_keyframe(9, &[1.0]);
        assert_eq!(
            decode_job_checkpoint(&model_rec),
            Err(SegmentDecodeError::BadKind(1))
        );

        // Tearing the sealed record is Truncated, rot is BadChecksum.
        assert_eq!(
            decode_job_checkpoint(&rec[..rec.len() - 3]),
            Err(SegmentDecodeError::Truncated)
        );
        let mut rot = rec;
        rot[HEADER_LEN + 1] ^= 0x10;
        assert!(matches!(
            decode_job_checkpoint(&rot),
            Err(SegmentDecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn framed_len_needs_a_full_header() {
        let rec = encode_job_checkpoint(1, 0, &[9; 16]);
        assert_eq!(framed_len(&rec[..HEADER_LEN - 1]), None);
        assert_eq!(framed_len(&rec[..HEADER_LEN]), Some(rec.len()));
    }

    #[test]
    fn encode_record_frame_into_and_parts_agree() {
        let payload = [7u8, 1, 2, 250, 9, 0, 3];
        let whole = encode_record(RecordKind::SignUpload, 12, 34, &payload);
        let mut scratch = vec![0xAAu8; 3]; // stale contents must be cleared
        frame_into(&mut scratch, RecordKind::SignUpload, 12, 34, &payload);
        assert_eq!(scratch, whole);
        let (header, trailer) = frame_parts(RecordKind::SignUpload, 12, 34, &payload);
        let mut stitched = header.to_vec();
        stitched.extend_from_slice(&payload);
        stitched.extend_from_slice(&trailer);
        assert_eq!(stitched, whole);
        let (kind, round, base, body) = check_record(&whole).unwrap();
        assert_eq!(kind, RecordKind::SignUpload);
        assert_eq!(round, 12);
        assert_eq!(base, 34);
        assert_eq!(body, payload);
    }

    #[test]
    fn wire_kinds_round_trip_codes_and_are_not_models() {
        for kind in [
            RecordKind::Register,
            RecordKind::RoundModel,
            RecordKind::SignUpload,
            RecordKind::GradUpload,
            RecordKind::ForgetRequest,
            RecordKind::Control,
        ] {
            assert_eq!(RecordKind::from_code(kind.code()), Some(kind));
            let rec = encode_record(kind, 0, 0, &[0, 0, 0, 0]);
            assert_eq!(
                decode_model(&rec, 0, None),
                Err(SegmentDecodeError::BadKind(kind.code())),
                "{kind:?} must not decode as a model"
            );
        }
    }

    #[test]
    fn spill_file_appends_and_reads_back() {
        let spill = SpillFile::new();
        assert!(spill.is_empty());
        assert!(!spill.path().exists(), "lazy: no file before first append");

        let a = encode_keyframe(0, &[1.0, 2.0]);
        let b = encode_keyframe(1, &[3.0]);
        let (off_a, len_a) = spill.append(&a).unwrap();
        let (off_b, len_b) = spill.append(&b).unwrap();
        assert_eq!(off_a, 0);
        assert_eq!(off_b, a.len() as u64);
        assert_eq!(spill.len(), (a.len() + b.len()) as u64);

        assert_eq!(spill.read(off_a, len_a).unwrap(), a);
        assert_eq!(spill.read(off_b, len_b).unwrap(), b);

        let path = spill.path();
        assert!(path.exists());
        drop(spill);
        assert!(!path.exists(), "spill file removed on drop");
    }

    #[test]
    fn spill_file_truncation_surfaces_as_truncated() {
        let spill = SpillFile::new();
        let rec = encode_keyframe(0, &vec![1.0f32; 64]);
        let (off, len) = spill.append(&rec).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(spill.path())
            .unwrap()
            .set_len(u64::from(len) - 5)
            .unwrap();
        assert_eq!(spill.read(off, len), Err(SegmentDecodeError::Truncated));
    }

    #[test]
    fn error_display_is_meaningful() {
        assert!(SegmentDecodeError::Truncated
            .to_string()
            .contains("truncated"));
        assert!(SegmentDecodeError::BadMagic(7)
            .to_string()
            .contains("magic"));
        assert!(SegmentDecodeError::MissingBase(3)
            .to_string()
            .contains("base"));
        assert!(SegmentDecodeError::RoundMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("stale"));
        assert!(SegmentDecodeError::BadChecksum {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(SegmentDecodeError::Io("x".into())
            .to_string()
            .contains("i/o"));
        assert!(SegmentDecodeError::BadVersion(9)
            .to_string()
            .contains("version"));
        assert!(SegmentDecodeError::BadKind(9).to_string().contains("kind"));
    }
}
