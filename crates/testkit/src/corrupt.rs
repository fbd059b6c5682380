//! Storage-side corruption shim.
//!
//! [`Corruptor`] mutates the *persisted* artefacts of a run — sealed
//! checkpoint and history files ([`fuiov_storage::segment`]), spill
//! records and live [`HistoryStore`]s — the way an RSU's flaky disk or
//! interrupted write would. Every operation is a pure function of its
//! inputs, so a seeded [`FaultPlan`] fully determines the corruption a
//! run suffers.
//!
//! [`FaultPlan`]: crate::plan::FaultPlan

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};

use fuiov_storage::direction::GradientDirection;
use fuiov_storage::{segment, ClientId, HistoryStore, Round};

/// Namespace for the corruption operations (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Corruptor;

impl Corruptor {
    /// Keeps only a strict prefix of `bytes`. The raw draw from a fault
    /// plan is reduced modulo the blob length, so one plan applies to any
    /// blob; an empty input stays empty.
    pub fn truncate(bytes: &[u8], raw_prefix: usize) -> Vec<u8> {
        if bytes.is_empty() {
            return Vec::new();
        }
        bytes[..raw_prefix % bytes.len()].to_vec()
    }

    /// Scrambles the 4-byte little-endian magic word at the front of a
    /// checkpoint or history file. XOR with a non-zero constant guarantees
    /// the result differs from any valid magic.
    pub fn scramble_magic(bytes: &mut [u8]) {
        for b in bytes.iter_mut().take(4) {
            *b ^= 0x5A;
        }
    }

    /// Overwrites the version field (bytes 4..6, little-endian) with an
    /// unsupported version number.
    pub fn bump_version(bytes: &mut [u8]) {
        if bytes.len() >= 6 {
            bytes[4] = 0xFF;
            bytes[5] = 0xFF;
        }
    }

    /// XOR-flips every bit of one byte (index reduced modulo length).
    pub fn flip_byte(bytes: &mut [u8], raw_index: usize) {
        if bytes.is_empty() {
            return;
        }
        let i = raw_index % bytes.len();
        bytes[i] ^= 0xFF;
    }

    /// Flips the stored sign of the listed `elements` of the direction
    /// recorded for `(round, client)`: `+1 ↔ −1`, and `0 → +1` (a 2-bit
    /// cell changing `00 → 01`). Returns `false` if no direction is
    /// recorded there.
    pub fn flip_signs(
        history: &mut HistoryStore,
        round: Round,
        client: ClientId,
        elements: &[usize],
    ) -> bool {
        let Some(dir) = history.direction(round, client) else {
            return false;
        };
        let mut signs = dir.to_signs();
        for &i in elements {
            if let Some(s) = signs.get_mut(i) {
                *s = match *s {
                    1 => -1,
                    -1 => 1,
                    _ => 1,
                };
            }
        }
        history.record_direction(round, client, GradientDirection::from_signs(&signs));
        true
    }

    /// Replaces the direction stored for `(round, client)` with the one
    /// from `round − lag` — the stale vector-pair source the recovery
    /// stage then seeds from. Returns `false` when either record is
    /// missing (the fault is a no-op on that history).
    pub fn stale_replace(
        history: &mut HistoryStore,
        round: Round,
        client: ClientId,
        lag: usize,
    ) -> bool {
        let Some(older_round) = round.checked_sub(lag) else {
            return false;
        };
        if history.direction(round, client).is_none() {
            return false;
        }
        let Some(older) = history.direction(older_round, client).map(|d| (*d).clone()) else {
            return false;
        };
        history.record_direction(round, client, older);
        true
    }

    /// Drops the model checkpoint recorded for `round`.
    pub fn drop_model(history: &mut HistoryStore, round: Round) -> bool {
        history.remove_model(round).is_some()
    }

    /// Drops the direction recorded for `(round, client)`.
    pub fn drop_direction(history: &mut HistoryStore, round: Round, client: ClientId) -> bool {
        history.remove_direction(round, client).is_some()
    }

    /// Applies every staleness fault of `plan` to `history`, returning how
    /// many actually landed (faults pointing at unrecorded cells are
    /// no-ops).
    pub fn apply_stale_faults(history: &mut HistoryStore, plan: &crate::plan::FaultPlan) -> usize {
        plan.stale_directions()
            .into_iter()
            .filter(|&(client, round, lag)| Self::stale_replace(history, round, client, lag))
            .count()
    }

    /// Ensures `round`'s model lives in the on-disk tier, returning its
    /// `(offset, len)` extent in the spill file. Spills the whole store if
    /// the record is still hot; `None` when no model is recorded at all.
    fn spilled_extent(history: &mut HistoryStore, round: Round) -> Option<(u64, u32)> {
        if history.spilled_model_extent(round).is_none() {
            history.model(round)?;
            history.force_spill_all();
        }
        history.spilled_model_extent(round)
    }

    /// Tears the tail off the spill-segment record holding `round`'s
    /// model, the way a crash mid-append would: the file is cut one byte
    /// short of the record's end, which also destroys any records written
    /// after it. Decoding the round afterwards yields
    /// [`segment::SegmentDecodeError::Truncated`]. Returns `false` when no
    /// model is recorded for `round`.
    pub fn truncate_spill_record(history: &mut HistoryStore, round: Round) -> bool {
        let Some((offset, len)) = Self::spilled_extent(history, round) else {
            return false;
        };
        let Ok(file) = OpenOptions::new().write(true).open(history.spill_path()) else {
            return false;
        };
        if file.set_len(offset + u64::from(len) - 1).is_err() {
            return false;
        }
        history.invalidate_caches();
        true
    }

    /// Flips the final byte (part of the FNV trailer) of the spill-segment
    /// record holding `round`'s model. The frame stays intact, so decoding
    /// yields [`segment::SegmentDecodeError::BadChecksum`] — even for an
    /// empty payload. Returns `false` when no model is recorded for
    /// `round`.
    pub fn corrupt_spill_checksum(history: &mut HistoryStore, round: Round) -> bool {
        let Some((offset, len)) = Self::spilled_extent(history, round) else {
            return false;
        };
        let Ok(mut file) = OpenOptions::new()
            .read(true)
            .write(true)
            .open(history.spill_path())
        else {
            return false;
        };
        let pos = offset + u64::from(len) - 1;
        let mut byte = [0u8; 1];
        if file.seek(SeekFrom::Start(pos)).is_err() || file.read_exact(&mut byte).is_err() {
            return false;
        }
        byte[0] ^= 0xFF;
        if file.seek(SeekFrom::Start(pos)).is_err() || file.write_all(&byte).is_err() {
            return false;
        }
        history.invalidate_caches();
        true
    }

    /// Rewrites the round field of `round`'s spilled record to
    /// `round + shift` and reseals the FNV trailer, producing a
    /// checksum-valid record that belongs to the wrong round — the stale
    /// keyframe an RSU would serve after replaying an old write. Decoding
    /// yields [`segment::SegmentDecodeError::RoundMismatch`]. Returns
    /// `false` when no model is recorded for `round`.
    pub fn stale_keyframe(history: &mut HistoryStore, round: Round, shift: usize) -> bool {
        let Some((offset, len)) = Self::spilled_extent(history, round) else {
            return false;
        };
        let Ok(mut file) = OpenOptions::new()
            .read(true)
            .write(true)
            .open(history.spill_path())
        else {
            return false;
        };
        let mut record = vec![0u8; len as usize];
        if file.seek(SeekFrom::Start(offset)).is_err() || file.read_exact(&mut record).is_err() {
            return false;
        }
        let wrong = (round + shift.max(1)) as u64;
        record[segment::ROUND_FIELD_OFFSET..segment::ROUND_FIELD_OFFSET + 8]
            .copy_from_slice(&wrong.to_le_bytes());
        segment::reseal(&mut record);
        if file.seek(SeekFrom::Start(offset)).is_err() || file.write_all(&record).is_err() {
            return false;
        }
        history.invalidate_caches();
        true
    }

    /// Applies every spill-segment fault of `plan` to `history`, returning
    /// how many landed. Checksum and stale-keyframe faults go first;
    /// truncations last, because tearing the file also destroys every
    /// record appended after the torn one.
    pub fn apply_segment_faults(
        history: &mut HistoryStore,
        plan: &crate::plan::FaultPlan,
    ) -> usize {
        use crate::plan::Fault;
        let faults: Vec<Fault> = plan.segment_faults().into_iter().cloned().collect();
        let mut landed = 0;
        for f in &faults {
            landed += match f {
                Fault::CorruptSpillChecksum { round } => {
                    usize::from(Self::corrupt_spill_checksum(history, *round))
                }
                Fault::StaleKeyframe { round, shift } => {
                    usize::from(Self::stale_keyframe(history, *round, *shift))
                }
                _ => 0,
            };
        }
        for f in &faults {
            if let Fault::TruncateSpillRecord { round } = f {
                landed += usize::from(Self::truncate_spill_record(history, *round));
            }
        }
        landed
    }

    /// Tears the tail off a job-checkpoint log on disk: `set_len` to drop
    /// the last `1 + raw_cut % len` bytes, the way a crash mid-append
    /// leaves a torn record behind ([`Fault::TornJobCheckpoint`]). Returns
    /// `false` (no-op) when the file is missing or empty.
    ///
    /// [`Fault::TornJobCheckpoint`]: crate::plan::Fault::TornJobCheckpoint
    pub fn torn_job_log(path: &std::path::Path, raw_cut: usize) -> bool {
        let Ok(meta) = std::fs::metadata(path) else {
            return false;
        };
        let len = meta.len();
        if len == 0 {
            return false;
        }
        let cut = 1 + (raw_cut as u64) % len;
        let Ok(file) = OpenOptions::new().write(true).open(path) else {
            return false;
        };
        file.set_len(len - cut).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_storage::segment::SegmentDecodeError;

    #[test]
    fn truncate_reduces_modulo_length() {
        let blob = segment::encode_keyframe(0, &[1.0, 2.0]);
        let t = Corruptor::truncate(&blob, blob.len() + 3);
        assert_eq!(t.len(), 3);
        assert!(Corruptor::truncate(&[], 7).is_empty());
    }

    #[test]
    fn scrambled_magic_is_rejected() {
        let mut blob = segment::encode_keyframe(0, &[1.0]);
        Corruptor::scramble_magic(&mut blob);
        assert!(matches!(
            segment::decode_keyframe(&blob),
            Err(SegmentDecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn bumped_version_is_rejected() {
        let mut blob = segment::encode_keyframe(0, &[1.0]);
        Corruptor::bump_version(&mut blob);
        assert!(matches!(
            segment::decode_keyframe(&blob),
            Err(SegmentDecodeError::BadVersion(0xFFFF))
        ));
    }

    #[test]
    fn flip_byte_changes_exactly_one_byte() {
        let blob = segment::encode_keyframe(0, &[3.5, -1.0]);
        let mut mutated = blob.clone();
        Corruptor::flip_byte(&mut mutated, blob.len() + 1);
        let diff: Vec<usize> = (0..blob.len()).filter(|&i| blob[i] != mutated[i]).collect();
        assert_eq!(diff, vec![1]);
    }

    fn tiny_history() -> HistoryStore {
        let mut h = HistoryStore::new(1e-6);
        h.record_model(0, vec![0.0; 4]);
        h.record_model(1, vec![0.1; 4]);
        h.record_join(3, 0);
        h.record_gradient(0, 3, &[0.5, -0.5, 0.0, 0.1]);
        h.record_gradient(1, 3, &[-0.5, 0.5, 0.2, -0.1]);
        h
    }

    #[test]
    fn flip_signs_inverts_selected_elements() {
        let mut h = tiny_history();
        assert!(Corruptor::flip_signs(&mut h, 0, 3, &[0, 2, 99]));
        assert_eq!(h.direction(0, 3).unwrap().to_signs(), vec![-1, -1, 1, 1]);
        assert!(
            !Corruptor::flip_signs(&mut h, 5, 3, &[0]),
            "missing cell is a no-op"
        );
    }

    #[test]
    fn stale_replace_copies_older_direction() {
        let mut h = tiny_history();
        let older = (*h.direction(0, 3).unwrap()).clone();
        assert!(Corruptor::stale_replace(&mut h, 1, 3, 1));
        assert_eq!(h.direction(1, 3).as_deref(), Some(&older));
        // Underflow, missing target, missing source: all no-ops.
        assert!(!Corruptor::stale_replace(&mut h, 0, 3, 1));
        assert!(!Corruptor::stale_replace(&mut h, 7, 3, 1));
    }

    #[test]
    fn segment_faults_yield_typed_errors_never_panics() {
        // Truncation: the torn record reads back as Truncated.
        let mut h = tiny_history();
        assert!(Corruptor::truncate_spill_record(&mut h, 1));
        assert!(matches!(
            h.try_model(1),
            Err(SegmentDecodeError::Truncated | SegmentDecodeError::Io(_))
        ));
        assert!(h.model(1).is_none(), "lenient accessor degrades to None");
        assert!(
            !Corruptor::truncate_spill_record(&mut h, 9),
            "missing round is a no-op"
        );

        // Checksum rot: frame intact, trailer wrong.
        let mut h = tiny_history();
        assert!(Corruptor::corrupt_spill_checksum(&mut h, 0));
        assert!(matches!(
            h.try_model(0),
            Err(SegmentDecodeError::BadChecksum { .. })
        ));
        assert!(h.model(0).is_none());

        // Stale keyframe: checksum-valid record for the wrong round.
        let mut h = tiny_history();
        assert!(Corruptor::stale_keyframe(&mut h, 0, 3));
        assert!(matches!(
            h.try_model(0),
            Err(SegmentDecodeError::RoundMismatch {
                expected: 0,
                found: 3
            })
        ));
        assert!(h.model(0).is_none());
        assert!(h.tier_stats().decode_errors > 0, "errors are counted");
    }

    #[test]
    fn apply_segment_faults_orders_truncation_last() {
        use crate::plan::{Fault, FaultPlan};
        let mut h = tiny_history();
        // Round 0's record precedes round 1's in the spill file; if the
        // truncation at round 0 ran first it would also destroy round 1's
        // record and the checksum fault could not land.
        let plan = FaultPlan::from_faults(
            7,
            vec![
                Fault::TruncateSpillRecord { round: 0 },
                Fault::CorruptSpillChecksum { round: 1 },
            ],
        );
        assert_eq!(Corruptor::apply_segment_faults(&mut h, &plan), 2);
        assert!(h.model(0).is_none());
        assert!(h.model(1).is_none());
    }

    #[test]
    fn drop_operations_remove_records() {
        let mut h = tiny_history();
        assert!(Corruptor::drop_model(&mut h, 1));
        assert!(h.model(1).is_none());
        assert!(!Corruptor::drop_model(&mut h, 1));
        assert!(Corruptor::drop_direction(&mut h, 0, 3));
        assert!(h.direction(0, 3).is_none());
        assert!(!Corruptor::drop_direction(&mut h, 0, 3));
    }
}
