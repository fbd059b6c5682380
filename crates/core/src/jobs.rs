//! Resumable concurrent unlearning job service.
//!
//! A deployment serves *many* forget requests, not one: vehicles leave in
//! bursts, their membership windows overlap, and the server may be
//! preempted or crash mid-replay. This module turns the one-shot
//! [`recover_set`](crate::recover_set) pipeline into a job queue with
//! three guarantees:
//!
//! 1. **Snapshot isolation** — each job captures
//!    [`HistoryStore::snapshot`] at submission, a copy-on-write clone
//!    (`Arc`'d round slots + shared spill file), so training rounds
//!    appended afterwards never shift a running job's replay window.
//! 2. **Crash-safe resume** — every `checkpoint_interval` replayed rounds
//!    the job seals a checkpoint. In memory that is a clone of its
//!    `ReplayState` which shares every pair row with the live state (the
//!    rows are immutable `Arc<[f32]>`s), so a seal copies the model, the
//!    update norms and O(n) bookkeeping, never a row. Only with a
//!    [`JobLog`] attached is the state also serialised, into an
//!    FNV-framed [`RecordKind::JobCheckpoint`] segment record. A
//!    preempted job resumes from its held clone; a crashed or restarted
//!    one from its newest decodable logged record. Either way the resumed
//!    model is **bitwise identical** to the uninterrupted run: the clone
//!    is the state itself, and the codec round-trips every
//!    arithmetic-relevant bit (`f32` payloads travel as raw bits, L-BFGS
//!    approximations are rebuilt from their exact factor columns, and the
//!    rebuilt stack must reproduce the sealed
//!    [`StackedLbfgs::fingerprint`]).
//! 3. **Cross-job batched replay** — jobs replaying the same round share
//!    one fused inbound sweep ([`fused_dots_multi`]): the concatenation of
//!    their stacks is dotted against their per-job `w̄ₜ − wₜ` vectors in a
//!    single parallel row-band pass, and each job's middle solves consume
//!    its slice unchanged. Per-column purity makes the batched sweep
//!    bit-for-bit the per-job sweep (see `crates/core/src/batch.rs`), so
//!    concurrency is an optimisation, never a semantic.
//!
//! Determinism boundary: everything a future round's arithmetic can
//! observe lives in `ReplayState` and is checkpointed; scratch arenas,
//! caches, and schedules are reconstructed and provably don't move bits
//! (DESIGN.md §5 "Recovery job service").
//!
//! [`JobService::submit`] is the job path's one way in: it takes a
//! forgotten set, as [`recover_set`](crate::recover_set) does, and jobs
//! always replay unscoped (the subtree-scoped replay of
//! [`recover_vehicle`](crate::recover_vehicle) is one-shot only). The
//! checkpoint interval is set with [`JobConfig::checkpoint_interval`],
//! never from the environment.
//!
//! [`RecordKind::JobCheckpoint`]: fuiov_storage::segment::RecordKind

use crate::batch::{fused_dots_multi, RoundScratch, StackedLbfgs};
use crate::error::UnlearnError;
use crate::lbfgs::{LbfgsApprox, PairBuffer};
use crate::recover::{GradientOracle, RecoveryConfig, RecoveryOutcome, ReplayState};
use fuiov_storage::segment::{self, SegmentDecodeError};
use fuiov_storage::{ClientId, HistoryStore, Round};
use fuiov_tensor::simd::AVec;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one submitted unlearning job for its whole life, including
/// across process restarts (ids are recovered from the job log).
pub type JobId = u64;

/// One valid record recovered from a [`JobLog`]: the job it belongs to,
/// the round the job will replay next, and the sealed state payload.
pub type LoggedCheckpoint = (JobId, Round, Vec<u8>);

/// Version tag leading every checkpoint payload; bump on layout change.
/// v2 appended a replay-scope tag and a sibling-reuse tally at the payload
/// tail (so [`peek_forgotten`]'s fixed header offsets survived). Jobs
/// never replay scoped, so the tail is always tag `0` and a zero tally;
/// it stays so every sealed byte keeps its layout.
const STATE_VERSION: u16 = 2;

/// Default rounds between sealed checkpoints.
const DEFAULT_CHECKPOINT_INTERVAL: usize = 4;

static LOG_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Knobs of the job service, layered over the per-job [`RecoveryConfig`].
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    /// Replay configuration shared by every job (the resume contract
    /// requires resuming under the same configuration that sealed the
    /// checkpoint).
    pub recovery: RecoveryConfig,
    /// Replayed rounds between sealed checkpoints (≥ 1; default 4, set
    /// with [`JobConfig::checkpoint_interval`]).
    pub checkpoint_interval: usize,
    /// Whether jobs sharing a replay round share one fused inbound sweep.
    /// Off forces the per-job sweep; outputs are bitwise identical either
    /// way (the differential oracles assert it).
    pub cross_job_batching: bool,
}

impl JobConfig {
    /// A config with a checkpoint every 4 replayed rounds and cross-job
    /// batching on.
    pub fn new(recovery: RecoveryConfig) -> Self {
        JobConfig {
            recovery,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            cross_job_batching: true,
        }
    }

    /// Overrides the checkpoint interval (clamped to ≥ 1).
    pub fn checkpoint_interval(mut self, rounds: usize) -> Self {
        self.checkpoint_interval = rounds.max(1);
        self
    }

    /// Enables or disables cross-job batched replay.
    pub fn cross_job_batching(mut self, on: bool) -> Self {
        self.cross_job_batching = on;
        self
    }
}

// ---------------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Writes a length-prefixed row of raw `f32` bits, sizing the row's bytes
/// with one `resize` and filling them in place.
fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_u32(out, xs.len() as u32);
    let start = out.len();
    out.resize(start + 4 * xs.len(), 0);
    for (dst, x) in out[start..].chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[ClientId]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u64(out, id as u64);
    }
}

/// Byte-slice reader: every read is bounds-checked into a typed
/// [`UnlearnError::BadJobCheckpoint`] so a short (but FNV-clean) payload
/// can never panic the service.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], UnlearnError> {
        if self.buf.len() < n {
            return Err(UnlearnError::BadJobCheckpoint("truncated payload"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, UnlearnError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, UnlearnError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, UnlearnError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, UnlearnError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` raw `f32`s into `out`. The bytes are taken (and so
    /// bounds-checked against the payload) before anything is reserved: a
    /// length field that claims more than the payload holds fails typed
    /// instead of allocating for it.
    fn f32s_exact(&mut self, n: usize, out: &mut Vec<f32>) -> Result<(), UnlearnError> {
        let len = n
            .checked_mul(4)
            .ok_or(UnlearnError::BadJobCheckpoint("truncated payload"))?;
        let bytes = self.take(len)?;
        out.clear();
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))),
        );
        Ok(())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, UnlearnError> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        self.f32s_exact(n, &mut out)?;
        Ok(out)
    }

    /// Reads one length-prefixed pair row of `dim` elements as a shared
    /// row, interned by content: a row whose bytes equal one already read
    /// from this payload is that row's handle, not a copy.
    fn row(
        &mut self,
        dim: usize,
        rows: &mut BTreeMap<&'a [u8], Arc<[f32]>>,
    ) -> Result<Arc<[f32]>, UnlearnError> {
        let n = self.u32()? as usize;
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or(UnlearnError::BadJobCheckpoint("truncated payload"))?,
        )?;
        if n != dim {
            return Err(UnlearnError::BadJobCheckpoint("pair dimension mismatch"));
        }
        Ok(Arc::clone(rows.entry(bytes).or_insert_with(|| {
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect()
        })))
    }

    fn ids(&mut self) -> Result<Vec<ClientId>, UnlearnError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.buf.len() / 8));
        for _ in 0..n {
            out.push(self.u64()? as ClientId);
        }
        Ok(out)
    }
}

/// Serialises everything a future round's arithmetic can observe, for the
/// job log (an in-memory checkpoint is a state clone and is never
/// encoded). The sealed stack fingerprint is of the state's *current*
/// stack, so callers flush a dirty stack (rebuild it) before encoding —
/// [`JobService`] does.
fn encode_state(state: &ReplayState) -> Vec<u8> {
    let dim = state.params.len();
    let mut out = Vec::with_capacity(64 + dim * 4);
    out.extend_from_slice(&STATE_VERSION.to_le_bytes());
    put_u64(&mut out, state.f_round as u64);
    put_u64(&mut out, state.t_end as u64);
    put_u64(&mut out, state.next_round as u64);
    put_u64(&mut out, state.estimator_fallbacks as u64);
    put_u64(&mut out, state.oracle_queries as u64);
    put_u32(&mut out, state.prev_dw_norm.to_bits());
    put_u64(&mut out, state.growth_run as u64);
    out.push(u8::from(state.stacked_dirty));
    put_u64(&mut out, state.stacked.fingerprint());
    put_ids(&mut out, &state.forgotten);
    put_ids(&mut out, &state.remaining);
    put_f32s(&mut out, &state.params);
    put_f32s(&mut out, &state.update_norms);
    put_u32(&mut out, state.buffers.len() as u32);
    for (client, buf) in &state.buffers {
        put_u64(&mut out, *client as u64);
        put_u32(&mut out, buf.capacity() as u32);
        put_u32(&mut out, buf.len() as u32);
        for (dw, dg) in buf.pairs() {
            put_f32s(&mut out, dw);
            put_f32s(&mut out, dg);
        }
    }
    put_u32(&mut out, state.approxes.len() as u32);
    for (client, approx) in &state.approxes {
        put_u64(&mut out, *client as u64);
        put_u32(&mut out, approx.pairs() as u32);
        for (dw, dg) in approx.dw_rows().iter().zip(approx.dg_rows()) {
            put_f32s(&mut out, dw);
            put_f32s(&mut out, dg);
        }
    }
    // v2 tail: no replay scope (tag 0) and no sibling reuses — jobs
    // always replay unscoped (see `STATE_VERSION`).
    out.push(0);
    put_u64(&mut out, 0);
    out
}

/// Rebuilds a [`ReplayState`] from a sealed payload under `config`.
///
/// The L-BFGS stack is rebuilt from the deserialised approximations and
/// must reproduce the sealed fingerprint; a mismatch means a resumed
/// replay could silently diverge, so it fails typed instead.
fn decode_state(payload: &[u8], config: &RecoveryConfig) -> Result<ReplayState, UnlearnError> {
    let mut r = Reader { buf: payload };
    if r.u16()? != STATE_VERSION {
        return Err(UnlearnError::BadJobCheckpoint("unknown state version"));
    }
    let f_round = r.u64()? as Round;
    let t_end = r.u64()? as Round;
    let next_round = r.u64()? as Round;
    // A sealed state is always mid-replay: F ≤ next < T. Anything else
    // would replay rounds outside the window (or count them backwards).
    if !(f_round <= next_round && next_round < t_end) {
        return Err(UnlearnError::BadJobCheckpoint("rounds out of order"));
    }
    let estimator_fallbacks = r.u64()? as usize;
    let oracle_queries = r.u64()? as usize;
    let prev_dw_norm = f32::from_bits(r.u32()?);
    let growth_run = r.u64()? as usize;
    let stacked_dirty = r.u8()? != 0;
    let sealed_fingerprint = r.u64()?;
    let forgotten = r.ids()?;
    let remaining = r.ids()?;
    let params = r.f32s()?;
    let update_norms = r.f32s()?;
    if update_norms.len() != next_round - f_round {
        return Err(UnlearnError::BadJobCheckpoint(
            "update norms disagree with the replayed rounds",
        ));
    }
    let dim = params.len();
    // Every pair row of the payload, by content. A live replay shares one
    // ΔW row among all clients with a pair from the same round (and one
    // ΔG row between a client's buffer and its approximation); interning
    // by content gives the resumed state the same sharing, so it stacks
    // as few rows. Sharing never changes a bit, only memory.
    let mut rows: BTreeMap<&[u8], Arc<[f32]>> = BTreeMap::new();

    let n_buffers = r.u32()? as usize;
    let mut buffers: BTreeMap<ClientId, PairBuffer> = BTreeMap::new();
    for _ in 0..n_buffers {
        let client = r.u64()? as ClientId;
        let capacity = r.u32()? as usize;
        if capacity == 0 {
            return Err(UnlearnError::BadJobCheckpoint("zero-capacity pair buffer"));
        }
        // Every buffer is created at the replay's buffer size, and the
        // resume contract is the sealing config — so any other capacity
        // is corrupt, and is refused before a buffer is sized by it.
        if capacity != config.buffer_size {
            return Err(UnlearnError::BadJobCheckpoint(
                "pair buffer capacity differs from the buffer size",
            ));
        }
        let n_pairs = r.u32()? as usize;
        if n_pairs > capacity {
            return Err(UnlearnError::BadJobCheckpoint("pair count over capacity"));
        }
        let mut buf = PairBuffer::new(capacity);
        for _ in 0..n_pairs {
            let dw = r.row(dim, &mut rows)?;
            let dg = r.row(dim, &mut rows)?;
            buf.push(dw, dg);
        }
        buffers.insert(client, buf);
    }

    let n_approxes = r.u32()? as usize;
    let mut approxes: BTreeMap<ClientId, LbfgsApprox> = BTreeMap::new();
    for _ in 0..n_approxes {
        let client = r.u64()? as ClientId;
        let s = r.u32()? as usize;
        // Each pair occupies at least its two length fields.
        let mut dws = Vec::with_capacity(s.min(r.buf.len() / 8));
        let mut dgs = Vec::with_capacity(s.min(r.buf.len() / 8));
        for _ in 0..s {
            dws.push(r.row(dim, &mut rows)?);
            dgs.push(r.row(dim, &mut rows)?);
        }
        // Rebuilding from the exact factor columns recomputes σ and the
        // middle LU from bit-identical inputs, so the approximation (and
        // therefore every future correction) is bit-identical too.
        let approx = LbfgsApprox::from_rows(dws, dgs)
            .map_err(|_| UnlearnError::BadJobCheckpoint("factor columns rejected"))?;
        approxes.insert(client, approx);
    }

    // The sealing path flushes the stack before encoding, so rebuild it
    // here and hold it to the sealed fingerprint.
    let stacked = if config.hessian_correction && !stacked_dirty {
        StackedLbfgs::build(dim, approxes.iter().map(|(c, a)| (*c, a)))
    } else {
        StackedLbfgs::build(dim, std::iter::empty())
    };
    let found = stacked.fingerprint();
    if found != sealed_fingerprint {
        return Err(UnlearnError::StackFingerprintMismatch {
            expected: sealed_fingerprint,
            found,
        });
    }

    // Jobs never replay scoped: a tail naming a scope, or sibling reuses,
    // was not sealed by this service.
    if r.u8()? != 0 {
        return Err(UnlearnError::BadJobCheckpoint("scoped checkpoint"));
    }
    if r.u64()? != 0 {
        return Err(UnlearnError::BadJobCheckpoint("sibling reuses in a job"));
    }

    Ok(ReplayState {
        config: *config,
        forgotten,
        f_round,
        t_end,
        next_round,
        params,
        remaining,
        scope: None,
        buffers,
        approxes,
        prev_dw_norm,
        growth_run,
        estimator_fallbacks,
        sibling_reuses: 0,
        oracle_queries,
        update_norms,
        stacked,
        stacked_dirty,
        roster: Vec::new(),
        weights: Vec::new(),
    })
}

/// Reads just the forgotten set out of a sealed payload (for matching
/// resubmitted requests to logged jobs without a full decode).
fn peek_forgotten(payload: &[u8]) -> Option<Vec<ClientId>> {
    let mut r = Reader { buf: payload };
    if r.u16().ok()? != STATE_VERSION {
        return None;
    }
    r.take(8 * 5 + 4 + 8 + 1 + 8).ok()?;
    r.ids().ok()
}

// ---------------------------------------------------------------------------
// Job log
// ---------------------------------------------------------------------------

/// Append-only file of FNV-sealed [`RecordKind::JobCheckpoint`] records —
/// the durable side of the service. Opening scans the file front to back,
/// keeps every record whose framing checks out, and truncates a torn tail
/// (a crash mid-append, or a fault-injected `set_len`) so new seals land
/// after the last valid record.
///
/// [`RecordKind::JobCheckpoint`]: fuiov_storage::segment::RecordKind
#[derive(Debug)]
pub struct JobLog {
    path: PathBuf,
    file: std::fs::File,
    delete_on_drop: bool,
}

impl JobLog {
    /// Opens (creating if missing) the log at `path`, returning the log
    /// positioned to append plus every valid `(job, next_round, payload)`
    /// record in file order.
    ///
    /// # Errors
    ///
    /// Propagates file open/read/truncate errors.
    pub fn open(path: &Path) -> std::io::Result<(JobLog, Vec<LoggedCheckpoint>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(len) = segment::framed_len(&bytes[pos..]) else {
                break; // torn header
            };
            if pos + len > bytes.len() {
                break; // torn payload/trailer
            }
            match segment::decode_job_checkpoint(&bytes[pos..pos + len]) {
                Ok((job, round, payload)) => records.push((job, round, payload)),
                Err(SegmentDecodeError::BadKind(_)) => {
                    // Foreign-but-intact record: skip it, keep scanning.
                }
                Err(_) => break, // corrupt from here on
            }
            pos += len;
        }
        if pos as u64 != file.metadata()?.len() {
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok((
            JobLog {
                path: path.to_path_buf(),
                file,
                delete_on_drop: false,
            },
            records,
        ))
    }

    /// A log at a fresh temp path, deleted on drop (for tests and
    /// ephemeral services).
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    pub fn temp() -> std::io::Result<JobLog> {
        let path = std::env::temp_dir().join(format!(
            "fuiov-joblog-{}-{}.seg",
            std::process::id(),
            LOG_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let (mut log, _) = Self::open(&path)?;
        log.delete_on_drop = true;
        Ok(log)
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one sealed checkpoint record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append(&mut self, job: JobId, next_round: Round, payload: &[u8]) -> std::io::Result<()> {
        let record = segment::encode_job_checkpoint(job, next_round, payload);
        self.file.write_all(&record)?;
        self.file.flush()
    }
}

impl Drop for JobLog {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Where a job is in its life cycle.
#[derive(Debug)]
enum JobPhase {
    /// Submitted (or preempted) and waiting for activation on the next
    /// [`JobService::step`]; activation resumes from the newest decodable
    /// checkpoint if one exists.
    Pending,
    /// Mid-replay.
    Running(Box<ReplayState>),
    /// Replay finished.
    Done(RecoveryOutcome),
    /// Replay failed; the error is handed out by
    /// [`JobService::take_outcome`].
    Failed(UnlearnError),
}

#[derive(Debug)]
struct Job {
    forgotten: Vec<ClientId>,
    /// Copy-on-write history snapshot taken at submission.
    snapshot: HistoryStore,
    phase: JobPhase,
    /// The checkpoint the job resumes from: a clone of its replay state
    /// at its newest seal, or the state decoded from an adopted log
    /// record. It shares every pair row with the live state, so it holds
    /// its own model, update norms and O(n) bookkeeping, and keeps rows
    /// the live state has since evicted alive only until the next seal
    /// replaces it. A finished job drops it.
    checkpoint: Option<Box<ReplayState>>,
    /// Per-job scratch arena — jobs batched into one cross-job sweep need
    /// their `w̄ₜ − wₜ` vectors alive simultaneously.
    scratch: RoundScratch,
    rounds_since_checkpoint: usize,
}

impl Job {
    /// Ends the replay in `phase` (done or failed). The held checkpoint
    /// goes with it: nothing resumes a finished job.
    fn end(&mut self, phase: JobPhase) {
        self.phase = phase;
        self.checkpoint = None;
    }
}

/// The recovery job queue: submit forget requests, [`JobService::step`]
/// until idle (or let [`JobService::run_to_completion`] drive), collect
/// outcomes. See the module docs for the isolation / resume / batching
/// contracts.
#[derive(Debug)]
pub struct JobService {
    config: JobConfig,
    jobs: BTreeMap<JobId, Job>,
    next_id: JobId,
    log: Option<JobLog>,
    /// Checkpoint payloads adopted from the log, newest last, for logged
    /// jobs not yet activated. They stay bytes until the job's first
    /// activation takes them and decodes the newest one it can, which
    /// becomes the job's held checkpoint.
    records: BTreeMap<JobId, Vec<(Round, Vec<u8>)>>,
    /// Sorted-deduped forgotten set → job, for duplicate submissions.
    dedup: BTreeMap<Vec<ClientId>, JobId>,
}

impl JobService {
    /// An in-memory service (checkpoints live only in the process; resume
    /// still works across [`JobService::preempt`], not across crashes).
    pub fn new(config: JobConfig) -> Self {
        JobService {
            config,
            jobs: BTreeMap::new(),
            next_id: 0,
            log: None,
            records: BTreeMap::new(),
            dedup: BTreeMap::new(),
        }
    }

    /// A service backed by `log`. Checkpoints already in the log are
    /// adopted: a later [`JobService::submit`] whose forgotten set matches
    /// a logged job reuses that job's id and resumes from its newest
    /// checkpoint — the crash-recovery path.
    pub fn with_log(config: JobConfig, log: JobLog, logged: Vec<LoggedCheckpoint>) -> Self {
        let mut records: BTreeMap<JobId, Vec<(Round, Vec<u8>)>> = BTreeMap::new();
        let mut next_id = 0;
        for (job, round, payload) in logged {
            next_id = next_id.max(job + 1);
            records.entry(job).or_default().push((round, payload));
        }
        JobService {
            config,
            jobs: BTreeMap::new(),
            next_id,
            log: Some(log),
            records,
            dedup: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Submits a forget request for `forgotten`, snapshotting `history`.
    /// A duplicate of a live job's set returns the existing id; a set
    /// matching a logged (crashed) job adopts that job's id and will
    /// resume from its checkpoints.
    pub fn submit(&mut self, history: &HistoryStore, forgotten: &[ClientId]) -> JobId {
        let mut key: Vec<ClientId> = forgotten.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&id) = self.dedup.get(&key) {
            fuiov_obs::counter!("jobs.duplicates").inc();
            return id;
        }
        let id = self
            .records
            .iter()
            .find(|(id, recs)| {
                !self.jobs.contains_key(id)
                    && recs
                        .last()
                        .and_then(|(_, p)| peek_forgotten(p))
                        .is_some_and(|mut f| {
                            f.sort_unstable();
                            f.dedup();
                            f == key
                        })
            })
            .map(|(&id, _)| id)
            .unwrap_or_else(|| {
                let id = self.next_id;
                self.next_id += 1;
                id
            });
        self.jobs.insert(
            id,
            Job {
                forgotten: forgotten.to_vec(),
                snapshot: history.snapshot(),
                phase: JobPhase::Pending,
                checkpoint: None,
                scratch: RoundScratch::new(),
                rounds_since_checkpoint: 0,
            },
        );
        self.dedup.insert(key, id);
        fuiov_obs::counter!("jobs.submitted").inc();
        fuiov_obs::journal::instant("jobs.submit", id, forgotten.len() as u64);
        id
    }

    /// Drops a running job's in-memory replay state, as a preemption or
    /// crash would. The job stays queued; the next [`JobService::step`]
    /// resumes it from its newest sealed checkpoint (or from scratch if
    /// none sealed).
    pub fn preempt(&mut self, id: JobId) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if matches!(job.phase, JobPhase::Running(_)) {
                job.phase = JobPhase::Pending;
                job.rounds_since_checkpoint = 0;
                fuiov_obs::counter!("jobs.preempted").inc();
            }
        }
    }

    /// Number of jobs not yet finished (pending or running).
    pub fn active_jobs(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| matches!(j.phase, JobPhase::Pending | JobPhase::Running(_)))
            .count()
    }

    /// Removes and returns a finished job's outcome (`None` while it is
    /// still pending/running or was never submitted).
    pub fn take_outcome(&mut self, id: JobId) -> Option<Result<RecoveryOutcome, UnlearnError>> {
        match self.jobs.get(&id)?.phase {
            JobPhase::Done(_) | JobPhase::Failed(_) => {}
            _ => return None,
        }
        let job = self.jobs.remove(&id)?;
        self.dedup.retain(|_, v| *v != id);
        match job.phase {
            JobPhase::Done(outcome) => Some(Ok(outcome)),
            JobPhase::Failed(err) => Some(Err(err)),
            _ => unreachable!("phase checked above"),
        }
    }

    /// Activates every pending job (resuming from checkpoints where
    /// possible), then advances every running job by exactly one replayed
    /// round — one cross-job fused sweep per shared round when batching is
    /// on — sealing checkpoints as intervals elapse. Returns whether any
    /// job still has work.
    pub fn step(&mut self, oracle: &mut dyn GradientOracle) -> bool {
        self.activate(oracle);

        // Group running jobs by the round they are about to replay.
        let mut by_round: BTreeMap<Round, Vec<JobId>> = BTreeMap::new();
        for (&id, job) in &self.jobs {
            if let JobPhase::Running(state) = &job.phase {
                by_round.entry(state.next_round).or_default().push(id);
            }
        }

        for ids in by_round.values() {
            self.step_round(ids);
        }
        self.active_jobs() > 0
    }

    /// Drives [`JobService::step`] until every job is done or failed.
    pub fn run_to_completion(&mut self, oracle: &mut dyn GradientOracle) {
        while self.step(oracle) {}
    }

    fn activate(&mut self, oracle: &mut dyn GradientOracle) {
        let ids: Vec<JobId> = self.jobs.keys().copied().collect();
        for id in ids {
            let job = self.jobs.get_mut(&id).expect("id just listed");
            if !matches!(job.phase, JobPhase::Pending) {
                continue;
            }
            // A logged job's first activation takes its adopted records and
            // tries them newest first, skipping any that fail to decode
            // (torn log tails never reach here — JobLog truncates them —
            // but a version bump or fingerprint mismatch does). The first
            // that decodes becomes the held checkpoint.
            let adopted = self.records.remove(&id).unwrap_or_default();
            for (_, payload) in adopted.iter().rev() {
                match decode_state(payload, &self.config.recovery) {
                    Ok(state) => {
                        job.checkpoint = Some(Box::new(state));
                        break;
                    }
                    Err(_) => {
                        fuiov_obs::counter!("jobs.checkpoint_decode_failures").inc();
                    }
                }
            }
            match &job.checkpoint {
                // Run a clone, so the held checkpoint survives a second
                // preemption before the next seal.
                Some(held) => {
                    fuiov_obs::counter!("jobs.resumed").inc();
                    fuiov_obs::journal::instant("jobs.resume", id, held.next_round as u64);
                    job.phase = JobPhase::Running(held.clone());
                }
                None => match ReplayState::init_scoped(
                    &job.snapshot,
                    &job.forgotten,
                    None,
                    &self.config.recovery,
                    oracle,
                ) {
                    Ok(state) => {
                        fuiov_obs::counter!("jobs.started").inc();
                        job.phase = JobPhase::Running(Box::new(state));
                        // Seal the round-zero checkpoint so "resume at
                        // every boundary" includes a crash before the
                        // first interval elapses.
                        self.seal(id);
                    }
                    Err(err) => {
                        fuiov_obs::counter!("jobs.failed").inc();
                        job.end(JobPhase::Failed(err));
                    }
                },
            }
        }
    }

    /// Advances every job in `ids` (all about to replay the same round) by
    /// one round, sharing one fused sweep when batching is on.
    fn step_round(&mut self, ids: &[JobId]) {
        let mut swept: Vec<(JobId, usize)> = Vec::new();
        if self.config.cross_job_batching && ids.len() > 1 {
            // Phase 1: per job, compute w̄ₜ − wₜ into its own scratch and
            // flush a dirty stack — the sweep inputs.
            for &id in ids {
                let job = self.jobs.get_mut(&id).expect("grouped id exists");
                let JobPhase::Running(state) = &mut job.phase else {
                    continue;
                };
                match state.prepare_sweep(&job.snapshot, &mut job.scratch) {
                    Ok(true) => swept.push((id, state.stacked.total_columns())),
                    Ok(false) => {}
                    Err(err) => {
                        fuiov_obs::counter!("jobs.failed").inc();
                        job.end(JobPhase::Failed(err));
                    }
                }
            }
        }
        // Phase 2: ONE row-band pass over the concatenation of the swept
        // jobs' stacks. Bitwise: each output slot is a pure per-column
        // function, so every job's slice equals its own fused_dots.
        let mut dots = AVec::new();
        if swept.len() > 1 {
            let groups: Vec<(&StackedLbfgs, &[f32])> = swept
                .iter()
                .map(|(id, _)| {
                    let job = &self.jobs[id];
                    let JobPhase::Running(state) = &job.phase else {
                        unreachable!("swept job is running");
                    };
                    (&state.stacked, &job.scratch.dw_t[..])
                })
                .collect();
            fused_dots_multi(&groups, &mut dots);
            fuiov_obs::counter!("jobs.cross_job_sweeps").inc();
        } else {
            swept.clear(); // a lone swept job just runs its own sweep
        }
        // Phase 3: step each job, handing swept jobs their dots slice.
        let mut offset = 0usize;
        let mut swept_iter = swept.iter().peekable();
        for &id in ids {
            let slice = match swept_iter.peek() {
                Some(&&(swept_id, cols)) if swept_id == id => {
                    swept_iter.next();
                    let s = offset..offset + cols;
                    offset = s.end;
                    Some(s)
                }
                _ => None,
            };
            let job = self.jobs.get_mut(&id).expect("grouped id exists");
            let JobPhase::Running(state) = &mut job.phase else {
                continue;
            };
            let step = state.step(
                &job.snapshot,
                &mut job.scratch,
                slice.map(|s| &dots[s]),
                &mut |_, _| {},
            );
            match step {
                Ok(()) => {
                    job.rounds_since_checkpoint += 1;
                    if state.is_done() {
                        let state = match std::mem::replace(&mut job.phase, JobPhase::Pending) {
                            JobPhase::Running(state) => state,
                            _ => unreachable!("state matched running above"),
                        };
                        let outcome = state.finish();
                        fuiov_obs::counter!("jobs.completed").inc();
                        fuiov_obs::journal::instant(
                            "jobs.done",
                            id,
                            outcome.rounds_replayed as u64,
                        );
                        job.end(JobPhase::Done(outcome));
                    } else if job.rounds_since_checkpoint >= self.config.checkpoint_interval {
                        self.seal(id);
                    }
                }
                Err(err) => {
                    fuiov_obs::counter!("jobs.failed").inc();
                    job.end(JobPhase::Failed(err));
                }
            }
        }
    }

    /// Seals the job's current replay state: a clone of it becomes the
    /// job's only in-memory checkpoint, replacing the previous one (no
    /// older checkpoint is ever needed again), and its bytes go to the log
    /// if one is attached. The clone shares every pair row with the live
    /// state, so without a log no row is copied or serialised.
    /// Flushes a dirty stack first so the sealed fingerprint describes the
    /// stack a resume will rebuild — a pure computation the uninterrupted
    /// run performs lazily on its next round, so flushing early moves no
    /// bit.
    fn seal(&mut self, id: JobId) {
        let job = self.jobs.get_mut(&id).expect("sealing a live job");
        let JobPhase::Running(state) = &mut job.phase else {
            return;
        };
        state.flush_stack();
        let next_round = state.next_round;
        if let Some(log) = &mut self.log {
            if log.append(id, next_round, &encode_state(state)).is_err() {
                fuiov_obs::counter!("jobs.log_write_failures").inc();
            }
        }
        job.checkpoint = Some(state.clone());
        job.rounds_since_checkpoint = 0;
        fuiov_obs::counter!("jobs.checkpoints_sealed").inc();
        fuiov_obs::journal::instant("jobs.checkpoint", id, next_round as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_log_survives_reopen_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "fuiov-joblog-test-{}-{}",
            std::process::id(),
            LOG_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("jobs.seg");

        let (mut log, records) = JobLog::open(&path).expect("fresh log");
        assert!(records.is_empty());
        log.append(3, 5, b"alpha").expect("append");
        log.append(3, 9, b"beta").expect("append");
        log.append(4, 2, b"gamma").expect("append");
        drop(log);

        let (log, records) = JobLog::open(&path).expect("reopen");
        let got: Vec<(JobId, Round, &[u8])> = records
            .iter()
            .map(|(j, r, p)| (*j, *r, p.as_slice()))
            .collect();
        assert_eq!(
            got,
            vec![
                (3, 5, b"alpha".as_slice()),
                (3, 9, b"beta".as_slice()),
                (4, 2, b"gamma".as_slice())
            ]
        );

        // Tear the tail mid-record; reopen keeps the intact prefix and
        // truncates the wreckage so appends land after "beta".
        drop(log);
        let full = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("reopen rw");
        f.set_len(full - 7).expect("tear");
        drop(f);
        let (mut log, records) = JobLog::open(&path).expect("reopen torn");
        assert_eq!(records.len(), 2, "torn third record dropped");
        log.append(5, 1, b"delta").expect("append after tear");
        drop(log);
        let (_log, records) = JobLog::open(&path).expect("reopen again");
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].0, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_is_also_dropped() {
        let mut log = JobLog::temp().expect("temp log");
        log.append(1, 1, b"one").expect("append");
        let path = log.path().to_path_buf();
        // Append 3 stray bytes — less than a header.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("rw");
            f.write_all(&[0xde, 0xad, 0xbe]).expect("stray");
        }
        let (_log2, records) = JobLog::open(&path).expect("reopen");
        assert_eq!(records.len(), 1);
    }

    /// Sign-alternating federation (period 3) with staggered joins, so
    /// two forget sets replay overlapping windows on a live stack.
    fn history() -> HistoryStore {
        let (dim, rounds, joins) = (24, 14, [0usize, 3, 0, 2, 0]);
        let mut h = HistoryStore::new(1e-6);
        for (c, &join) in joins.iter().enumerate() {
            h.record_join(c, join);
        }
        let mut w: Vec<f32> = (0..dim).map(|j| 0.2 * (j as f32 + 1.0)).collect();
        for t in 0..rounds {
            h.record_model(t, w.clone());
            let mut grads = Vec::new();
            for (c, _) in joins.iter().enumerate().filter(|&(_, &join)| t >= join) {
                let g: Vec<f32> = (0..dim)
                    .map(|j| {
                        let sign = if (t + j) % 3 < 2 { 1.0f32 } else { -1.0 };
                        sign * (1.0 + 0.1 * c as f32 + 0.05 * j as f32)
                    })
                    .collect();
                h.record_gradient(t, c, &g);
                grads.push(g);
            }
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let agg = fuiov_tensor::vector::weighted_mean(&refs, &vec![1.0; refs.len()]);
            fuiov_tensor::vector::axpy(-0.05, &agg, &mut w);
        }
        h.record_model(rounds, w);
        h
    }

    #[test]
    fn a_live_job_holds_only_its_newest_checkpoint() {
        let h = history();
        let recovery = RecoveryConfig::new(0.05).pair_refresh_interval(3);
        let sets: [&[ClientId]; 2] = [&[1], &[3]];
        let mut svc = JobService::new(JobConfig::new(recovery).checkpoint_interval(1));
        let ids: Vec<JobId> = sets.iter().map(|s| svc.submit(&h, s)).collect();
        let mut steps = 0;
        while svc.step(&mut crate::NoOracle) {
            steps += 1;
            for &id in &ids {
                let job = &svc.jobs[&id];
                if let JobPhase::Running(live) = &job.phase {
                    // Exactly one checkpoint, sealed after this step
                    // (the interval is one round), and no adopted bytes.
                    let held = job.checkpoint.as_ref().unwrap_or_else(|| {
                        panic!("job {id} holds no checkpoint after step {steps}")
                    });
                    assert_eq!(held.next_round, live.next_round, "job {id}, step {steps}");
                    assert!(!svc.records.contains_key(&id), "job {id}, step {steps}");
                } else {
                    assert!(job.checkpoint.is_none(), "finished job {id} holds one");
                }
            }
            // Preempt at several boundaries: resume must come from the
            // one checkpoint held.
            if steps % 3 == 1 {
                ids.iter().for_each(|&id| svc.preempt(id));
            }
        }
        assert!(steps > 6, "only {steps} steps");
        for (&id, set) in ids.iter().zip(sets) {
            let got = svc.take_outcome(id).expect("finished").expect("ok");
            let want = crate::recover_set(&h, set, &recovery, &mut crate::NoOracle, |_, _| {})
                .expect("one-shot recovery");
            assert_eq!(bits(&got.params), bits(&want.params), "job {id}");
            assert_eq!(bits(&got.update_norms), bits(&want.update_norms));
            assert!(!svc.records.contains_key(&id));
            assert!(!svc.jobs.contains_key(&id));
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Replays `state` to the end on its own, as a resumed job would.
    fn finish_from(mut state: ReplayState, h: &HistoryStore) -> RecoveryOutcome {
        let mut scratch = RoundScratch::new();
        while !state.is_done() {
            state
                .step(h, &mut scratch, None, &mut |_, _| {})
                .expect("step");
        }
        state.finish()
    }

    #[test]
    fn the_held_checkpoint_and_its_bytes_resume_alike() {
        // Seals every 2 rounds, refreshes every 3: the live state replays
        // refresh rounds while an older checkpoint is held, releasing its
        // stack's handles on the refreshed clients' rows. Checked after
        // every step, so at every boundary and every round past one.
        let h = history();
        let recovery = RecoveryConfig::new(0.05).pair_refresh_interval(3);
        let want = crate::recover_set(&h, &[1], &recovery, &mut crate::NoOracle, |_, _| {})
            .expect("one-shot recovery");
        let mut svc = JobService::new(JobConfig::new(recovery).checkpoint_interval(2));
        let id = svc.submit(&h, &[1]);
        let same_rows = |a: &LbfgsApprox, b: &LbfgsApprox| {
            a.pairs() == b.pairs()
                && (a.dg_rows().iter().zip(b.dg_rows())).all(|(x, y)| Arc::ptr_eq(x, y))
        };
        let (mut checks, mut straddling, mut boundaries) = (0, 0, Vec::new());
        while svc.step(&mut crate::NoOracle) {
            let job = &svc.jobs[&id];
            let (JobPhase::Running(live), Some(held)) = (&job.phase, &job.checkpoint) else {
                continue;
            };
            // A refresh replayed since the seal replaced some client's
            // approximation in the live state only.
            let refreshed = live
                .approxes
                .iter()
                .any(|(c, a)| held.approxes.get(c).is_none_or(|b| !same_rows(a, b)));
            straddling += usize::from(refreshed);
            let at = held.next_round;
            if boundaries.last() != Some(&at) {
                boundaries.push(at);
            }
            let decoded = decode_state(&encode_state(held), &recovery).expect("decodes");
            assert_eq!(
                decoded.stacked.fingerprint(),
                held.stacked.fingerprint(),
                "checkpoint at round {at}"
            );
            for (how, state) in [("held", (**held).clone()), ("decoded", decoded)] {
                let got = finish_from(state, &h);
                assert_eq!(bits(&got.params), bits(&want.params), "{how} at round {at}");
                assert_eq!(bits(&got.update_norms), bits(&want.update_norms));
            }
            checks += 1;
        }
        assert!(svc.take_outcome(id).expect("finished").is_ok());
        // Every step but the last leaves the job running; seals land at F
        // and every second round after it.
        let rounds = want.rounds_replayed;
        assert_eq!(checks, rounds - 1);
        assert_eq!(boundaries.len(), rounds.div_ceil(2), "{boundaries:?}");
        assert!(straddling >= 2, "{straddling} checks straddle a refresh");
    }

    #[test]
    fn a_decoded_state_shares_rows_like_the_live_one() {
        // Decode interns pair rows by content, so the resumed stack holds
        // each shared ΔW row once, as the live one does: same row count,
        // same fingerprint, at every round of the replay.
        let h = history();
        let recovery = RecoveryConfig::new(0.05).pair_refresh_interval(3);
        let mut live = ReplayState::init_scoped(&h, &[1], None, &recovery, &mut crate::NoOracle)
            .expect("init");
        let mut scratch = RoundScratch::new();
        while !live.is_done() {
            live.flush_stack();
            let decoded = decode_state(&encode_state(&live), &recovery).expect("decodes");
            assert_eq!(
                decoded.stacked.total_columns(),
                live.stacked.total_columns(),
                "round {}",
                live.next_round
            );
            let pairs: usize = live.approxes.values().map(LbfgsApprox::pairs).sum();
            assert!(live.stacked.total_columns() < 2 * pairs, "rows are shared");
            assert_eq!(decoded.stacked.fingerprint(), live.stacked.fingerprint());
            live.step(&h, &mut scratch, None, &mut |_, _| {})
                .expect("step");
        }
    }

    #[test]
    fn peek_forgotten_reads_the_header_only() {
        let bad = peek_forgotten(&[0xff, 0xff]);
        assert_eq!(bad, None);
        // Version + fixed header + empty forgotten list.
        let mut payload = Vec::new();
        payload.extend_from_slice(&STATE_VERSION.to_le_bytes());
        payload.extend_from_slice(&[0u8; 8 * 5 + 4 + 8 + 1 + 8]);
        put_ids(&mut payload, &[9, 4]);
        assert_eq!(peek_forgotten(&payload), Some(vec![9, 4]));
    }
}
