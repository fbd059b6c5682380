//! Server-side training history — tiered and memory-bounded.
//!
//! The paper's server records, during normal FL training (§IV):
//!
//! 1. the global model parameters `w_t` of every round,
//! 2. the *direction* of every client's gradient in every round
//!    (quantised with threshold `δ`, packed 2 bits/element), and
//! 3. which rounds each vehicle participated in (its join round `F` is
//!    what unlearning backtracks to).
//!
//! [`HistoryStore`] is that record, kept under a configurable in-memory
//! byte budget ([`TierConfig`]). Rounds live in one of two tiers:
//!
//! - **Hot** — decoded in memory (`Arc`-shared, so clones, caches and
//!   [`RoundView`] snapshots never copy the buffer), or
//! - **Spilled** — encoded into the append-only segment file
//!   ([`segment`]): models as a full `f32` keyframe
//!   every `keyframe_interval` rounds with varint-zigzag
//!   [`delta`](crate::delta) residuals between (losslessly, so replay is
//!   bitwise identical at any budget), directions as their packed 2-bit
//!   words verbatim.
//!
//! Spilled rounds decode back through a small LRU of recently used
//! rounds; replay walks the store through [`HistoryStore::round_view`]
//! (an `Arc` snapshot safe to hand to worker threads) and warms round
//! `t+1` with [`HistoryStore::prefetch`] while round `t` computes.
//!
//! [`FullGradientStore`] is the same record with *full* `f32` gradients —
//! what FedRecover-style baselines need — and exists mainly so the
//! storage-overhead experiment can compare the two byte-for-byte.

use crate::direction::GradientDirection;
use crate::segment::{self, SegmentDecodeError, SpillFile};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of a client (vehicle).
pub type ClientId = usize;

/// Federated round number (0-based).
pub type Round = usize;

/// Rounds of decoded models/directions the per-store LRU keeps.
const CACHE_ROUNDS: usize = 4;

/// Default keyframe interval `k` (full `f32` model every `k` rounds).
pub const DEFAULT_KEYFRAME_INTERVAL: usize = 8;

/// A client's membership interval in the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Participation {
    /// Round in which the client first participated.
    pub joined: Round,
    /// Round after which the client left, if it has left.
    pub left: Option<Round>,
}

/// Storage-tiering knobs for a [`HistoryStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// In-memory byte budget for resident slots; `None` keeps everything
    /// hot (the pre-tiering behaviour). `Some(0)` forces every recorded
    /// round through the spill tier.
    pub budget_bytes: Option<usize>,
    /// Spill a full `f32` model keyframe every `k` rounds; rounds between
    /// spill as delta residuals against their window predecessor. `1`
    /// means every spilled model is a keyframe.
    pub keyframe_interval: usize,
}

impl TierConfig {
    /// Unbounded memory, default keyframe interval.
    pub fn unbounded() -> Self {
        TierConfig {
            budget_bytes: None,
            keyframe_interval: DEFAULT_KEYFRAME_INTERVAL,
        }
    }

    /// A bounded store: resident slots are spilled (coldest round first)
    /// once they exceed `budget_bytes`.
    pub fn bounded(budget_bytes: usize) -> Self {
        TierConfig {
            budget_bytes: Some(budget_bytes),
            ..Self::unbounded()
        }
    }

    /// Sets the keyframe interval (clamped to ≥ 1).
    pub fn with_keyframe_interval(mut self, k: usize) -> Self {
        self.keyframe_interval = k.max(1);
        self
    }

    /// Reads `FUIOV_HISTORY_BUDGET` (bytes; unset, unparsable or `0`
    /// means unbounded) and `FUIOV_KEYFRAME_INTERVAL` (default
    /// [`DEFAULT_KEYFRAME_INTERVAL`]). [`HistoryStore::new`] calls this,
    /// so every store created through the normal server path honours the
    /// environment knobs without any API change upstream.
    pub fn from_env() -> Self {
        Self::parse(
            std::env::var("FUIOV_HISTORY_BUDGET").ok().as_deref(),
            std::env::var("FUIOV_KEYFRAME_INTERVAL").ok().as_deref(),
        )
    }

    /// Pure parsing backend of [`TierConfig::from_env`] (testable without
    /// touching process environment).
    pub fn parse(budget: Option<&str>, keyframe: Option<&str>) -> Self {
        let budget_bytes = budget
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&b| b > 0);
        let keyframe_interval = keyframe
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map_or(DEFAULT_KEYFRAME_INTERVAL, |k| k.max(1));
        TierConfig {
            budget_bytes,
            keyframe_interval,
        }
    }
}

impl Default for TierConfig {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Which tier a round's record currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Decoded and resident in memory.
    Hot,
    /// Encoded in the spill segment file.
    Spilled,
}

#[derive(Debug, Clone)]
enum ModelSlot {
    Hot(Arc<Vec<f32>>),
    Spilled {
        offset: u64,
        len: u32,
        base: Option<Round>,
    },
}

#[derive(Debug, Clone)]
enum DirSlot {
    Mem(Arc<BTreeMap<ClientId, GradientDirection>>),
    Spilled {
        offset: u64,
        len: u32,
        packed_bytes: usize,
        full_bytes: usize,
    },
}

#[derive(Debug)]
struct DecodeCache {
    cap: usize,
    models: Vec<(Round, Arc<Vec<f32>>)>,
    dirs: Vec<(Round, Arc<BTreeMap<ClientId, GradientDirection>>)>,
}

impl DecodeCache {
    fn new(cap: usize) -> Self {
        DecodeCache {
            cap,
            models: Vec::new(),
            dirs: Vec::new(),
        }
    }

    fn get_model(&mut self, round: Round) -> Option<Arc<Vec<f32>>> {
        let pos = self.models.iter().position(|(r, _)| *r == round)?;
        let entry = self.models.remove(pos);
        let v = Arc::clone(&entry.1);
        self.models.push(entry);
        Some(v)
    }

    fn put_model(&mut self, round: Round, v: Arc<Vec<f32>>) {
        self.models.retain(|(r, _)| *r != round);
        self.models.push((round, v));
        if self.models.len() > self.cap {
            self.models.remove(0);
        }
    }

    fn remove_model(&mut self, round: Round) {
        self.models.retain(|(r, _)| *r != round);
    }

    fn get_dirs(&mut self, round: Round) -> Option<Arc<BTreeMap<ClientId, GradientDirection>>> {
        let pos = self.dirs.iter().position(|(r, _)| *r == round)?;
        let entry = self.dirs.remove(pos);
        let v = Arc::clone(&entry.1);
        self.dirs.push(entry);
        Some(v)
    }

    fn put_dirs(&mut self, round: Round, v: Arc<BTreeMap<ClientId, GradientDirection>>) {
        self.dirs.retain(|(r, _)| *r != round);
        self.dirs.push((round, v));
        if self.dirs.len() > self.cap {
            self.dirs.remove(0);
        }
    }

    fn remove_dirs(&mut self, round: Round) {
        self.dirs.retain(|(r, _)| *r != round);
    }

    fn clear(&mut self) {
        self.models.clear();
        self.dirs.clear();
    }

    fn model_bytes(&self) -> usize {
        self.models.iter().map(|(_, v)| v.len() * 4).sum()
    }

    fn dir_bytes(&self) -> usize {
        self.dirs
            .iter()
            .map(|(_, m)| m.values().map(GradientDirection::byte_size).sum::<usize>())
            .sum()
    }
}

#[derive(Debug, Default)]
struct TierCounters {
    spill_writes: AtomicUsize,
    spill_loads: AtomicUsize,
    evictions: AtomicUsize,
    decode_errors: AtomicUsize,
}

/// Snapshot of a store's tier activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Records appended to the spill file.
    pub spill_writes: usize,
    /// Records read back from the spill file.
    pub spill_loads: usize,
    /// Budget-enforcement passes that moved at least one round cold.
    pub evictions: usize,
    /// Spill records that failed to decode (typed, never a panic).
    pub decode_errors: usize,
}

/// Borrow guard for a stored model: derefs to `&[f32]` whether the round
/// was hot (a plain borrow) or decoded out of the spill tier (an `Arc`
/// kept alive by the guard). Bind it first when you need a long-lived
/// slice: `let m = h.model(r); let w: &[f32] = m.as_deref().unwrap();`.
#[derive(Debug, Clone)]
pub enum ModelRef<'a> {
    /// Borrowed straight from a hot slot.
    Hot(&'a [f32]),
    /// Decoded from the spill tier, shared with the store's LRU.
    Cached(Arc<Vec<f32>>),
}

impl Deref for ModelRef<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match self {
            ModelRef::Hot(s) => s,
            ModelRef::Cached(v) => v.as_slice(),
        }
    }
}

impl PartialEq for ModelRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Borrow guard for a stored direction, mirroring [`ModelRef`].
#[derive(Debug, Clone)]
pub enum DirectionRef<'a> {
    /// Borrowed from a resident direction map.
    Mem(&'a GradientDirection),
    /// Decoded round map from the spill tier; the guard keeps it alive.
    Cached {
        /// The round's decoded direction map.
        map: Arc<BTreeMap<ClientId, GradientDirection>>,
        /// Which client this guard points at (checked at construction).
        client: ClientId,
    },
}

impl Deref for DirectionRef<'_> {
    type Target = GradientDirection;

    fn deref(&self) -> &GradientDirection {
        match self {
            DirectionRef::Mem(d) => d,
            DirectionRef::Cached { map, client } => {
                map.get(client).expect("client checked at construction")
            }
        }
    }
}

impl PartialEq for DirectionRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// An `Arc` snapshot of one round — the zero-copy unit replay consumes.
///
/// Construction decodes the round (through the LRU) at most once;
/// afterwards [`RoundView::model`] and [`RoundView::direction`] are plain
/// borrows, and the packed 2-bit direction words feed
/// [`GradientDirection::decode_axpy`]/[`GradientDirection::decode_into`]
/// directly — no intermediate `Vec<f32>` per client. The snapshot is
/// `Send + Sync`, so replay loops can hand it to pooled workers while the
/// store prefetches the next round.
#[derive(Debug, Clone)]
pub struct RoundView {
    round: Round,
    model: Option<Arc<Vec<f32>>>,
    dirs: Arc<BTreeMap<ClientId, GradientDirection>>,
}

impl RoundView {
    /// The round this view snapshots.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The round's global model, if recorded (and decodable).
    pub fn model(&self) -> Option<&[f32]> {
        self.model.as_deref().map(Vec::as_slice)
    }

    /// One client's packed gradient direction.
    pub fn direction(&self, client: ClientId) -> Option<&GradientDirection> {
        self.dirs.get(&client)
    }

    /// Clients with a direction in this round, ascending.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.dirs.keys().copied()
    }

    /// `(client, direction)` pairs in ascending client order.
    pub fn directions(&self) -> impl Iterator<Item = (ClientId, &GradientDirection)> {
        self.dirs.iter().map(|(&c, d)| (c, d))
    }

    /// Number of clients with a direction in this round.
    pub fn n_clients(&self) -> usize {
        self.dirs.len()
    }
}

/// Iterator over the clients of one round (borrowed from a resident map,
/// or owned after a spill reload).
#[derive(Debug)]
pub struct ClientsIter<'a> {
    inner: ClientsIterInner<'a>,
}

#[derive(Debug)]
enum ClientsIterInner<'a> {
    Borrowed(std::collections::btree_map::Keys<'a, ClientId, GradientDirection>),
    Owned(std::vec::IntoIter<ClientId>),
}

impl Iterator for ClientsIter<'_> {
    type Item = ClientId;

    fn next(&mut self) -> Option<ClientId> {
        match &mut self.inner {
            ClientsIterInner::Borrowed(keys) => keys.next().copied(),
            ClientsIterInner::Owned(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            ClientsIterInner::Borrowed(keys) => keys.size_hint(),
            ClientsIterInner::Owned(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for ClientsIter<'_> {}

/// History of models, gradient directions and participation.
#[derive(Debug)]
pub struct HistoryStore {
    delta: f32,
    dim: Option<usize>,
    tier: TierConfig,
    models: BTreeMap<Round, ModelSlot>,
    /// Delta-base slots a thinning pass hid from `rounds()` but that kept
    /// rounds still chain-decode through. Handle copies only — never
    /// reloaded by the thinning itself.
    shadow_models: BTreeMap<Round, ModelSlot>,
    directions: BTreeMap<Round, DirSlot>,
    participation: BTreeMap<ClientId, Participation>,
    weights: BTreeMap<ClientId, f32>,
    spill: Arc<SpillFile>,
    cache: Mutex<DecodeCache>,
    counters: TierCounters,
}

impl Clone for HistoryStore {
    /// Shallow copy-on-write: slots are `Arc`/handle clones and the spill
    /// file is shared (append-only, so existing offsets stay valid for
    /// both). The clone starts with a fresh decode cache and counters.
    fn clone(&self) -> Self {
        HistoryStore {
            delta: self.delta,
            dim: self.dim,
            tier: self.tier,
            models: self.models.clone(),
            shadow_models: self.shadow_models.clone(),
            directions: self.directions.clone(),
            participation: self.participation.clone(),
            weights: self.weights.clone(),
            spill: Arc::clone(&self.spill),
            cache: Mutex::new(DecodeCache::new(CACHE_ROUNDS)),
            counters: TierCounters::default(),
        }
    }
}

impl HistoryStore {
    /// Creates an empty store with sign threshold `delta`, tiered per
    /// [`TierConfig::from_env`].
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or NaN.
    pub fn new(delta: f32) -> Self {
        Self::with_tier(delta, TierConfig::from_env())
    }

    /// Creates an empty store with an explicit tier configuration.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or NaN.
    pub fn with_tier(delta: f32, tier: TierConfig) -> Self {
        assert!(delta >= 0.0, "HistoryStore::new: delta must be >= 0");
        HistoryStore {
            delta,
            dim: None,
            tier: TierConfig {
                keyframe_interval: tier.keyframe_interval.max(1),
                ..tier
            },
            models: BTreeMap::new(),
            shadow_models: BTreeMap::new(),
            directions: BTreeMap::new(),
            participation: BTreeMap::new(),
            weights: BTreeMap::new(),
            spill: Arc::new(SpillFile::new()),
            cache: Mutex::new(DecodeCache::new(CACHE_ROUNDS)),
            counters: TierCounters::default(),
        }
    }

    /// The sign threshold δ in force.
    pub fn delta(&self) -> f32 {
        self.delta
    }

    /// Model dimension, once the first model/gradient has been recorded.
    pub fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// The tier configuration in force.
    pub fn tier_config(&self) -> TierConfig {
        self.tier
    }

    /// A snapshot-isolated copy for a concurrent reader (e.g. one recovery
    /// job in `core::jobs`): slot maps are `Arc`/handle clones and the
    /// append-only spill file is shared, so taking a snapshot copies no
    /// model bytes, and records appended to the live store afterwards are
    /// invisible to the snapshot — the copy-on-write isolation the job
    /// service's determinism contract is built on. The snapshot starts
    /// with its own decode cache and tier counters.
    pub fn snapshot(&self) -> HistoryStore {
        fuiov_obs::counter!("storage.snapshots").inc();
        self.clone()
    }

    /// Changes the in-memory budget and enforces it immediately.
    pub fn set_budget(&mut self, budget_bytes: Option<usize>) {
        self.tier.budget_bytes = budget_bytes;
        self.enforce_budget();
    }

    fn check_dim(&mut self, len: usize, what: &str) {
        match self.dim {
            None => self.dim = Some(len),
            Some(d) => assert_eq!(d, len, "HistoryStore: {what} dimension mismatch"),
        }
    }

    fn bump(counter: &AtomicUsize, obs: &'static fuiov_obs::Counter) {
        counter.fetch_add(1, Ordering::Relaxed);
        obs.inc();
    }

    // ------------------------------------------------------------------
    // Record path
    // ------------------------------------------------------------------

    /// Records the global model at the *start* of `round`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with earlier records.
    pub fn record_model(&mut self, round: Round, params: Vec<f32>) {
        self.check_dim(params.len(), "model");
        self.rebase_dependents(round);
        self.models.insert(round, ModelSlot::Hot(Arc::new(params)));
        self.enforce_budget();
    }

    /// Quantises and records a client's gradient for `round`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with earlier records.
    pub fn record_gradient(&mut self, round: Round, client: ClientId, grad: &[f32]) {
        self.check_dim(grad.len(), "gradient");
        let dir = GradientDirection::quantize(grad, self.delta);
        self.dirs_mut(round).insert(client, dir);
        self.enforce_budget();
    }

    /// Records an already-quantised direction for `(round, client)` —
    /// used when restoring a history file, where re-quantisation
    /// through the store's own δ would be lossy for δ ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with earlier records.
    pub fn record_direction(&mut self, round: Round, client: ClientId, dir: GradientDirection) {
        self.check_dim(dir.len(), "direction");
        self.dirs_mut(round).insert(client, dir);
        self.enforce_budget();
    }

    /// Records that `client` joined at `round` (first participation). A
    /// second call for the same client is ignored — the paper's `F` is the
    /// *first* join round.
    pub fn record_join(&mut self, client: ClientId, round: Round) {
        self.participation.entry(client).or_insert(Participation {
            joined: round,
            left: None,
        });
    }

    /// Records that `client` left after `round`.
    ///
    /// # Panics
    ///
    /// Panics if the client never joined.
    pub fn record_leave(&mut self, client: ClientId, round: Round) {
        let p = self
            .participation
            .get_mut(&client)
            .expect("record_leave: client never joined");
        p.left = Some(round);
    }

    /// Removes the model recorded for `round`, returning it if present
    /// and decodable (a corrupt spilled record is dropped and counted in
    /// [`TierStats::decode_errors`], returning `None`).
    ///
    /// Models the RSU losing a checkpoint (disk corruption, eviction).
    /// Recovery paths must then either fail with a typed error or
    /// reconstruct the round via [`HistoryStore::model_interpolated`] —
    /// the contract `fuiov-testkit`'s fault matrix pins.
    pub fn remove_model(&mut self, round: Round) -> Option<Vec<f32>> {
        if !self.models.contains_key(&round) {
            return None;
        }
        let value = match self.decode_model_value(round) {
            Ok(v) => v,
            Err(_) => {
                Self::bump(
                    &self.counters.decode_errors,
                    fuiov_obs::counter!("storage.decode_errors"),
                );
                None
            }
        };
        self.rebase_dependents(round);
        self.models.remove(&round);
        self.cache.lock().remove_model(round);
        value.map(|v| v.as_ref().clone())
    }

    /// Removes the direction recorded for `(round, client)`, returning it
    /// if present. Models a lost or never-persisted upload.
    pub fn remove_direction(
        &mut self,
        round: Round,
        client: ClientId,
    ) -> Option<GradientDirection> {
        self.directions.get(&round)?;
        self.dirs_mut(round).remove(&client)
    }

    /// Sets a client's FedAvg weight (its dataset size `‖Dᵢ‖`).
    ///
    /// # Panics
    ///
    /// Panics if the weight is not strictly positive and finite.
    pub fn set_weight(&mut self, client: ClientId, weight: f32) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "set_weight: invalid weight"
        );
        self.weights.insert(client, weight);
    }

    /// A client's FedAvg weight, defaulting to `1.0` if never set.
    pub fn weight(&self, client: ClientId) -> f32 {
        self.weights.get(&client).copied().unwrap_or(1.0)
    }

    // ------------------------------------------------------------------
    // Read path (tier-transparent)
    // ------------------------------------------------------------------

    /// Global model recorded for `round`. A spilled round decodes through
    /// the LRU; an undecodable record yields `None` (counted in
    /// [`TierStats::decode_errors`] — use [`HistoryStore::try_model`] for
    /// the typed error).
    pub fn model(&self, round: Round) -> Option<ModelRef<'_>> {
        match self.models.get(&round)? {
            ModelSlot::Hot(v) => Some(ModelRef::Hot(v.as_slice())),
            ModelSlot::Spilled { .. } => match self.load_model_chain(round) {
                Ok(v) => Some(ModelRef::Cached(v)),
                Err(_) => {
                    Self::bump(
                        &self.counters.decode_errors,
                        fuiov_obs::counter!("storage.decode_errors"),
                    );
                    None
                }
            },
        }
    }

    /// Like [`HistoryStore::model`], but surfaces spill decode failures
    /// as typed [`SegmentDecodeError`]s instead of `None`.
    ///
    /// # Errors
    ///
    /// Any [`SegmentDecodeError`] hit while reading the round's chain.
    pub fn try_model(&self, round: Round) -> Result<Option<ModelRef<'_>>, SegmentDecodeError> {
        match self.models.get(&round) {
            None => Ok(None),
            Some(ModelSlot::Hot(v)) => Ok(Some(ModelRef::Hot(v.as_slice()))),
            Some(ModelSlot::Spilled { .. }) => self
                .load_model_chain(round)
                .map(|v| Some(ModelRef::Cached(v))),
        }
    }

    /// Gradient direction recorded for `(round, client)`.
    pub fn direction(&self, round: Round, client: ClientId) -> Option<DirectionRef<'_>> {
        match self.directions.get(&round)? {
            DirSlot::Mem(m) => m.get(&client).map(DirectionRef::Mem),
            DirSlot::Spilled { offset, len, .. } => {
                let map = match self.load_spilled_dirs(round, *offset, *len) {
                    Ok(m) => m,
                    Err(_) => {
                        Self::bump(
                            &self.counters.decode_errors,
                            fuiov_obs::counter!("storage.decode_errors"),
                        );
                        return None;
                    }
                };
                map.contains_key(&client)
                    .then_some(DirectionRef::Cached { map, client })
            }
        }
    }

    /// An `Arc` snapshot of `round` for replay: the model (if any) and
    /// every client direction, decoded at most once. Undecodable spill
    /// records degrade to an absent model / empty direction map (counted;
    /// use [`HistoryStore::try_round_view`] for the typed error).
    pub fn round_view(&self, round: Round) -> RoundView {
        let model = match self.models.get(&round) {
            Some(ModelSlot::Hot(v)) => Some(Arc::clone(v)),
            Some(ModelSlot::Spilled { .. }) => match self.load_model_chain(round) {
                Ok(v) => Some(v),
                Err(_) => {
                    Self::bump(
                        &self.counters.decode_errors,
                        fuiov_obs::counter!("storage.decode_errors"),
                    );
                    None
                }
            },
            None => None,
        };
        let dirs = self.try_directions(round).unwrap_or_else(|_| {
            Self::bump(
                &self.counters.decode_errors,
                fuiov_obs::counter!("storage.decode_errors"),
            );
            Arc::new(BTreeMap::new())
        });
        RoundView { round, model, dirs }
    }

    /// Like [`HistoryStore::round_view`], but any spill decode failure is
    /// a typed error.
    ///
    /// # Errors
    ///
    /// Any [`SegmentDecodeError`] hit while decoding the round.
    pub fn try_round_view(&self, round: Round) -> Result<RoundView, SegmentDecodeError> {
        let model = match self.models.get(&round) {
            Some(ModelSlot::Hot(v)) => Some(Arc::clone(v)),
            Some(ModelSlot::Spilled { .. }) => Some(self.load_model_chain(round)?),
            None => None,
        };
        let dirs = self.try_directions(round)?;
        Ok(RoundView { round, model, dirs })
    }

    /// `round`'s direction map (empty when none was recorded), with any
    /// spill decode failure as a typed error.
    pub(crate) fn try_directions(
        &self,
        round: Round,
    ) -> Result<Arc<BTreeMap<ClientId, GradientDirection>>, SegmentDecodeError> {
        match self.directions.get(&round) {
            Some(DirSlot::Mem(m)) => Ok(Arc::clone(m)),
            Some(DirSlot::Spilled { offset, len, .. }) => {
                self.load_spilled_dirs(round, *offset, *len)
            }
            None => Ok(Arc::new(BTreeMap::new())),
        }
    }

    /// Warms the decode LRU with `round`'s model and directions — called
    /// by replay loops for round `t+1` while round `t` computes, so the
    /// next [`HistoryStore::round_view`] is a pure cache hit. Decode
    /// failures are counted, not raised.
    pub fn prefetch(&self, round: Round) {
        fuiov_obs::counter!("storage.prefetches").inc();
        if let Some(ModelSlot::Spilled { .. }) = self.models.get(&round) {
            if self.load_model_chain(round).is_err() {
                Self::bump(
                    &self.counters.decode_errors,
                    fuiov_obs::counter!("storage.decode_errors"),
                );
            }
        }
        if let Some(DirSlot::Spilled { offset, len, .. }) = self.directions.get(&round) {
            if self.load_spilled_dirs(round, *offset, *len).is_err() {
                Self::bump(
                    &self.counters.decode_errors,
                    fuiov_obs::counter!("storage.decode_errors"),
                );
            }
        }
    }

    /// Clients that submitted a gradient in `round`, ascending.
    pub fn clients_in_round(&self, round: Round) -> Vec<ClientId> {
        self.clients_in_round_iter(round).collect()
    }

    /// Iterator form of [`HistoryStore::clients_in_round`] — borrows the
    /// resident map when hot instead of allocating a `Vec` per call.
    pub fn clients_in_round_iter(&self, round: Round) -> ClientsIter<'_> {
        let inner = match self.directions.get(&round) {
            Some(DirSlot::Mem(m)) => ClientsIterInner::Borrowed(m.keys()),
            Some(DirSlot::Spilled { offset, len, .. }) => {
                match self.load_spilled_dirs(round, *offset, *len) {
                    Ok(m) => ClientsIterInner::Owned(
                        m.keys().copied().collect::<Vec<ClientId>>().into_iter(),
                    ),
                    Err(_) => {
                        Self::bump(
                            &self.counters.decode_errors,
                            fuiov_obs::counter!("storage.decode_errors"),
                        );
                        ClientsIterInner::Owned(Vec::new().into_iter())
                    }
                }
            }
            None => ClientsIterInner::Owned(Vec::new().into_iter()),
        };
        ClientsIter { inner }
    }

    /// All rounds with a recorded model, ascending.
    pub fn rounds(&self) -> Vec<Round> {
        self.models.keys().copied().collect()
    }

    /// Iterator form of [`HistoryStore::rounds`] (no allocation).
    pub fn rounds_iter(&self) -> impl Iterator<Item = Round> + '_ {
        self.models.keys().copied()
    }

    /// All rounds with recorded directions, ascending. Once models are
    /// thinned or removed, this lists rounds [`HistoryStore::rounds`]
    /// does not.
    pub fn direction_rounds(&self) -> Vec<Round> {
        self.directions.keys().copied().collect()
    }

    /// Highest recorded round, if any.
    pub fn latest_round(&self) -> Option<Round> {
        self.models.keys().next_back().copied()
    }

    /// A client's participation record.
    pub fn participation(&self, client: ClientId) -> Option<Participation> {
        self.participation.get(&client).copied()
    }

    /// A client's join round `F`, if known.
    pub fn join_round(&self, client: ClientId) -> Option<Round> {
        self.participation.get(&client).map(|p| p.joined)
    }

    /// All clients ever seen, ascending.
    pub fn clients(&self) -> Vec<ClientId> {
        self.participation.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Byte accounting
    // ------------------------------------------------------------------

    /// Bytes used by packed gradient directions (logical: independent of
    /// which tier currently holds them).
    pub fn direction_bytes(&self) -> usize {
        self.directions
            .values()
            .map(|s| match s {
                DirSlot::Mem(m) => m.values().map(GradientDirection::byte_size).sum(),
                DirSlot::Spilled { packed_bytes, .. } => *packed_bytes,
            })
            .sum()
    }

    /// Bytes the same gradients would use stored as full `f32` vectors —
    /// what FedRecover/FedEraser-style servers must keep.
    pub fn full_gradient_bytes_equivalent(&self) -> usize {
        self.directions
            .values()
            .map(|s| match s {
                DirSlot::Mem(m) => m.values().map(GradientDirection::full_f32_byte_size).sum(),
                DirSlot::Spilled { full_bytes, .. } => *full_bytes,
            })
            .sum()
    }

    /// Bytes the recorded models represent as decoded `f32` (logical:
    /// identical in both schemes and at any tier).
    pub fn model_bytes(&self) -> usize {
        self.models.len() * self.dim.unwrap_or(0) * 4
    }

    /// Physical bytes models occupy as stored: decoded `f32` for hot
    /// slots, the framed record length for spilled ones (keyframes ≈ raw
    /// size, delta residuals much smaller).
    pub fn model_bytes_stored(&self) -> usize {
        self.models
            .values()
            .map(|s| match s {
                ModelSlot::Hot(v) => v.len() * 4,
                ModelSlot::Spilled { len, .. } => *len as usize,
            })
            .sum()
    }

    /// Bytes currently resident in memory: hot/mem slots, hidden shadow
    /// slots and the decode LRU. This — not [`HistoryStore::model_bytes`]
    /// — is what the byte budget bounds.
    pub fn resident_bytes(&self) -> usize {
        let shadow: usize = self
            .shadow_models
            .values()
            .map(|s| match s {
                ModelSlot::Hot(v) => v.len() * 4,
                ModelSlot::Spilled { .. } => 0,
            })
            .sum();
        let cache = self.cache.lock();
        self.slot_resident_bytes() + shadow + cache.model_bytes() + cache.dir_bytes()
    }

    /// Bytes appended to the spill segment file so far (append-only, so
    /// re-spilled rounds leave dead records behind — this is file size,
    /// not live data).
    pub fn spilled_bytes(&self) -> usize {
        self.spill.len() as usize
    }

    /// Gradient-storage savings ratio vs full `f32` storage (the paper's
    /// §IV headline number; models excluded — see
    /// [`HistoryStore::storage_savings_ratio`]).
    pub fn gradient_savings_ratio(&self) -> f64 {
        let full = self.full_gradient_bytes_equivalent();
        if full == 0 {
            return 0.0;
        }
        1.0 - self.direction_bytes() as f64 / full as f64
    }

    /// Whole-store savings ratio vs a flat `f32` server: packed
    /// directions *and* delta-coded/spilled models, against full `f32`
    /// gradients plus full `f32` models.
    pub fn storage_savings_ratio(&self) -> f64 {
        let full = self.full_gradient_bytes_equivalent() + self.model_bytes();
        if full == 0 {
            return 0.0;
        }
        let stored = self.direction_bytes() + self.model_bytes_stored();
        1.0 - stored as f64 / full as f64
    }

    /// Snapshot of the tier activity counters.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            spill_writes: self.counters.spill_writes.load(Ordering::Relaxed),
            spill_loads: self.counters.spill_loads.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            decode_errors: self.counters.decode_errors.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Tier internals
    // ------------------------------------------------------------------

    fn any_model_slot(&self, round: Round) -> Option<&ModelSlot> {
        self.models
            .get(&round)
            .or_else(|| self.shadow_models.get(&round))
    }

    /// Decoded value of `round`'s model regardless of tier (`Ok(None)` if
    /// the round was never recorded).
    fn decode_model_value(
        &self,
        round: Round,
    ) -> Result<Option<Arc<Vec<f32>>>, SegmentDecodeError> {
        match self.any_model_slot(round) {
            None => Ok(None),
            Some(ModelSlot::Hot(v)) => Ok(Some(Arc::clone(v))),
            Some(ModelSlot::Spilled { .. }) => self.load_model_chain(round).map(Some),
        }
    }

    /// Walks `round`'s delta chain back to a hot/cached value or a
    /// keyframe, then decodes forward, caching every intermediate round —
    /// sequential replay therefore reads O(1) records per round.
    fn load_model_chain(&self, round: Round) -> Result<Arc<Vec<f32>>, SegmentDecodeError> {
        let mut stack: Vec<Round> = Vec::new();
        let mut cur = round;
        let mut value: Option<Arc<Vec<f32>>> = None;
        loop {
            if let Some(v) = self.cache.lock().get_model(cur) {
                fuiov_obs::counter!("storage.decode_cache_hits").inc();
                value = Some(v);
                break;
            }
            match self.any_model_slot(cur) {
                Some(ModelSlot::Hot(v)) => {
                    value = Some(Arc::clone(v));
                    break;
                }
                Some(ModelSlot::Spilled { base, .. }) => {
                    stack.push(cur);
                    match base {
                        Some(b) => cur = *b,
                        None => break,
                    }
                }
                None => return Err(SegmentDecodeError::MissingBase(cur as u64)),
            }
        }
        while let Some(r) = stack.pop() {
            let Some(ModelSlot::Spilled { offset, len, base }) = self.any_model_slot(r) else {
                unreachable!("chain slot vanished mid-decode")
            };
            let bytes = self.spill.read(*offset, *len)?;
            Self::bump(
                &self.counters.spill_loads,
                fuiov_obs::counter!("storage.spill_loads"),
            );
            let decoded = match base {
                None => segment::decode_model(&bytes, r, None)?,
                Some(_) => segment::decode_model(
                    &bytes,
                    r,
                    Some(value.as_ref().expect("delta chain has a base").as_slice()),
                )?,
            };
            let arc = Arc::new(decoded);
            self.cache.lock().put_model(r, Arc::clone(&arc));
            value = Some(arc);
        }
        Ok(value.expect("chain resolved to a value"))
    }

    fn load_spilled_dirs(
        &self,
        round: Round,
        offset: u64,
        len: u32,
    ) -> Result<Arc<BTreeMap<ClientId, GradientDirection>>, SegmentDecodeError> {
        if let Some(m) = self.cache.lock().get_dirs(round) {
            fuiov_obs::counter!("storage.decode_cache_hits").inc();
            return Ok(m);
        }
        let bytes = self.spill.read(offset, len)?;
        Self::bump(
            &self.counters.spill_loads,
            fuiov_obs::counter!("storage.spill_loads"),
        );
        let map = Arc::new(segment::decode_directions(&bytes, round)?);
        self.cache.lock().put_dirs(round, Arc::clone(&map));
        Ok(map)
    }

    /// Makes `round`'s direction map resident and mutable (loading it out
    /// of the spill tier if needed; an unreadable spilled record starts
    /// from an empty map and is counted in decode errors).
    fn dirs_mut(&mut self, round: Round) -> &mut BTreeMap<ClientId, GradientDirection> {
        if let Some(DirSlot::Spilled { offset, len, .. }) = self.directions.get(&round) {
            let (offset, len) = (*offset, *len);
            let map = match self.load_spilled_dirs(round, offset, len) {
                Ok(m) => m,
                Err(_) => {
                    Self::bump(
                        &self.counters.decode_errors,
                        fuiov_obs::counter!("storage.decode_errors"),
                    );
                    Arc::new(BTreeMap::new())
                }
            };
            self.directions.insert(round, DirSlot::Mem(map));
        }
        self.cache.lock().remove_dirs(round);
        let slot = self
            .directions
            .entry(round)
            .or_insert_with(|| DirSlot::Mem(Arc::new(BTreeMap::new())));
        let DirSlot::Mem(map) = slot else {
            unreachable!("dirs_mut ensured a resident slot")
        };
        Arc::make_mut(map)
    }

    /// Before overwriting or removing `round`'s model: re-materialise (as
    /// hot slots, via the *old* chain) every round whose spilled delta is
    /// based on it, so their recorded values survive the change.
    fn rebase_dependents(&mut self, round: Round) {
        if !self.models.contains_key(&round) && !self.shadow_models.contains_key(&round) {
            return;
        }
        let is_dep =
            |s: &ModelSlot| matches!(s, ModelSlot::Spilled { base: Some(b), .. } if *b == round);
        let deps: Vec<(bool, Round)> = self
            .models
            .iter()
            .filter(|(_, s)| is_dep(s))
            .map(|(&r, _)| (false, r))
            .chain(
                self.shadow_models
                    .iter()
                    .filter(|(_, s)| is_dep(s))
                    .map(|(&r, _)| (true, r)),
            )
            .collect();
        for (shadow, u) in deps {
            match self.load_model_chain(u) {
                Ok(v) => {
                    let target = if shadow {
                        &mut self.shadow_models
                    } else {
                        &mut self.models
                    };
                    target.insert(u, ModelSlot::Hot(v));
                }
                Err(_) => {
                    Self::bump(
                        &self.counters.decode_errors,
                        fuiov_obs::counter!("storage.decode_errors"),
                    );
                    let target = if shadow {
                        &mut self.shadow_models
                    } else {
                        &mut self.models
                    };
                    target.remove(&u);
                    self.cache.lock().remove_model(u);
                }
            }
        }
        self.cache.lock().remove_model(round);
        self.shadow_models.remove(&round);
    }

    /// Encodes `round`'s model for the spill tier: a keyframe on the
    /// interval grid (or when no in-window predecessor exists /
    /// decodes), otherwise a delta against the greatest recorded round in
    /// the same keyframe window.
    fn encode_model_record(&self, round: Round, value: &[f32]) -> (Vec<u8>, Option<Round>) {
        let k = self.tier.keyframe_interval;
        if k > 1 && !round.is_multiple_of(k) {
            let window_start = round - round % k;
            if let Some((&b, _)) = self.models.range(window_start..round).next_back() {
                if let Ok(Some(base)) = self.decode_model_value(b) {
                    return (segment::encode_delta(round, b, &base, value), Some(b));
                }
            }
        }
        (segment::encode_keyframe(round, value), None)
    }

    fn spill_model(&mut self, round: Round) -> bool {
        let Some(ModelSlot::Hot(v)) = self.models.get(&round) else {
            return false;
        };
        let v = Arc::clone(v);
        let (record, base) = self.encode_model_record(round, &v);
        let Ok((offset, len)) = self.spill.append(&record) else {
            return false; // disk refused — stay hot rather than lose data
        };
        self.models
            .insert(round, ModelSlot::Spilled { offset, len, base });
        self.cache.lock().put_model(round, v);
        Self::bump(
            &self.counters.spill_writes,
            fuiov_obs::counter!("storage.spill_writes"),
        );
        true
    }

    fn spill_dirs(&mut self, round: Round) -> bool {
        let Some(DirSlot::Mem(map)) = self.directions.get(&round) else {
            return false;
        };
        let map = Arc::clone(map);
        let record = segment::encode_directions(round, &map);
        let Ok((offset, len)) = self.spill.append(&record) else {
            return false;
        };
        let packed_bytes = map.values().map(GradientDirection::byte_size).sum();
        let full_bytes = map
            .values()
            .map(GradientDirection::full_f32_byte_size)
            .sum();
        self.directions.insert(
            round,
            DirSlot::Spilled {
                offset,
                len,
                packed_bytes,
                full_bytes,
            },
        );
        self.cache.lock().put_dirs(round, map);
        Self::bump(
            &self.counters.spill_writes,
            fuiov_obs::counter!("storage.spill_writes"),
        );
        true
    }

    fn slot_resident_bytes(&self) -> usize {
        let models: usize = self
            .models
            .values()
            .map(|s| match s {
                ModelSlot::Hot(v) => v.len() * 4,
                ModelSlot::Spilled { .. } => 0,
            })
            .sum();
        let dirs: usize = self
            .directions
            .values()
            .map(|s| match s {
                DirSlot::Mem(m) => m.values().map(GradientDirection::byte_size).sum(),
                DirSlot::Spilled { .. } => 0,
            })
            .sum();
        models + dirs
    }

    /// Spills coldest (lowest) rounds until resident slot bytes fit the
    /// budget. No round is exempt — `Some(0)` pushes every record through
    /// the spill tier, which the bitwise-invariance tests exploit.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.tier.budget_bytes else {
            return;
        };
        loop {
            if self.slot_resident_bytes() <= budget {
                return;
            }
            let next_model = self
                .models
                .iter()
                .find(|(_, s)| matches!(s, ModelSlot::Hot(_)))
                .map(|(&r, _)| r);
            let next_dirs = self
                .directions
                .iter()
                .find(|(_, s)| matches!(s, DirSlot::Mem(_)))
                .map(|(&r, _)| r);
            let r = match (next_model, next_dirs) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return,
            };
            let mut progressed = false;
            if next_model == Some(r) {
                progressed |= self.spill_model(r);
            }
            if next_dirs == Some(r) {
                progressed |= self.spill_dirs(r);
            }
            if !progressed {
                return; // e.g. disk full — keep data hot instead of spinning
            }
            Self::bump(
                &self.counters.evictions,
                fuiov_obs::counter!("storage.evictions"),
            );
        }
    }

    // ------------------------------------------------------------------
    // Tier introspection & fault-injection hooks (testkit)
    // ------------------------------------------------------------------

    /// Which tier holds `round`'s model, if recorded.
    pub fn model_tier(&self, round: Round) -> Option<Tier> {
        self.models.get(&round).map(|s| match s {
            ModelSlot::Hot(_) => Tier::Hot,
            ModelSlot::Spilled { .. } => Tier::Spilled,
        })
    }

    /// Which tier holds `round`'s direction map, if recorded.
    pub fn directions_tier(&self, round: Round) -> Option<Tier> {
        self.directions.get(&round).map(|s| match s {
            DirSlot::Mem(_) => Tier::Hot,
            DirSlot::Spilled { .. } => Tier::Spilled,
        })
    }

    /// Spills every resident round regardless of budget (ascending, so
    /// delta bases are always encoded before their dependents).
    pub fn force_spill_all(&mut self) {
        let model_rounds: Vec<Round> = self
            .models
            .iter()
            .filter(|(_, s)| matches!(s, ModelSlot::Hot(_)))
            .map(|(&r, _)| r)
            .collect();
        for r in model_rounds {
            self.spill_model(r);
        }
        let dir_rounds: Vec<Round> = self
            .directions
            .iter()
            .filter(|(_, s)| matches!(s, DirSlot::Mem(_)))
            .map(|(&r, _)| r)
            .collect();
        for r in dir_rounds {
            self.spill_dirs(r);
        }
    }

    /// Path of the spill segment file (created lazily on first spill).
    pub fn spill_path(&self) -> PathBuf {
        self.spill.path()
    }

    /// `(offset, len)` of `round`'s model record in the spill file, if
    /// that model is currently spilled — the handle the testkit
    /// `Corruptor` mutates.
    pub fn spilled_model_extent(&self, round: Round) -> Option<(u64, u32)> {
        match self.models.get(&round)? {
            ModelSlot::Spilled { offset, len, .. } => Some((*offset, *len)),
            ModelSlot::Hot(_) => None,
        }
    }

    /// `(offset, len)` of `round`'s directions record in the spill file,
    /// if currently spilled.
    pub fn spilled_directions_extent(&self, round: Round) -> Option<(u64, u32)> {
        match self.directions.get(&round)? {
            DirSlot::Spilled { offset, len, .. } => Some((*offset, *len)),
            DirSlot::Mem(_) => None,
        }
    }

    /// Drops every cached decode — after out-of-band mutation of the
    /// spill file (fault injection), the next read must hit disk.
    pub fn invalidate_caches(&self) {
        self.cache.lock().clear();
    }

    // ------------------------------------------------------------------
    // Derived stores
    // ------------------------------------------------------------------

    /// Rebuilds this history with a different sign threshold `delta`,
    /// re-quantising gradients from a full-precision record.
    ///
    /// Used by the δ-sweep experiment (paper Fig. 3): one training run with
    /// full gradients kept can be re-quantised at every candidate δ instead
    /// of retraining per δ. Models, participation and weights are copied;
    /// only `(round, client)` gradients present in `full` are re-quantised
    /// (entries missing from `full` are dropped).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative.
    pub fn requantized(&self, full: &FullGradientStore, delta: f32) -> HistoryStore {
        let mut out = HistoryStore::with_tier(delta, self.tier);
        for r in self.rounds_iter() {
            let m = self.model(r).expect("round listed");
            let params = m.to_vec();
            out.record_model(r, params);
        }
        for c in self.clients() {
            let p = self.participation(c).expect("client listed");
            out.record_join(c, p.joined);
            if let Some(l) = p.left {
                out.record_leave(c, l);
            }
            if let Some(&w) = self.weights.get(&c) {
                out.set_weight(c, w);
            }
        }
        for round in self.direction_rounds() {
            for client in self.clients_in_round(round) {
                if let Some(g) = full.gradient(round, client) {
                    out.record_gradient(round, client, g);
                }
            }
        }
        out
    }

    /// Returns a copy with global models kept only every `keep_every`
    /// rounds (checkpoint thinning — the direction Wei et al. \[32\] take
    /// for model storage). The earliest and latest recorded rounds are
    /// always kept, and so is every client's join round — those are the
    /// backtracking targets, so the server pins them. Directions,
    /// participation and weights are copied unchanged.
    ///
    /// Built directly from slot handles: spilled rounds are **not**
    /// reloaded into memory (the spill file is shared, append-only), and
    /// hot rounds are `Arc`-shared, not copied. Thinned-away delta bases
    /// that kept rounds still decode through are retained as hidden
    /// shadow slots.
    ///
    /// Missing intermediate models can be reconstructed with
    /// [`HistoryStore::model_interpolated`].
    ///
    /// # Panics
    ///
    /// Panics if `keep_every == 0`.
    pub fn thinned_models(&self, keep_every: usize) -> HistoryStore {
        assert!(
            keep_every > 0,
            "thinned_models: keep_every must be positive"
        );
        let mut out = HistoryStore {
            delta: self.delta,
            dim: self.dim,
            tier: self.tier,
            models: BTreeMap::new(),
            shadow_models: BTreeMap::new(),
            directions: self.directions.clone(),
            participation: self.participation.clone(),
            weights: self.weights.clone(),
            spill: Arc::clone(&self.spill),
            cache: Mutex::new(DecodeCache::new(CACHE_ROUNDS)),
            counters: TierCounters::default(),
        };
        let Some(first) = self.models.keys().next().copied() else {
            return out;
        };
        let last = self.models.keys().next_back().copied().expect("non-empty");
        let join_rounds: std::collections::BTreeSet<Round> =
            self.participation.values().map(|p| p.joined).collect();
        for (&r, slot) in &self.models {
            let keep = r == first
                || r == last
                || (r - first) % keep_every == 0
                || join_rounds.contains(&r);
            if keep {
                out.models.insert(r, slot.clone());
            }
        }
        // Close delta chains: a kept round may be coded against a
        // thinned-away base — keep those bases' slots as hidden shadow
        // entries (handle copies only; nothing is read from the spill).
        let kept: Vec<Round> = out.models.keys().copied().collect();
        for r in kept {
            let mut cur = r;
            while let Some(ModelSlot::Spilled {
                base: Some(base), ..
            }) = out.models.get(&cur).or_else(|| out.shadow_models.get(&cur))
            {
                let base = *base;
                if out.models.contains_key(&base) || out.shadow_models.contains_key(&base) {
                    break;
                }
                match self.any_model_slot(base) {
                    Some(slot) => {
                        out.shadow_models.insert(base, slot.clone());
                    }
                    None => break, // broken source chain — typed error on decode
                }
                cur = base;
            }
        }
        out
    }

    /// The model at `round`, linearly interpolated between the nearest
    /// stored checkpoints when the exact round was thinned away. Returns
    /// `None` outside the stored range.
    pub fn model_interpolated(&self, round: Round) -> Option<Vec<f32>> {
        if let Some(exact) = self.model(round) {
            return Some(exact.to_vec());
        }
        let before = self.models.range(..round).next_back().map(|(&r, _)| r)?;
        let after = self.models.range(round + 1..).next().map(|(&r, _)| r)?;
        let bm = self.model(before)?;
        let am = self.model(after)?;
        let span = (after - before) as f32;
        let t = (round - before) as f32 / span;
        Some(fuiov_tensor::vector::lerp(&bm, &am, t))
    }
}

/// Full-precision history used by the FedRecover-style baselines: same
/// bookkeeping, but gradients are kept as `f32` vectors.
#[derive(Debug, Clone, Default)]
pub struct FullGradientStore {
    gradients: BTreeMap<Round, BTreeMap<ClientId, Vec<f32>>>,
}

impl FullGradientStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a client's full gradient for `round`.
    pub fn record(&mut self, round: Round, client: ClientId, grad: Vec<f32>) {
        self.gradients
            .entry(round)
            .or_default()
            .insert(client, grad);
    }

    /// The recorded gradient, if any.
    pub fn gradient(&self, round: Round, client: ClientId) -> Option<&[f32]> {
        self.gradients.get(&round)?.get(&client).map(Vec::as_slice)
    }

    /// Bytes used by the stored gradients.
    pub fn bytes(&self) -> usize {
        self.gradients
            .values()
            .flat_map(|m| m.values())
            .map(|g| g.len() * 4)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_two_rounds() -> HistoryStore {
        let mut h = HistoryStore::with_tier(1e-6, TierConfig::unbounded());
        h.record_model(0, vec![0.0; 4]);
        h.record_model(1, vec![0.1; 4]);
        h.record_join(7, 0);
        h.record_join(8, 1);
        h.record_gradient(0, 7, &[0.5, -0.5, 0.0, 0.1]);
        h.record_gradient(1, 7, &[0.5, -0.5, 0.0, 0.1]);
        h.record_gradient(1, 8, &[-0.2, 0.2, 0.3, -0.3]);
        h
    }

    /// Pseudo-random but deterministic model for round `t`.
    fn fake_model(t: usize, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| ((t * 31 + i * 7) as f32).sin() * 0.5 + t as f32 * 1e-3)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn records_and_reads_back() {
        let h = store_with_two_rounds();
        assert_eq!(h.model(1).as_deref(), Some(&[0.1f32; 4][..]));
        assert_eq!(h.direction(1, 8).unwrap().to_signs(), vec![-1, 1, 1, -1]);
        assert_eq!(h.clients_in_round(1), vec![7, 8]);
        assert_eq!(h.rounds(), vec![0, 1]);
        assert_eq!(h.latest_round(), Some(1));
    }

    #[test]
    fn join_round_tracks_first_participation() {
        let mut h = store_with_two_rounds();
        h.record_join(7, 5); // duplicate join must not move F
        assert_eq!(h.join_round(7), Some(0));
        assert_eq!(h.join_round(8), Some(1));
        assert_eq!(h.join_round(99), None);
        assert_eq!(h.clients(), vec![7, 8]);
    }

    #[test]
    fn leave_is_recorded() {
        let mut h = store_with_two_rounds();
        h.record_leave(7, 1);
        assert_eq!(h.participation(7).unwrap().left, Some(1));
        assert_eq!(h.participation(8).unwrap().left, None);
    }

    #[test]
    #[should_panic(expected = "never joined")]
    fn leave_without_join_panics() {
        let mut h = HistoryStore::new(0.0);
        h.record_leave(3, 1);
    }

    #[test]
    fn weights_default_to_one() {
        let mut h = store_with_two_rounds();
        assert_eq!(h.weight(7), 1.0);
        h.set_weight(7, 32.0);
        assert_eq!(h.weight(7), 32.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_is_caught() {
        let mut h = store_with_two_rounds();
        h.record_gradient(2, 7, &[1.0, 2.0]);
    }

    #[test]
    fn storage_accounting() {
        let h = store_with_two_rounds();
        // 3 gradients × 4 elements: packed 1 byte each, full 16 bytes each.
        assert_eq!(h.direction_bytes(), 3);
        assert_eq!(h.full_gradient_bytes_equivalent(), 48);
        assert_eq!(h.model_bytes(), 32);
        assert!((h.gradient_savings_ratio() - 0.9375).abs() < 1e-9);
    }

    #[test]
    fn empty_store_savings_is_zero() {
        let h = HistoryStore::new(0.0);
        assert_eq!(h.gradient_savings_ratio(), 0.0);
        assert_eq!(h.storage_savings_ratio(), 0.0);
        assert_eq!(h.latest_round(), None);
        assert!(h.clients_in_round(0).is_empty());
    }

    #[test]
    fn thinning_keeps_endpoints_and_stride() {
        let mut h = HistoryStore::new(0.0);
        for t in 0..=10 {
            h.record_model(t, vec![t as f32; 2]);
        }
        let thin = h.thinned_models(4);
        assert_eq!(thin.rounds(), vec![0, 4, 8, 10]);
        // Join rounds are pinned.
        let mut h2 = HistoryStore::new(0.0);
        for t in 0..=10 {
            h2.record_model(t, vec![t as f32; 2]);
        }
        h2.record_join(7, 3);
        assert_eq!(h2.thinned_models(4).rounds(), vec![0, 3, 4, 8, 10]);
        // Directions/participation untouched (none recorded here).
        assert_eq!(thin.delta(), h.delta());
    }

    #[test]
    fn interpolation_reconstructs_linear_trajectories_exactly() {
        let mut h = HistoryStore::new(0.0);
        for t in 0..=10 {
            h.record_model(t, vec![t as f32, 2.0 * t as f32]);
        }
        let thin = h.thinned_models(5);
        for t in 0..=10 {
            let m = thin.model_interpolated(t).expect("in range");
            assert!(
                (m[0] - t as f32).abs() < 1e-5 && (m[1] - 2.0 * t as f32).abs() < 1e-5,
                "round {t}: {m:?}"
            );
        }
        assert!(thin.model_interpolated(11).is_none());
    }

    #[test]
    fn interpolation_prefers_exact_models() {
        let mut h = HistoryStore::new(0.0);
        h.record_model(0, vec![0.0]);
        h.record_model(5, vec![100.0]);
        assert_eq!(h.model_interpolated(5).unwrap(), vec![100.0]);
        let mid = h.model_interpolated(2).unwrap();
        assert!((mid[0] - 40.0).abs() < 1e-4);
    }

    #[test]
    fn requantized_preserves_structure_with_new_delta() {
        let mut h = store_with_two_rounds();
        h.set_weight(7, 3.0);
        h.record_leave(8, 1);
        let mut full = FullGradientStore::new();
        full.record(0, 7, vec![0.5, -0.5, 0.0, 0.1]);
        full.record(1, 7, vec![0.5, -0.5, 0.0, 0.1]);
        full.record(1, 8, vec![-0.2, 0.2, 0.3, -0.3]);

        // Huge delta: everything quantises to zero.
        let r = h.requantized(&full, 10.0);
        assert_eq!(r.delta(), 10.0);
        assert_eq!(r.rounds(), h.rounds());
        assert_eq!(r.join_round(8), Some(1));
        assert_eq!(r.participation(8).unwrap().left, Some(1));
        assert_eq!(r.weight(7), 3.0);
        assert_eq!(r.direction(1, 8).unwrap().to_signs(), vec![0, 0, 0, 0]);

        // Tiny delta: signs as before.
        let r2 = h.requantized(&full, 1e-9);
        assert_eq!(r2.direction(1, 8).unwrap().to_signs(), vec![-1, 1, 1, -1]);
    }

    #[test]
    fn requantized_drops_entries_missing_from_full_store() {
        let h = store_with_two_rounds();
        let full = FullGradientStore::new();
        let r = h.requantized(&full, 1e-6);
        assert!(r.direction(0, 7).is_none());
        assert_eq!(r.rounds(), h.rounds());
    }

    #[test]
    fn full_store_costs_16x_packed() {
        let mut full = FullGradientStore::new();
        full.record(0, 1, vec![0.1; 100]);
        assert_eq!(full.bytes(), 400);
        assert_eq!(full.gradient(0, 1).unwrap().len(), 100);
        assert!(full.gradient(1, 1).is_none());

        let mut packed = HistoryStore::new(1e-6);
        packed.record_gradient(0, 1, &vec![0.1; 100]);
        assert_eq!(packed.direction_bytes(), 25);
        assert_eq!(full.bytes() / packed.direction_bytes(), 16);
    }

    // ------------------------------------------------------------------
    // Tiered-store behaviour
    // ------------------------------------------------------------------

    #[test]
    fn tier_config_parsing() {
        let c = TierConfig::parse(Some("1024"), Some("4"));
        assert_eq!(c.budget_bytes, Some(1024));
        assert_eq!(c.keyframe_interval, 4);
        // 0 / garbage / unset budget means unbounded.
        assert_eq!(TierConfig::parse(Some("0"), None).budget_bytes, None);
        assert_eq!(TierConfig::parse(Some("nope"), None).budget_bytes, None);
        assert_eq!(TierConfig::parse(None, None), TierConfig::unbounded());
        // Keyframe interval is clamped to >= 1 and defaults otherwise.
        assert_eq!(TierConfig::parse(None, Some("0")).keyframe_interval, 1);
        assert_eq!(
            TierConfig::parse(None, Some("bad")).keyframe_interval,
            DEFAULT_KEYFRAME_INTERVAL
        );
    }

    #[test]
    fn zero_budget_forces_spill_and_reloads_bitwise() {
        for k in [1usize, 2, 5, 8] {
            let tier = TierConfig::bounded(0).with_keyframe_interval(k);
            let mut h = HistoryStore::with_tier(1e-6, tier);
            let mut reference: Vec<Vec<f32>> = Vec::new();
            for t in 0..12 {
                let mut m = fake_model(t, 9);
                if t == 3 {
                    m[0] = f32::NAN; // exactness must hold for odd payloads too
                    m[1] = -0.0;
                }
                h.record_model(t, m.clone());
                h.record_gradient(t, 1, &fake_model(t + 100, 9));
                reference.push(m);
            }
            for t in 0..12 {
                assert_eq!(h.model_tier(t), Some(Tier::Spilled), "k={k} t={t}");
                assert_eq!(
                    h.directions_tier(t),
                    Some(Tier::Hot).filter(|_| false).or(Some(Tier::Spilled)),
                    "k={k} t={t}"
                );
            }
            // Random-access every round: chain decode must be exact.
            for t in (0..12).rev() {
                let m = h.model(t).expect("spilled round decodes");
                assert_eq!(bits(&m), bits(&reference[t]), "k={k} t={t}");
            }
            let stats = h.tier_stats();
            assert!(stats.spill_writes >= 24, "k={k}: {stats:?}");
            assert!(stats.spill_loads > 0, "k={k}: {stats:?}");
            assert_eq!(stats.decode_errors, 0, "k={k}");
            assert!(h.spilled_bytes() > 0);
        }
    }

    #[test]
    fn delta_records_shrink_model_storage_at_k8() {
        let tier = TierConfig::bounded(0).with_keyframe_interval(8);
        let mut h = HistoryStore::with_tier(0.0, tier);
        for t in 0..16 {
            // A slowly-drifting trajectory, like SGD between keyframes.
            let m: Vec<f32> = (0..256)
                .map(|i| (i as f32).cos() + t as f32 * 1e-4)
                .collect();
            h.record_model(t, m);
        }
        assert!(
            h.model_bytes_stored() < h.model_bytes() * 3 / 4,
            "stored {} vs decoded {}",
            h.model_bytes_stored(),
            h.model_bytes()
        );
        assert!(h.storage_savings_ratio() > 0.0);
    }

    #[test]
    fn round_view_snapshots_and_direction_words_are_shared() {
        let mut h = store_with_two_rounds();
        let view = h.round_view(1);
        assert_eq!(view.round(), 1);
        assert_eq!(view.model(), h.model(1).as_deref());
        assert_eq!(view.clients().collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(view.n_clients(), 2);
        assert_eq!(
            view.directions().map(|(c, _)| c).collect::<Vec<_>>(),
            vec![7, 8]
        );
        assert_eq!(view.direction(8).unwrap().to_signs(), vec![-1, 1, 1, -1]);
        assert!(view.direction(99).is_none());
        // Snapshot semantics: later mutation doesn't change the view.
        h.record_gradient(1, 9, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(view.n_clients(), 2);
        assert_eq!(h.round_view(1).n_clients(), 3);
        // Absent round: empty view, no panic.
        let empty = h.round_view(77);
        assert!(empty.model().is_none());
        assert_eq!(empty.n_clients(), 0);
    }

    #[test]
    fn round_view_after_spill_matches_hot_view_bitwise() {
        let mut h = HistoryStore::with_tier(1e-6, TierConfig::unbounded());
        for t in 0..6 {
            h.record_model(t, fake_model(t, 11));
            h.record_gradient(t, 3, &fake_model(t + 50, 11));
            h.record_gradient(t, 4, &fake_model(t + 80, 11));
        }
        let hot: Vec<RoundView> = (0..6).map(|t| h.round_view(t)).collect();
        h.force_spill_all();
        h.invalidate_caches();
        for (t, hv) in hot.iter().enumerate() {
            let cold = h.try_round_view(t).expect("spilled round decodes");
            assert_eq!(
                bits(hv.model().unwrap()),
                bits(cold.model().unwrap()),
                "t={t}"
            );
            assert_eq!(
                hv.directions().collect::<Vec<_>>(),
                cold.directions().collect::<Vec<_>>(),
                "t={t}"
            );
        }
        assert!(h.tier_stats().spill_loads > 0);
    }

    #[test]
    fn prefetch_warms_the_cache() {
        let mut h = HistoryStore::with_tier(0.0, TierConfig::bounded(0).with_keyframe_interval(4));
        for t in 0..4 {
            h.record_model(t, fake_model(t, 6));
            h.record_gradient(t, 1, &fake_model(t + 9, 6));
        }
        h.invalidate_caches();
        h.prefetch(2);
        let loads_after_prefetch = h.tier_stats().spill_loads;
        assert!(loads_after_prefetch > 0);
        // The prefetched round is now a pure cache hit.
        let _ = h.round_view(2);
        assert_eq!(h.tier_stats().spill_loads, loads_after_prefetch);
    }

    #[test]
    fn iterator_variants_match_vec_variants() {
        let mut h = store_with_two_rounds();
        assert_eq!(h.rounds_iter().collect::<Vec<_>>(), h.rounds());
        assert_eq!(
            h.clients_in_round_iter(1).collect::<Vec<_>>(),
            h.clients_in_round(1)
        );
        assert_eq!(h.clients_in_round_iter(1).len(), 2);
        assert_eq!(h.clients_in_round_iter(42).count(), 0);
        h.force_spill_all();
        assert_eq!(h.clients_in_round_iter(1).collect::<Vec<_>>(), vec![7, 8]);
    }

    #[test]
    fn thinning_does_not_reload_spilled_segments() {
        let mut h = HistoryStore::with_tier(0.0, TierConfig::bounded(0).with_keyframe_interval(8));
        let mut reference: Vec<Vec<f32>> = Vec::new();
        for t in 0..=10 {
            let m = fake_model(t, 7);
            h.record_model(t, m.clone());
            reference.push(m);
        }
        let loads_before = h.tier_stats().spill_loads;
        let spilled_before = h.spilled_bytes();
        let thin = h.thinned_models(4);
        // Building the thinned store touched neither the spill file nor
        // the decode path, and appended nothing.
        assert_eq!(h.tier_stats().spill_loads, loads_before);
        assert_eq!(thin.tier_stats().spill_loads, 0);
        assert_eq!(thin.spilled_bytes(), spilled_before);
        assert_eq!(thin.rounds(), vec![0, 4, 8, 10]);
        // Kept rounds still decode bitwise — including round 10, whose
        // delta base (round 9) was thinned away into a shadow slot.
        for &t in &[0usize, 4, 8, 10] {
            assert_eq!(thin.model_tier(t), Some(Tier::Spilled));
            let m = thin.model(t).expect("kept round decodes");
            assert_eq!(bits(&m), bits(&reference[t]), "t={t}");
        }
        // Thinned-away rounds are gone from the visible API.
        assert!(thin.model(9).is_none());
        assert!(thin.model_tier(9).is_none());
    }

    #[test]
    fn clone_shares_spill_but_isolates_mutation() {
        let mut h = HistoryStore::with_tier(0.0, TierConfig::bounded(0).with_keyframe_interval(4));
        for t in 0..4 {
            h.record_model(t, fake_model(t, 5));
        }
        let mut c = h.clone();
        assert_eq!(c.spill_path(), h.spill_path());
        let original = h.model(2).unwrap().to_vec();
        c.record_model(2, vec![9.0; 5]);
        assert_eq!(c.model(2).as_deref(), Some(&[9.0f32; 5][..]));
        assert_eq!(bits(&h.model(2).unwrap()), bits(&original));
        // Round 3 in the clone was delta-based on the old round 2 and
        // must have been re-materialised before the overwrite.
        assert_eq!(bits(&c.model(3).unwrap()), bits(&h.model(3).unwrap()));
    }

    #[test]
    fn overwrite_and_remove_preserve_dependent_rounds() {
        let mut h = HistoryStore::with_tier(0.0, TierConfig::bounded(0).with_keyframe_interval(4));
        for t in 0..8 {
            h.record_model(t, fake_model(t, 6));
        }
        let old5 = h.model(5).unwrap().to_vec();
        let old6 = h.model(6).unwrap().to_vec();
        // Round 5 is delta-coded against 4 (k=4 window [4,8)).
        h.record_model(4, vec![7.0; 6]);
        assert_eq!(bits(&h.model(5).unwrap()), bits(&old5));
        assert_eq!(bits(&h.model(6).unwrap()), bits(&old6));
        // Removing round 5 must keep 6 (its delta base) decodable.
        let removed = h.remove_model(5).expect("round 5 present");
        assert_eq!(bits(&removed), bits(&old5));
        assert!(h.model(5).is_none());
        assert_eq!(bits(&h.model(6).unwrap()), bits(&old6));
        assert_eq!(h.tier_stats().decode_errors, 0);
    }

    #[test]
    fn budget_enforcement_keeps_recent_rounds_hot() {
        let dim = 64usize;
        let round_bytes = dim * 4;
        let tier = TierConfig::bounded(3 * round_bytes).with_keyframe_interval(4);
        let mut h = HistoryStore::with_tier(0.0, tier);
        for t in 0..10 {
            h.record_model(t, fake_model(t, dim));
        }
        // Oldest rounds spilled, newest still hot, and the resident slot
        // total respects the budget.
        assert_eq!(h.model_tier(0), Some(Tier::Spilled));
        assert_eq!(h.model_tier(9), Some(Tier::Hot));
        assert!(h.slot_resident_bytes() <= 3 * round_bytes);
        assert!(h.tier_stats().evictions > 0);
        // set_budget(None) stops enforcement; new records stay hot.
        h.set_budget(None);
        h.record_model(10, fake_model(10, dim));
        assert_eq!(h.model_tier(10), Some(Tier::Hot));
    }

    #[test]
    fn corrupt_spill_record_is_typed_never_panics() {
        let mut h = HistoryStore::with_tier(0.0, TierConfig::bounded(0).with_keyframe_interval(1));
        h.record_model(0, vec![1.0, 2.0, 3.0]);
        let (offset, len) = h.spilled_model_extent(0).expect("spilled");
        // Flip a payload byte in place on disk.
        let path = h.spill_path();
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut buf = vec![0u8; len as usize];
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.read_exact(&mut buf).unwrap();
            buf[segment::HEADER_LEN + 5] ^= 0x01;
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.write_all(&buf).unwrap();
        }
        h.invalidate_caches();
        assert!(matches!(
            h.try_model(0),
            Err(SegmentDecodeError::BadChecksum { .. })
        ));
        assert!(h.model(0).is_none());
        assert!(h.round_view(0).model().is_none());
        assert!(h.tier_stats().decode_errors >= 2);
    }

    #[test]
    fn gradient_accounting_survives_spill() {
        let mut h = store_with_two_rounds();
        let dir_bytes = h.direction_bytes();
        let full_bytes = h.full_gradient_bytes_equivalent();
        let model_bytes = h.model_bytes();
        h.force_spill_all();
        assert_eq!(h.direction_bytes(), dir_bytes);
        assert_eq!(h.full_gradient_bytes_equivalent(), full_bytes);
        assert_eq!(h.model_bytes(), model_bytes);
        assert!((h.gradient_savings_ratio() - 0.9375).abs() < 1e-9);
        // Mutating a spilled round loads it back and stays consistent.
        h.record_gradient(1, 9, &[1.0, -1.0, 0.0, 0.0]);
        assert_eq!(h.direction_bytes(), dir_bytes + 1);
        assert_eq!(h.clients_in_round(1), vec![7, 8, 9]);
        assert_eq!(
            h.remove_direction(1, 9).unwrap().to_signs(),
            vec![1, -1, 0, 0]
        );
        assert_eq!(h.direction_bytes(), dir_bytes);
    }
}
