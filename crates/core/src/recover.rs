//! Server-side recovery of the unlearned model (the paper's §IV-B and
//! Algorithm 1).
//!
//! After backtracking to `w̄ = w_F`, the server replays rounds `F..T`
//! *without any client participation*. For each remaining client `i` and
//! round `t` it estimates the gradient the client *would* report at the
//! recovered model via the integral Cauchy mean value theorem (Eq. 6):
//!
//! ```text
//! ḡᵗᵢ = gᵗᵢ + H̃ᵗᵢ · (w̄ₜ − wₜ)
//! ```
//!
//! where `gᵗᵢ` is the **stored direction** of the client's historical
//! gradient (±1/0 — the paper's headline storage trick) and `H̃ᵗᵢ` is the
//! client's compact L-BFGS Hessian approximation. Estimates are clipped
//! element-wise at threshold `L` (Eq. 7), aggregated with the original
//! rule (Eq. 1) and applied with the original learning rate (Eq. 2).
//!
//! The L-BFGS vector pairs are seeded from the `s` rounds *before* `F`
//! (the paper's trick that makes recovery possible after vehicles leave
//! the federation) and refreshed periodically from recovered information
//! as replay proceeds.

use crate::batch::{self, RoundScratch, StackedLbfgs};
use crate::error::UnlearnError;
use crate::lbfgs::{LbfgsApprox, PairBuffer};
use fuiov_fl::Client;
use fuiov_storage::{
    ClientId, GradientDirection, HistoryStore, Round, RoundView, SegmentDecodeError,
};
use fuiov_tensor::vector;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the recovery stage, defaulting to the paper's §V-A3
/// hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Server learning rate `η` (the paper reuses the training rate).
    pub lr: f32,
    /// Element-wise clip threshold `L` (paper default 1.0).
    pub clip_threshold: f32,
    /// Vector-pair buffer size `s` (paper default 2).
    pub buffer_size: usize,
    /// Refresh the vector pairs every this many replayed rounds (paper
    /// default 21).
    pub pair_refresh_interval: usize,
    /// Apply the L-BFGS Hessian correction of Eq. 6. Disabling degrades
    /// the estimate to a raw sign-replay (`ḡᵗᵢ = gᵗᵢ`) — the ablation the
    /// DESIGN.md design-choices section calls out.
    pub hessian_correction: bool,
    /// Reconstruct replay-round models that were thinned away
    /// ([`HistoryStore::thinned_models`]) by linear interpolation between
    /// the surviving checkpoints. Off by default (a missing model is an
    /// error, as in the paper's full-history setting).
    ///
    /// [`HistoryStore::thinned_models`]: fuiov_storage::HistoryStore::thinned_models
    pub interpolate_missing_models: bool,
    /// §IV-B's adaptive trigger: when the recovered trajectory's distance
    /// to the historical trajectory (`‖w̄ₜ − wₜ‖`) grows for this many
    /// consecutive rounds, refresh the vector pairs immediately instead of
    /// waiting for the fixed interval. `None` disables the trigger.
    pub divergence_patience: Option<usize>,
}

impl RecoveryConfig {
    /// Paper defaults with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(
            lr > 0.0 && lr.is_finite(),
            "RecoveryConfig: invalid learning rate"
        );
        RecoveryConfig {
            lr,
            clip_threshold: 1.0,
            buffer_size: 2,
            pair_refresh_interval: 21,
            hessian_correction: true,
            interpolate_missing_models: false,
            // Off by default: the paper refreshes on a fixed interval, and
            // the scenario lab's `ablation-digits` row shows the adaptive
            // trigger's extra refreshes slightly hurt at reduced scale.
            // Enable per run.
            divergence_patience: None,
        }
    }

    /// Sets (or disables, with `None`) the divergence-triggered refresh.
    pub fn divergence_patience(mut self, patience: Option<usize>) -> Self {
        self.divergence_patience = patience;
        self
    }

    /// Enables interpolation of thinned-away replay models.
    pub fn interpolate_missing_models(mut self, on: bool) -> Self {
        self.interpolate_missing_models = on;
        self
    }

    /// Disables the Eq. 6 Hessian correction (sign-replay ablation).
    pub fn without_hessian(mut self) -> Self {
        self.hessian_correction = false;
        self
    }

    /// Sets the clip threshold `L`.
    ///
    /// # Panics
    ///
    /// Panics if not strictly positive and finite.
    pub fn clip_threshold(mut self, l: f32) -> Self {
        assert!(
            l > 0.0 && l.is_finite(),
            "RecoveryConfig: invalid clip threshold"
        );
        self.clip_threshold = l;
        self
    }

    /// Sets the vector-pair buffer size `s`.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn buffer_size(mut self, s: usize) -> Self {
        assert!(s > 0, "RecoveryConfig: buffer size must be positive");
        self.buffer_size = s;
        self
    }

    /// Sets the vector-pair refresh interval.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn pair_refresh_interval(mut self, rounds: usize) -> Self {
        assert!(
            rounds > 0,
            "RecoveryConfig: refresh interval must be positive"
        );
        self.pair_refresh_interval = rounds;
        self
    }
}

/// Estimates a recovery learning rate from the stored history such that
/// sign-magnitude replay reproduces the original training's per-round
/// parameter movement.
///
/// The paper reuses the training rate `η` (§V-A3); that is appropriate
/// when stored-direction magnitudes (±1) are comparable to true gradient
/// elements. When they are not (small-gradient regimes), replaying signs
/// at `η` overshoots by the magnitude ratio. This helper measures both
/// sides from data the server already has:
///
/// ```text
/// η_rec = mean_t mean_j |w_{t+1,j} − w_{t,j}|   (observed step size)
///         ───────────────────────────────────
///         mean_t mean_j |FedAvg(signs)_{t,j}|   (replayed step at η = 1)
/// ```
///
/// Returns `None` if the history has fewer than two models or no
/// recorded directions.
pub fn calibrate_lr(history: &HistoryStore) -> Option<f32> {
    let mut step_sum = 0.0f64;
    let mut dir_sum = 0.0f64;
    let mut samples = 0usize;
    let mut agg: Vec<f64> = Vec::new(); // recycled across windows

    // Pairwise walk of consecutive recorded rounds, streaming each round
    // through its snapshot view (no per-call Vec, no model copies even
    // when `a` sits in the spill tier).
    let mut later = history.rounds_iter();
    later.next()?;
    for (a, b) in history.rounds_iter().zip(later) {
        let view = history.round_view(a);
        let (Some(wa), Some(wb)) = (view.model(), history.model(b)) else {
            continue;
        };
        if view.n_clients() == 0 {
            continue;
        }
        let dim = wa.len();
        agg.clear();
        agg.resize(dim, 0.0);
        let mut wsum = 0.0f64;
        for (c, dir) in view.directions() {
            let w = f64::from(history.weight(c));
            wsum += w;
            // Word-level LUT decode fused with the weighted accumulation —
            // same per-element `acc += w · sign` as the scalar path.
            dir.decode_axpy(w, &mut agg);
        }
        if wsum == 0.0 {
            continue;
        }
        let step: f64 = wa
            .iter()
            .zip(wb.iter())
            .map(|(x, y)| (f64::from(*x) - f64::from(*y)).abs())
            .sum::<f64>()
            / dim as f64;
        let dir_mag: f64 = agg.iter().map(|v| (v / wsum).abs()).sum::<f64>() / dim as f64;
        if dir_mag > 0.0 && step > 0.0 {
            step_sum += step;
            dir_sum += dir_mag;
            samples += 1;
        }
    }
    fuiov_obs::counter!("core.calibrations").inc();
    fuiov_obs::counter!("core.calibrate_samples").add(samples as u64);
    if samples == 0 || dir_sum == 0.0 {
        return None;
    }
    let lr = (step_sum / dir_sum) as f32;
    (lr.is_finite() && lr > 0.0).then_some(lr)
}

/// Optional access to still-online vehicles during recovery.
///
/// The paper (§IV-B): *"If some vehicles do not submit enough gradients in
/// rounds from F−s to F−1 and are still online in FL, the server could
/// dispatch historical models that correspond with the rounds of the
/// missing gradients to these vehicles."* Implementations compute a real
/// gradient at a dispatched model; returning `None` means the vehicle is
/// offline (left the federation), in which case the server falls back to
/// history-only estimation.
pub trait GradientOracle {
    /// The gradient of client `client`'s local loss at `params`, or
    /// `None` if the client is unreachable.
    fn gradient_at(&mut self, client: ClientId, params: &[f32]) -> Option<Vec<f32>>;
}

/// The no-clients-available oracle: every vehicle has left the federation.
/// This is the paper's headline setting — recovery from history alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOracle;

impl GradientOracle for NoOracle {
    fn gradient_at(&mut self, _client: ClientId, _params: &[f32]) -> Option<Vec<f32>> {
        None
    }
}

/// A [`GradientOracle`] backed by a pool of live [`Client`]s — the paper's
/// "dispatch historical models to still-online vehicles" mechanism.
///
/// Clients absent from the pool (departed vehicles) yield `None`.
pub struct ClientPoolOracle<'c> {
    clients: Vec<&'c mut Box<dyn Client>>,
}

impl std::fmt::Debug for ClientPoolOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPoolOracle")
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl<'c> ClientPoolOracle<'c> {
    /// Wraps the still-online subset of a client pool.
    pub fn new(clients: Vec<&'c mut Box<dyn Client>>) -> Self {
        ClientPoolOracle { clients }
    }
}

impl GradientOracle for ClientPoolOracle<'_> {
    fn gradient_at(&mut self, client: ClientId, params: &[f32]) -> Option<Vec<f32>> {
        let c = self.clients.iter_mut().find(|c| c.id() == client)?;
        // Round number is irrelevant for a dispatched model; use 0 so the
        // computation is deterministic.
        Some(c.gradient(params, 0))
    }
}

/// Statistics and result of a recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The recovered global model `w̄_T`.
    pub params: Vec<f32>,
    /// The forgotten clients.
    pub clients: Vec<ClientId>,
    /// The backtrack point `F`.
    pub start_round: Round,
    /// The final round `T`.
    pub end_round: Round,
    /// Rounds actually replayed (`T − F`).
    pub rounds_replayed: usize,
    /// Client-rounds where no L-BFGS approximation was available and the
    /// raw stored direction was used (H term omitted).
    pub estimator_fallbacks: usize,
    /// Times a live vehicle was asked for a gradient (oracle hits).
    pub oracle_queries: usize,
    /// L2 norm of each round's aggregated update.
    pub update_norms: Vec<f32>,
}

/// Runs Algorithm 1 for a set of forgotten clients (one vehicle, or e.g.
/// all detected attackers in the Fig. 1 scenario): backtrack to the
/// earliest join round `F` among them (Eq. 5), then replay rounds `F..T`
/// with every member of the set excluded — Cauchy-MVT gradient estimation
/// (Eq. 6), clipping (Eq. 7) and FedAvg.
///
/// `on_round` is invoked after every replayed round with `(t, w̄)` so
/// callers can trace accuracy curves.
///
/// # Errors
///
/// Propagates [`UnlearnError`] from [`backtrack_set`](crate::backtrack_set)
/// (including an empty set), plus [`UnlearnError::NothingToRecover`] when
/// `F = T`, [`UnlearnError::MissingModel`] if a replay round's model is
/// missing, and [`UnlearnError::Storage`] if a spilled record of a seed or
/// replay round does not decode. A missing seed round is skipped.
pub fn recover_set(
    history: &HistoryStore,
    forgotten: &[ClientId],
    config: &RecoveryConfig,
    oracle: &mut dyn GradientOracle,
    mut on_round: impl FnMut(Round, &[f32]),
) -> Result<RecoveryOutcome, UnlearnError> {
    let mut state = ReplayState::init(history, forgotten, config, oracle)?;
    // All replay-loop temporaries live in one arena, recycled across
    // rounds: no per-round model clones, no per-client estimate vectors.
    let mut scratch = RoundScratch::new();
    while !state.is_done() {
        state.step(history, &mut scratch, None, &mut on_round)?;
    }
    Ok(state.finish())
}

/// The incremental form of [`recover_set`]: guards and §IV-B pair seeding
/// in [`ReplayState::init`], then exactly one replayed round per
/// [`ReplayState::step`] call. `recover_set` drives this state machine to
/// completion, so the one-shot path and the resumable `core::jobs` path
/// execute the *same* code — bitwise identical by construction, not by
/// parallel maintenance.
///
/// Every field that influences a future round's arithmetic lives here (a
/// job's in-memory checkpoint is a clone of it, sharing its pair rows, and
/// the job log's codec serialises it); `roster`/`weights` are
/// per-round scratch recycled across steps, reconstructed from the history
/// each round.
#[derive(Debug, Clone)]
pub(crate) struct ReplayState {
    pub(crate) config: RecoveryConfig,
    /// The forgotten set, in caller order (reported in the outcome).
    pub(crate) forgotten: Vec<ClientId>,
    pub(crate) f_round: Round,
    pub(crate) t_end: Round,
    /// Next round to replay; `t_end` once the state is exhausted.
    pub(crate) next_round: Round,
    pub(crate) params: Vec<f32>,
    /// Remaining clients, ascending (the fixed roster order).
    pub(crate) remaining: Vec<ClientId>,
    pub(crate) buffers: BTreeMap<ClientId, PairBuffer>,
    pub(crate) approxes: BTreeMap<ClientId, LbfgsApprox>,
    pub(crate) prev_dw_norm: f32,
    pub(crate) growth_run: usize,
    pub(crate) estimator_fallbacks: usize,
    pub(crate) oracle_queries: usize,
    pub(crate) update_norms: Vec<f32>,
    /// The batched engine: all clients' L-BFGS factors stacked into one
    /// matrix so each round runs ONE fused inbound sweep of the shared
    /// `w̄ₜ − wₜ` instead of n per-client passes. Rebuilt lazily whenever a
    /// pair refresh changes any approximation.
    pub(crate) stacked: StackedLbfgs,
    pub(crate) stacked_dirty: bool,
    /// Per-round roster `(client, stacked entry)`, recycled across steps.
    pub(crate) roster: Vec<(ClientId, Option<usize>)>,
    /// Per-round FedAvg weights parallel to `roster`, recycled.
    pub(crate) weights: Vec<f32>,
}

impl ReplayState {
    /// Runs the guards of Algorithm 1 and seeds the vector pairs from the
    /// `s` rounds before `F` (§IV-B), yielding a state positioned at
    /// `next_round == F`.
    ///
    /// # Errors
    ///
    /// See [`recover_set`] — everything up to (not including) the first
    /// replayed round errors here.
    pub(crate) fn init(
        history: &HistoryStore,
        forgotten: &[ClientId],
        config: &RecoveryConfig,
        oracle: &mut dyn GradientOracle,
    ) -> Result<Self, UnlearnError> {
        let bt = crate::backtrack::backtrack_set(history, forgotten)?;
        let forgotten_set: std::collections::BTreeSet<ClientId> =
            forgotten.iter().copied().collect();
        let f_round = bt.join_round;
        let t_end = bt.latest_round;
        if f_round >= t_end {
            return Err(UnlearnError::NothingToRecover {
                join_round: f_round,
                latest_round: t_end,
            });
        }

        let params = bt.params;
        let remaining: Vec<ClientId> = history
            .clients()
            .into_iter()
            .filter(|c| !forgotten_set.contains(c))
            .collect();

        // Guard the empty membership window: if no remaining client
        // submitted a gradient anywhere in `F..T` (everyone else had
        // already left the federation), replay would degenerate to a
        // sequence of zero updates and hand back the backtracked model as
        // if it were recovered. Fail with a typed error instead so callers
        // can fall back (e.g. retrain).
        let mut window_has_participant = false;
        for t in f_round..t_end {
            if history
                .try_directions(t)?
                .keys()
                .any(|c| !forgotten_set.contains(c))
            {
                window_has_participant = true;
                break;
            }
        }
        if remaining.is_empty() || !window_has_participant {
            return Err(UnlearnError::EmptyMembershipWindow {
                start_round: f_round,
                end_round: t_end,
            });
        }

        let mut oracle_queries = 0usize;
        let mut buffers: BTreeMap<ClientId, PairBuffer> = BTreeMap::new();
        let mut approxes: BTreeMap<ClientId, LbfgsApprox> = BTreeMap::new();

        // ---- Seed vector pairs from the s rounds before F (§IV-B). ----
        let seed_start = f_round.saturating_sub(config.buffer_size);
        // Hold the historical models through their tier guard on the
        // common path (a hot round stays borrowed, a spilled one is pinned
        // in the decode cache); only a model that
        // `interpolate_missing_models` has to synthesise is ever owned.
        let w_f = history
            .try_model(f_round)?
            .ok_or(UnlearnError::MissingModel(f_round))?;
        // The pairs are (ΔW, ΔGⁱ): a seed round's ΔW = w_r − w_F carries no
        // client index, so it is computed once, by the first client with a
        // direction at r, and every other such client shares that row.
        let mut seed_dws: Vec<Option<Arc<[f32]>>> = vec![None; f_round - seed_start];
        // Each client's g_F and g_r decode into these, reused across
        // clients; each pushed ΔG row is built in its own shared row.
        let (mut g_f, mut g_r) = (Vec::new(), Vec::new());
        for &client in &remaining {
            let mut buf = PairBuffer::new(config.buffer_size);
            // Base gradient g_F: stored direction at F, or oracle, or
            // nearest later round's direction.
            let have_g_f = direction_or_oracle(
                history,
                client,
                f_round,
                &w_f,
                oracle,
                &mut oracle_queries,
                &mut g_f,
            )? || nearest_direction(history, client, f_round, t_end, &mut g_f)?;
            if have_g_f {
                for r in seed_start..f_round {
                    let guard = history.try_model(r)?;
                    let interp;
                    let w_r: &[f32] = match guard.as_deref() {
                        Some(m) => m,
                        None if config.interpolate_missing_models => {
                            match history.model_interpolated(r) {
                                Some(m) => {
                                    interp = m;
                                    &interp
                                }
                                None => continue,
                            }
                        }
                        None => continue,
                    };
                    if !direction_or_oracle(
                        history,
                        client,
                        r,
                        w_r,
                        oracle,
                        &mut oracle_queries,
                        &mut g_r,
                    )? {
                        continue;
                    }
                    let dw = seed_dws[r - seed_start]
                        .get_or_insert_with(|| diff_row(w_r, &w_f))
                        .clone();
                    buf.push(dw, diff_row(&g_r, &g_f));
                }
            }
            if let Ok(approx) = buf.approximation() {
                approxes.insert(client, approx);
            }
            buffers.insert(client, buf);
        }

        let dim = params.len();
        Ok(ReplayState {
            config: *config,
            forgotten: forgotten.to_vec(),
            f_round,
            t_end,
            next_round: f_round,
            params,
            remaining,
            buffers,
            approxes,
            prev_dw_norm: 0.0,
            growth_run: 0,
            estimator_fallbacks: 0,
            oracle_queries,
            update_norms: Vec::with_capacity(t_end - f_round),
            stacked: StackedLbfgs::build(dim, std::iter::empty()),
            stacked_dirty: config.hessian_correction,
            roster: Vec::new(),
            weights: Vec::new(),
        })
    }

    /// Re-stacks the approximations if a pair refresh dirtied the stack
    /// (and the Hessian correction is on), reusing the stack's buffer.
    /// Pure with respect to the replay arithmetic: the round that needs
    /// the stack would flush it anyway, so flushing early (a cross-job
    /// sweep, a checkpoint seal) moves no bit.
    pub(crate) fn flush_stack(&mut self) {
        if self.config.hessian_correction && self.stacked_dirty {
            self.stacked
                .rebuild(self.approxes.iter().map(|(c, a)| (*c, a)));
            self.stacked_dirty = false;
            fuiov_obs::counter!("core.stack_rebuilds").inc();
        }
    }

    /// Whether every round in `F..T` has been replayed.
    pub(crate) fn is_done(&self) -> bool {
        self.next_round >= self.t_end
    }

    /// Pre-computes this round's shared vector `w̄ₜ − wₜ` into
    /// `scratch.dw_t` and (if a pair refresh dirtied it) rebuilds the
    /// stack — the inputs a *cross-job* fused sweep needs before
    /// [`ReplayState::step`] runs with externally-computed dots. Pure with
    /// respect to the replay arithmetic: `step` recomputes `dw_t` from the
    /// identical inputs and sees the stack already clean, so calling this
    /// first moves no bit of the recovered model.
    ///
    /// Returns whether the round wants a Hessian sweep at all (correction
    /// enabled and a non-empty stack).
    ///
    /// # Errors
    ///
    /// [`UnlearnError::MissingModel`] and [`UnlearnError::Storage`] as in
    /// [`ReplayState::step`].
    pub(crate) fn prepare_sweep(
        &mut self,
        history: &HistoryStore,
        scratch: &mut RoundScratch,
    ) -> Result<bool, UnlearnError> {
        debug_assert!(!self.is_done(), "prepare_sweep on an exhausted state");
        self.open_round(history, scratch)?;
        Ok(self.config.hessian_correction && !self.stacked.is_empty())
    }

    /// The opening of round `next_round` that [`ReplayState::prepare_sweep`]
    /// and [`ReplayState::step`] share: snapshot the round once (packed
    /// direction words and the model stay pinned behind the view; hot
    /// rounds borrow, spilled rounds decode once into the LRU), put
    /// `w̄ₜ − wₜ` into `scratch.dw_t` (from the recorded model, or its
    /// interpolation when that is on) and flush the stack.
    fn open_round(
        &mut self,
        history: &HistoryStore,
        scratch: &mut RoundScratch,
    ) -> Result<RoundView, UnlearnError> {
        let t = self.next_round;
        let view = history.try_round_view(t)?;
        {
            let w_t: Cow<'_, [f32]> = match view.model() {
                Some(m) => Cow::Borrowed(m),
                None if self.config.interpolate_missing_models => history
                    .model_interpolated(t)
                    .map(Cow::Owned)
                    .ok_or(UnlearnError::MissingModel(t))?,
                None => return Err(UnlearnError::MissingModel(t)),
            };
            vector::sub_into_aligned(&self.params, &w_t, &mut scratch.dw_t); // w̄_t − w_t
        }
        self.flush_stack();
        Ok(view)
    }

    /// Replays exactly one round (`next_round`), advancing the state.
    ///
    /// `dots_override` injects the per-column dots of this state's stack
    /// against this round's `w̄ₜ − wₜ` when a cross-job sweep already
    /// computed them ([`crate::batch::fused_dots_multi`]); `None` runs the
    /// per-state fused sweep, which is the one-shot [`recover_set`] path.
    ///
    /// # Errors
    ///
    /// [`UnlearnError::MissingModel`] if the round's model is gone and
    /// interpolation is off; [`UnlearnError::Storage`] if the round's
    /// spilled model or directions record does not decode.
    pub(crate) fn step(
        &mut self,
        history: &HistoryStore,
        scratch: &mut RoundScratch,
        dots_override: Option<&[f32]>,
        on_round: &mut dyn FnMut(Round, &[f32]),
    ) -> Result<(), UnlearnError> {
        let t = self.next_round;
        debug_assert!(t < self.t_end, "step on an exhausted state");
        let config = self.config;
        let dim = self.params.len();

        // The view's direction words stream straight into the LUT kernels
        // below — no intermediate `Vec<f32>` per client.
        let view = self.open_round(history, scratch)?;

        // ---- Vector-pair refresh decision: periodic, plus the §IV-B
        // adaptive trigger when the recovered trajectory keeps drifting
        // away from the historical one. It reads only w̄ₜ − wₜ and the
        // run state, so it is taken before the client loop, whose blocks
        // then push the refreshed pairs inline. ----
        let dw_norm = vector::l2_norm(&scratch.dw_t);
        if dw_norm > self.prev_dw_norm {
            self.growth_run += 1;
        } else {
            self.growth_run = 0;
        }
        self.prev_dw_norm = dw_norm;
        let diverging = config
            .divergence_patience
            .is_some_and(|patience| self.growth_run >= patience);
        let replayed = t - self.f_round + 1;
        let refresh =
            (replayed.is_multiple_of(config.pair_refresh_interval) || diverging) && dw_norm > 1e-12;
        if refresh && diverging {
            self.growth_run = 0;
        }

        // Round roster in fixed `remaining` (ascending client) order — the
        // aggregation below folds estimate rows in exactly this order,
        // so the recovered model is bitwise identical at any pool width
        // (DESIGN.md §5).
        self.roster.clear();
        self.weights.clear();
        for &client in &self.remaining {
            // Not in the view = client did not participate in round t.
            if view.direction(client).is_none() {
                continue;
            }
            let entry = config
                .hessian_correction
                .then(|| self.stacked.entry_for(client))
                .flatten();
            if config.hessian_correction && entry.is_none() {
                self.estimator_fallbacks += 1;
                fuiov_obs::counter!("core.estimator_fallbacks").inc();
            }
            self.roster.push((client, entry));
            self.weights.push(history.weight(client));
        }
        let n_part = self.roster.len();

        if n_part == 0 {
            self.update_norms.push(0.0);
        } else {
            // Passes 1+2 of the batched round: one fused column-dot sweep
            // of dw_t over the whole stack (or the cross-job sweep's slice
            // of the very same dots), then every client's tiny middle
            // solve against its slice.
            if config.hessian_correction && !self.stacked.is_empty() {
                let dots: &[f32] = match dots_override {
                    Some(d) => d,
                    None => {
                        fuiov_obs::counter!("core.hvp_fused_sweeps").inc();
                        self.stacked.fused_dots(&scratch.dw_t, &mut scratch.dots);
                        &scratch.dots
                    }
                };
                self.stacked
                    .solve_middles(dots, &mut scratch.ps, &mut scratch.rhs, &mut scratch.p);
            }

            // Pass 3, streamed a block of rows at a time: decode and
            // correct each row, clip (and observe) the block, fold it into
            // FedAvg, and on a refresh round push each client's pair from
            // its clipped row. A refreshed client's new
            // approximation replaces its old one and the stack releases
            // the client's ΔG handles, freeing the evicted row now; the
            // client's rows were filled in this block and are not read
            // again this round, and the next round rebuilds the stack.
            // The round's ΔW = w̄ₜ − wₜ is one row, made by the first
            // client that pushes a pair and shared by every other; each
            // client's ΔG is a row of its own.
            let mut dw_row: Option<Arc<[f32]>> = None;
            batch::stream_fedavg(
                dim,
                &self.weights,
                config.clip_threshold,
                &mut scratch.est,
                &mut scratch.acc64,
                &mut scratch.agg,
                &mut self.stacked,
                |stacked, p, row| {
                    let (client, entry) = self.roster[p];
                    let dir = view.direction(client).expect("roster checked");
                    dir.decode_into(row);
                    if let Some(e) = entry {
                        stacked.accumulate_correction(e, &scratch.ps, &scratch.dw_t, row);
                    }
                },
                |stacked, rows, block| {
                    if !refresh {
                        return;
                    }
                    for (i, p) in rows.enumerate() {
                        let client = self.roster[p].0;
                        let est = &block[i * dim..(i + 1) * dim];
                        scratch.stored.resize(dim, 0.0);
                        let dir = view.direction(client).expect("roster checked");
                        dir.decode_into(&mut scratch.stored);
                        let dg = diff_row(est, &scratch.stored);
                        if vector::l2_norm(&dg) <= 1e-12 {
                            continue; // clipped estimate identical to history: no info
                        }
                        let dw = dw_row
                            .get_or_insert_with(|| Arc::from(&scratch.dw_t[..]))
                            .clone();
                        let buf = self
                            .buffers
                            .entry(client)
                            .or_insert_with(|| PairBuffer::new(config.buffer_size));
                        buf.push(dw, dg);
                        fuiov_obs::counter!("core.pair_refreshes").inc();
                        if let Ok(approx) = buf.approximation() {
                            self.approxes.insert(client, approx);
                            stacked.release(client);
                            self.stacked_dirty = true;
                        }
                        // On failure keep the previous approximation.
                    }
                },
            );
            vector::axpy(-config.lr, &scratch.agg, &mut self.params);
            self.update_norms.push(vector::l2_norm(&scratch.agg));
        }

        fuiov_obs::counter!("core.replay_rounds").inc();
        on_round(t, &self.params);
        self.next_round = t + 1;
        Ok(())
    }

    /// Consumes the exhausted state into its [`RecoveryOutcome`].
    pub(crate) fn finish(self) -> RecoveryOutcome {
        RecoveryOutcome {
            params: self.params,
            clients: self.forgotten,
            start_round: self.f_round,
            end_round: self.t_end,
            rounds_replayed: self.t_end - self.f_round,
            estimator_fallbacks: self.estimator_fallbacks,
            oracle_queries: self.oracle_queries,
            update_norms: self.update_norms,
        }
    }
}

/// The element-wise difference `x − y` built straight into a shared row:
/// the iterator knows its length, so the row is allocated once and
/// written once. Each element is `vector::sub`'s.
fn diff_row(x: &[f32], y: &[f32]) -> Arc<[f32]> {
    assert_eq!(x.len(), y.len(), "diff_row: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Decodes the stored direction for `(round, client)` into `out`, else a
/// quantised oracle gradient at the dispatched historical model; `false`
/// (with `out` untouched) when there is neither.
fn direction_or_oracle(
    history: &HistoryStore,
    client: ClientId,
    round: Round,
    model: &[f32],
    oracle: &mut dyn GradientOracle,
    oracle_queries: &mut usize,
    out: &mut Vec<f32>,
) -> Result<bool, SegmentDecodeError> {
    if let Some(dir) = history.try_direction(round, client)? {
        out.resize(dir.len(), 0.0);
        dir.decode_into(out);
        return Ok(true);
    }
    let Some(grad) = oracle.gradient_at(client, model) else {
        return Ok(false);
    };
    *oracle_queries += 1;
    fuiov_obs::counter!("core.oracle_queries").inc();
    let dir = GradientDirection::quantize(&grad, history.delta());
    out.resize(dir.len(), 0.0);
    dir.decode_into(out);
    Ok(true)
}

/// Decodes into `out` the client's direction from the round nearest to
/// `from` in `[from, until]` (used when the client had not yet joined at
/// `F`); `false` when it has none there.
fn nearest_direction(
    history: &HistoryStore,
    client: ClientId,
    from: Round,
    until: Round,
    out: &mut Vec<f32>,
) -> Result<bool, SegmentDecodeError> {
    for r in from..=until {
        if let Some(dir) = history.try_direction(r, client)? {
            out.resize(dir.len(), 0.0);
            dir.decode_into(out);
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic history of a linear optimisation:
    /// clients pull the model toward distinct targets.
    fn synthetic_history(rounds: usize, clients: usize, forgotten: ClientId) -> HistoryStore {
        let dim = 6;
        let lr = 0.05f32;
        let mut h = HistoryStore::new(1e-6);
        let mut w = vec![0.0f32; dim];
        for c in 0..clients {
            h.record_join(c, if c == forgotten { 2 } else { 0 });
            h.set_weight(c, 10.0);
        }
        for t in 0..rounds {
            h.record_model(t, w.clone());
            let mut grads = Vec::new();
            for c in 0..clients {
                if c == forgotten && t < 2 {
                    continue;
                }
                // Gradient of ½‖w − target_c‖²  with target depending on c.
                let target: Vec<f32> = (0..dim).map(|j| ((c + j) % 3) as f32 - 1.0).collect();
                let g = vector::sub(&w, &target);
                h.record_gradient(t, c, &g);
                grads.push(g);
            }
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let weights = vec![10.0f32; refs.len()];
            let agg = vector::weighted_mean(&refs, &weights);
            vector::axpy(-lr, &agg, &mut w);
        }
        h.record_model(rounds, w);
        h
    }

    /// A federation whose gradient signs alternate with period 3 per
    /// coordinate, so the stored directions keep changing and the seeded
    /// and refreshed pairs have positive curvature (a live stack).
    fn alternating_history(rounds: usize, clients: usize, forgotten: ClientId) -> HistoryStore {
        let dim = 12;
        let mut h = HistoryStore::new(1e-6);
        for c in 0..clients {
            h.record_join(c, if c == forgotten { 2 } else { 0 });
        }
        let mut w: Vec<f32> = (0..dim).map(|j| 0.2 * (j as f32 + 1.0)).collect();
        for t in 0..rounds {
            h.record_model(t, w.clone());
            let mut grads = Vec::new();
            for c in 0..clients {
                if c == forgotten && t < 2 {
                    continue;
                }
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
            let agg = vector::weighted_mean(&refs, &vec![1.0; refs.len()]);
            vector::axpy(-0.05, &agg, &mut w);
        }
        h.record_model(rounds, w);
        h
    }

    #[test]
    fn recovery_runs_and_reports_shape() {
        let h = synthetic_history(30, 4, 1);
        let cfg = RecoveryConfig::new(0.05);
        let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        assert_eq!(out.start_round, 2);
        assert_eq!(out.end_round, 30);
        assert_eq!(out.rounds_replayed, 28);
        assert_eq!(out.update_norms.len(), 28);
        assert_eq!(out.params.len(), 6);
        assert!(out.update_norms.iter().all(|&n| n.is_finite()));
    }

    #[test]
    fn parallel_and_serial_recovery_give_identical_models() {
        // Golden determinism: per-client estimation fans out over the pool
        // but aggregates in fixed client order, so the recovered model must
        // be bitwise identical at every thread count (DESIGN.md §5).
        let h = synthetic_history(30, 6, 1);
        let cfg = RecoveryConfig::new(0.05).pair_refresh_interval(5);
        let run = |threads: usize| {
            fuiov_tensor::pool::set_threads(threads);
            let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
            fuiov_tensor::pool::set_threads(0);
            (
                out.params.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                out.estimator_fallbacks,
                out.update_norms
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u32>>(),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(3), "3-thread recovery diverged from serial");
        assert_eq!(serial, run(8), "8-thread recovery diverged from serial");
    }

    #[test]
    fn stack_holds_each_shared_dw_row_once() {
        // After every rebuild the stack holds Σ sᵢ ΔG rows plus one row
        // per distinct ΔW handle among the stacked approximations (which
        // here are exactly the buffers' pairs: every build succeeds). The
        // seed rounds and every refresh round are shared by several
        // clients, so the stack is always smaller than per-client copies.
        let h = alternating_history(30, 6, 1);
        let cfg = RecoveryConfig::new(0.05).pair_refresh_interval(5);
        let mut state = ReplayState::init(&h, &[1], &cfg, &mut NoOracle).expect("init");
        let mut scratch = RoundScratch::new();
        let mut checked = 0;
        while !state.is_done() {
            state.flush_stack();
            let pairs: usize = state.approxes.values().map(LbfgsApprox::pairs).sum();
            let mut owners: BTreeMap<*const f32, usize> = BTreeMap::new();
            for approx in state.approxes.values() {
                for row in approx.dw_rows() {
                    *owners.entry(row.as_ptr()).or_default() += 1;
                }
            }
            assert_eq!(state.stacked.total_columns(), pairs + owners.len());
            if owners.values().any(|&n| n > 1) {
                assert!(state.stacked.total_columns() < 2 * pairs);
                checked += 1;
            }
            state
                .step(&h, &mut scratch, None, &mut |_, _| {})
                .expect("step");
        }
        assert_eq!(checked, 28, "every replayed round stacks shared rows");
    }

    #[test]
    fn recovered_model_moves_from_backtrack_point() {
        let h = synthetic_history(30, 4, 1);
        let cfg = RecoveryConfig::new(0.05);
        let backtracked = h.model(2).unwrap().to_vec();
        let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        assert!(vector::l2_distance(&out.params, &backtracked) > 1e-3);
    }

    #[test]
    fn on_round_sees_every_replayed_round() {
        let h = synthetic_history(10, 3, 2);
        let cfg = RecoveryConfig::new(0.05).pair_refresh_interval(3);
        let mut seen = Vec::new();
        recover_set(&h, &[2], &cfg, &mut NoOracle, |t, _| seen.push(t)).unwrap();
        assert_eq!(seen, (2..10).collect::<Vec<_>>());
    }

    #[test]
    fn forgotten_client_round_zero_has_no_prefix_pairs() {
        // Forgotten client joined at 0 → backtrack to w_0, no pre-F
        // history → all estimations fall back to raw directions, but
        // recovery still completes.
        let h = synthetic_history(8, 3, 0);
        // Rewrite join round of client 0 to 0 (synthetic_history gives 2).
        let cfg = RecoveryConfig::new(0.05);
        let out = recover_set(&h, &[0], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        assert_eq!(out.start_round, 2); // synthetic_history pins join=2
        assert!(out.params.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nothing_to_recover_when_join_equals_latest() {
        let mut h = HistoryStore::new(0.0);
        h.record_model(0, vec![0.0]);
        h.record_model(5, vec![1.0]);
        h.record_join(1, 5);
        let cfg = RecoveryConfig::new(0.1);
        let err = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap_err();
        assert!(matches!(err, UnlearnError::NothingToRecover { .. }));
    }

    #[test]
    fn empty_membership_window_is_a_typed_error() {
        // Client 0 participates only in rounds 0..2 and leaves; the
        // forgotten client 1 joins at F=2. The replay window 2..5 has no
        // remaining participant, so recovery must refuse with the typed
        // error rather than replaying zero updates (or panicking).
        let mut h = HistoryStore::new(1e-6);
        for t in 0..=5 {
            h.record_model(t, vec![t as f32; 4]);
        }
        h.record_join(0, 0);
        h.record_join(1, 2);
        for t in 0..2 {
            h.record_gradient(t, 0, &[0.5, -0.5, 0.5, -0.5]);
        }
        for t in 2..5 {
            h.record_gradient(t, 1, &[0.5, -0.5, 0.5, -0.5]);
        }
        h.record_leave(0, 1);
        let cfg = RecoveryConfig::new(0.05);
        let err = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap_err();
        assert_eq!(
            err,
            UnlearnError::EmptyMembershipWindow {
                start_round: 2,
                end_round: 5
            }
        );
    }

    #[test]
    fn forgetting_every_client_is_a_typed_error() {
        // Forgetting the whole federation leaves nobody to replay.
        let h = synthetic_history(10, 3, 1);
        let cfg = RecoveryConfig::new(0.05);
        let err = recover_set(&h, &[0, 1, 2], &cfg, &mut NoOracle, |_, _| {}).unwrap_err();
        assert!(matches!(err, UnlearnError::EmptyMembershipWindow { .. }));
    }

    #[test]
    fn missing_replay_model_is_reported() {
        let mut h = HistoryStore::new(0.0);
        h.record_model(0, vec![0.0, 0.0]);
        h.record_model(3, vec![1.0, 1.0]);
        h.record_join(0, 0);
        h.record_join(1, 0);
        h.record_gradient(0, 0, &[1.0, -1.0]);
        h.record_gradient(0, 1, &[1.0, -1.0]);
        // Models for rounds 1,2 missing.
        let cfg = RecoveryConfig::new(0.1);
        let err = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap_err();
        assert_eq!(err, UnlearnError::MissingModel(1));
    }

    #[test]
    fn clipping_bounds_every_update() {
        let h = synthetic_history(20, 4, 1);
        // Tiny clip threshold: aggregated update norm per round is at most
        // sqrt(dim)·L since every element of every estimate is in [−L, L].
        let l = 0.01f32;
        let cfg = RecoveryConfig::new(1.0).clip_threshold(l);
        let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        let bound = (6.0f32).sqrt() * l + 1e-6;
        assert!(
            out.update_norms.iter().all(|&n| n <= bound),
            "norms {:?}",
            out.update_norms
        );
    }

    struct CountingOracle(usize);

    impl GradientOracle for CountingOracle {
        fn gradient_at(&mut self, _c: ClientId, params: &[f32]) -> Option<Vec<f32>> {
            self.0 += 1;
            Some(vec![0.1; params.len()])
        }
    }

    #[test]
    fn oracle_fills_missing_seed_gradients() {
        // Client 3 joins at round 4 (> F=2), so it has no gradients in the
        // seed window; the oracle should be consulted.
        let dim = 4;
        let mut h = HistoryStore::new(1e-6);
        let mut w = vec![0.0f32; dim];
        for t in 0..10 {
            h.record_model(t, w.clone());
            for c in 0..4usize {
                let joined = match c {
                    1 => 2, // forgotten
                    3 => 4, // late joiner
                    _ => 0,
                };
                if t < joined {
                    continue;
                }
                h.record_join(c, joined);
                let g: Vec<f32> = (0..dim).map(|j| 0.1 * (c + j + t) as f32 - 0.2).collect();
                h.record_gradient(t, c, &g);
            }
            w[0] -= 0.01;
        }
        h.record_model(10, w);

        let cfg = RecoveryConfig::new(0.05);
        let mut oracle = CountingOracle(0);
        let out = recover_set(&h, &[1], &cfg, &mut oracle, |_, _| {}).unwrap();
        assert!(out.oracle_queries > 0, "oracle should have been consulted");
        assert_eq!(out.oracle_queries, oracle.0);
    }

    #[test]
    fn oracle_backed_recovery_queries_live_clients() {
        // Forgotten client joined at 2; another client joins at 3 so its
        // seed window needs the oracle.
        use fuiov_data::{Dataset, DigitStyle};
        use fuiov_fl::mobility::{ChurnSchedule, Membership};
        use fuiov_fl::{FlConfig, HonestClient, Server};
        use fuiov_nn::ModelSpec;

        let spec = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        };
        let n = 4;
        let data = Dataset::digits(20 * n, &DigitStyle::small(), 13);
        let parts = fuiov_data::partition::partition_iid(data.len(), n, 13);
        let mut clients: Vec<Box<dyn Client>> = parts
            .into_iter()
            .enumerate()
            .map(|(id, idx)| {
                Box::new(HonestClient::new(id, spec, data.subset(&idx), 10, 13)) as Box<dyn Client>
            })
            .collect();
        let cfg = FlConfig::new(10, 0.3)
            .batch_size(10)
            .parallel_clients(false);
        let mut server = Server::new(cfg, spec.build(7).params());
        let mut schedule = ChurnSchedule::static_membership(n, 10);
        schedule.set_membership(
            1,
            Membership {
                joined: 2,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        schedule.set_membership(
            3,
            Membership {
                joined: 3,
                leaves_after: None,
                dropouts: vec![],
            },
        );
        server.train(&mut clients, &schedule);

        let mut refs: Vec<&mut Box<dyn Client>> = clients.iter_mut().collect();
        refs.retain(|c| c.id() != 1);
        let mut oracle = ClientPoolOracle::new(refs);
        let out = recover_set(
            server.history(),
            &[1],
            &RecoveryConfig::new(0.3),
            &mut oracle,
            |_, _| {},
        )
        .unwrap();
        assert!(out.oracle_queries > 0);
    }

    /// Gradient of ½‖w − target_c‖² at `w`: an oracle answer that moves
    /// with the historical model it is dispatched.
    fn quadratic_grad(c: ClientId, w: &[f32]) -> Vec<f32> {
        w.iter()
            .enumerate()
            .map(|(j, &wj)| wj - 0.3 * (((c + j) % 3) as f32 - 1.0))
            .collect()
    }

    struct QuadraticOracle(usize);

    impl GradientOracle for QuadraticOracle {
        fn gradient_at(&mut self, c: ClientId, params: &[f32]) -> Option<Vec<f32>> {
            self.0 += 1;
            Some(quadratic_grad(c, params))
        }
    }

    #[test]
    fn oracle_answers_recover_as_their_stored_directions_bitwise() {
        // Client 3 joins with the forgotten client 1 at F = 2, so it has
        // no direction in the seed rounds 0 and 1 and the oracle answers
        // there. A history that stores those answers instead (quantised by
        // `record_gradient`) must recover the same bits with no oracle.
        let dim = 11; // every direction ends in a partial byte
        let late = |c: ClientId| c == 1 || c == 3;
        let mut live = HistoryStore::new(0.05);
        for c in 0..4 {
            live.record_join(c, if late(c) { 2 } else { 0 });
        }
        let mut w: Vec<f32> = (0..dim).map(|j| 0.07 * j as f32 - 0.35).collect();
        for t in 0..10 {
            live.record_model(t, w.clone());
            let mut step = vec![0.0f32; dim];
            for c in (0..4).filter(|&c| t >= 2 || !late(c)) {
                let g = quadratic_grad(c, &w);
                live.record_gradient(t, c, &g);
                vector::axpy(0.25, &g, &mut step);
            }
            vector::axpy(-0.1, &step, &mut w);
        }
        live.record_model(10, w);
        let mut stored = live.clone();
        for r in 0..2 {
            let w_r = stored.model(r).expect("recorded").to_vec();
            let g = quadratic_grad(3, &w_r);
            assert!(
                g.iter().any(|v| v.abs() <= 0.05),
                "round {r}: no dead-zone element"
            );
            stored.record_gradient(r, 3, &g);
        }

        let cfg = RecoveryConfig::new(0.05);
        let mut oracle = QuadraticOracle(0);
        let asked = recover_set(&live, &[1], &cfg, &mut oracle, |_, _| {}).unwrap();
        let held = recover_set(&stored, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        assert_eq!((asked.oracle_queries, oracle.0), (2, 2));
        assert_eq!(held.oracle_queries, 0);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&asked.params), bits(&held.params));
        assert_eq!(bits(&asked.update_norms), bits(&held.update_norms));
    }

    #[test]
    fn no_oracle_still_succeeds_for_late_joiners() {
        // Same setup, but with NoOracle: the late joiner must fall back to
        // its nearest later direction and recovery still completes.
        let dim = 4;
        let mut h = HistoryStore::new(1e-6);
        let w = vec![0.0f32; dim];
        for t in 0..8 {
            h.record_model(t, w.clone());
            for c in 0..4usize {
                let joined = match c {
                    1 => 2,
                    3 => 4,
                    _ => 0,
                };
                if t < joined {
                    continue;
                }
                h.record_join(c, joined);
                h.record_gradient(t, c, &[0.5, -0.5, 0.25, -0.25]);
            }
        }
        h.record_model(8, w);
        let cfg = RecoveryConfig::new(0.05);
        let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        assert!(out.params.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn divergence_trigger_refreshes_early() {
        // With patience 1 the trigger fires as soon as ‖w̄−w‖ grows twice,
        // well before the periodic interval (set huge here). The run must
        // still complete and stay finite.
        let h = synthetic_history(30, 4, 1);
        let cfg = RecoveryConfig::new(0.05)
            .pair_refresh_interval(10_000)
            .divergence_patience(Some(1));
        let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        assert!(out.params.iter().all(|v| v.is_finite()));

        // Disabled trigger with a huge interval means pairs never refresh;
        // both paths must produce the same round count.
        let cfg_off = RecoveryConfig::new(0.05)
            .pair_refresh_interval(10_000)
            .divergence_patience(None);
        let out_off = recover_set(&h, &[1], &cfg_off, &mut NoOracle, |_, _| {}).unwrap();
        assert_eq!(out.rounds_replayed, out_off.rounds_replayed);
    }

    #[test]
    fn interpolated_recovery_approximates_full_history() {
        let h = synthetic_history(30, 4, 1);
        let thin = h.thinned_models(3);
        assert!(thin.rounds().len() < h.rounds().len());
        let cfg = RecoveryConfig::new(0.05);

        // Without interpolation, thinned history fails.
        let err = recover_set(&thin, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap_err();
        assert!(matches!(err, UnlearnError::MissingModel(_)));

        // With interpolation it completes and lands near the full-history
        // recovery.
        let cfg_interp = cfg.interpolate_missing_models(true);
        let thin_out = recover_set(&thin, &[1], &cfg_interp, &mut NoOracle, |_, _| {}).unwrap();
        let full_out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {}).unwrap();
        let dist = vector::l2_distance(&thin_out.params, &full_out.params);
        let scale = vector::l2_norm(&full_out.params).max(1.0);
        assert!(
            dist / scale < 0.5,
            "interpolated recovery drifted: {dist} (relative {})",
            dist / scale
        );
        // And it must beat simply stopping at the backtrack point.
        let bt = crate::backtrack::backtrack_set(&h, &[1]).unwrap();
        let bt_dist = vector::l2_distance(&bt.params, &full_out.params);
        assert!(
            dist < bt_dist,
            "interpolation should improve on no recovery"
        );
    }

    #[test]
    fn zero_dimension_history_recovers_empty_params() {
        // Models and directions of length 0 (the decoder refuses such a
        // file, but an in-memory store can hold one): replay must finish
        // with empty params, never split a zero-length row.
        let mut h = HistoryStore::new(1e-6);
        for c in 0..3 {
            h.record_join(c, if c == 1 { 2 } else { 0 });
        }
        for t in 0..6 {
            h.record_model(t, Vec::new());
            for c in 0..3 {
                if c != 1 || t >= 2 {
                    h.record_gradient(t, c, &[]);
                }
            }
        }
        h.record_model(6, Vec::new());
        let cfg = RecoveryConfig::new(0.1).pair_refresh_interval(2);
        for threads in [1, 3] {
            fuiov_tensor::pool::set_threads(threads);
            let out = recover_set(&h, &[1], &cfg, &mut NoOracle, |_, _| {});
            fuiov_tensor::pool::set_threads(0);
            let out = out.expect("zero-dimension replay completes");
            assert!(out.params.is_empty());
            assert_eq!(out.rounds_replayed, 4);
            assert_eq!(out.update_norms.len(), 4);
        }
    }

    #[test]
    fn calibrate_lr_recovers_known_step_ratio() {
        // History where each round moves every weight by exactly 0.01 and
        // every stored sign element is ±1 from a single client: the
        // calibrated lr must be ≈ 0.01.
        let dim = 8;
        let mut h = HistoryStore::new(0.0);
        h.record_join(0, 0);
        for t in 0..5usize {
            h.record_model(t, vec![0.01 * t as f32; dim]);
            h.record_gradient(t, 0, &vec![-1.0; dim]);
        }
        h.record_model(5, vec![0.05; dim]);
        let lr = calibrate_lr(&h).unwrap();
        assert!((lr - 0.01).abs() < 1e-4, "calibrated {lr}");
    }

    #[test]
    fn calibrate_lr_matches_scalar_sign_accumulation_bitwise() {
        // The LUT-fused `decode_axpy` in the weighted accumulation must
        // reproduce the scalar per-element `to_signs()` loop it replaced,
        // down to the final bit of the calibrated rate.
        let h = synthetic_history(25, 5, 1);
        let lr = calibrate_lr(&h).expect("history is calibratable");

        // Scalar reimplementation of the pre-LUT path.
        let rounds = h.rounds();
        let mut step_sum = 0.0f64;
        let mut dir_sum = 0.0f64;
        let mut samples = 0usize;
        for win in rounds.windows(2) {
            let (a, b) = (win[0], win[1]);
            let (Some(wa), Some(wb)) = (h.model(a), h.model(b)) else {
                continue;
            };
            let clients = h.clients_in_round(a);
            if clients.is_empty() {
                continue;
            }
            let dim = wa.len();
            let mut agg = vec![0.0f64; dim];
            let mut wsum = 0.0f64;
            for c in clients {
                let Some(dir) = h.direction(a, c) else {
                    continue;
                };
                let w = f64::from(h.weight(c));
                wsum += w;
                for (acc, s) in agg.iter_mut().zip(dir.to_signs()) {
                    *acc += w * f64::from(s);
                }
            }
            if wsum == 0.0 {
                continue;
            }
            let step: f64 = wa
                .iter()
                .zip(wb.iter())
                .map(|(x, y)| (f64::from(*x) - f64::from(*y)).abs())
                .sum::<f64>()
                / dim as f64;
            let dir_mag: f64 = agg.iter().map(|v| (v / wsum).abs()).sum::<f64>() / dim as f64;
            if dir_mag > 0.0 && step > 0.0 {
                step_sum += step;
                dir_sum += dir_mag;
                samples += 1;
            }
        }
        assert!(samples > 0);
        let expected = (step_sum / dir_sum) as f32;
        assert_eq!(
            lr.to_bits(),
            expected.to_bits(),
            "lr {lr} vs scalar {expected}"
        );
    }

    #[test]
    fn calibrate_lr_requires_history() {
        let h = HistoryStore::new(0.0);
        assert!(calibrate_lr(&h).is_none());
        let mut h2 = HistoryStore::new(0.0);
        h2.record_model(0, vec![0.0; 2]);
        h2.record_model(1, vec![0.1; 2]);
        // No directions recorded → None.
        assert!(calibrate_lr(&h2).is_none());
    }

    #[test]
    fn config_builders_validate() {
        let cfg = RecoveryConfig::new(0.1)
            .clip_threshold(2.0)
            .buffer_size(3)
            .pair_refresh_interval(5);
        assert_eq!(cfg.buffer_size, 3);
        assert_eq!(cfg.pair_refresh_interval, 5);
        assert_eq!(cfg.clip_threshold, 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid clip threshold")]
    fn config_rejects_bad_clip() {
        let _ = RecoveryConfig::new(0.1).clip_threshold(0.0);
    }
}
