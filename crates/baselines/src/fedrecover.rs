//! FedRecover baseline (Cao et al., IEEE S&P 2023), as described in
//! §V-A3.
//!
//! Like the paper's scheme, FedRecover recovers via Cauchy-MVT estimation
//! with L-BFGS Hessian approximations — but it differs in exactly the two
//! ways the paper criticises:
//!
//! 1. the server stores (and estimates from) **complete `f32` gradients**
//!    rather than directions, costing 16× the storage, and
//! 2. it periodically asks **online clients** for exact gradients at the
//!    recovered model (the paper's setup queries every 20 rounds) to
//!    correct estimation drift — so it fails when clients leave FL.
//!
//! This implementation reinitialises to the join-round model (matching the
//! backtracking comparison point so the two schemes recover the same span
//! of rounds).

use fuiov_core::backtrack::backtrack_set;
use fuiov_core::batch::{RoundScratch, StackedLbfgs};
use fuiov_core::lbfgs::{LbfgsApprox, PairBuffer};
use fuiov_core::recover::GradientOracle;
use fuiov_core::UnlearnError;
use fuiov_fl::aggregate::aggregate_refs;
use fuiov_fl::config::AggregationRule;
use fuiov_storage::history::FullGradientStore;
use fuiov_storage::{ClientId, HistoryStore};
use fuiov_tensor::{pool, vector};
use std::collections::BTreeMap;
use std::sync::Arc;

/// FedRecover's knobs.
#[derive(Debug, Clone, Copy)]
pub struct FedRecoverConfig {
    /// Server learning rate `η`.
    pub lr: f32,
    /// L-BFGS buffer size.
    pub buffer_size: usize,
    /// Every this many replayed rounds the server requests exact
    /// gradients from online clients (paper setup: 20).
    pub correction_interval: usize,
    /// Safety clip: an estimated gradient's L2 norm is bounded by this
    /// factor times the historical gradient's norm, preventing L-BFGS
    /// blow-ups between corrections (FedRecover's paper applies a similar
    /// estimate-magnitude guard).
    pub estimate_clip_factor: Option<f32>,
}

impl FedRecoverConfig {
    /// Paper-setup defaults with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(
            lr > 0.0 && lr.is_finite(),
            "FedRecoverConfig: invalid learning rate"
        );
        FedRecoverConfig {
            lr,
            buffer_size: 2,
            correction_interval: 20,
            estimate_clip_factor: Some(3.0),
        }
    }
}

/// Outcome of a FedRecover run.
#[derive(Debug, Clone)]
pub struct FedRecoverOutcome {
    /// Recovered global parameters.
    pub params: Vec<f32>,
    /// Exact-gradient queries made to online clients.
    pub exact_queries: usize,
    /// Client-rounds where no L-BFGS approximation was available.
    pub estimator_fallbacks: usize,
    /// Rounds replayed.
    pub rounds_replayed: usize,
}

/// Runs FedRecover: replay rounds `F..T` estimating remaining clients'
/// gradients from **full stored gradients**, with periodic exact
/// correction through `oracle`.
///
/// # Errors
///
/// Same conditions as [`fuiov_core::recover_set()`]; additionally the full
/// gradient store must contain every gradient the history's participation
/// record promises (a missing entry is treated as non-participation).
pub fn fedrecover(
    history: &HistoryStore,
    full: &FullGradientStore,
    forgotten: ClientId,
    config: &FedRecoverConfig,
    oracle: &mut dyn GradientOracle,
) -> Result<FedRecoverOutcome, UnlearnError> {
    let bt = backtrack_set(history, &[forgotten])?;
    let f_round = bt.join_round;
    let t_end = bt.latest_round;
    if f_round >= t_end {
        return Err(UnlearnError::NothingToRecover {
            join_round: f_round,
            latest_round: t_end,
        });
    }

    let mut params = bt.params;
    let remaining: Vec<ClientId> = history
        .clients()
        .into_iter()
        .filter(|&c| c != forgotten)
        .collect();

    // Seed buffers from pre-F rounds with full gradients. A seed round's
    // ΔW = w_r − w_F is one row shared by every client with a pair from
    // that round, as in `fuiov_core::recover_set`.
    let mut buffers: BTreeMap<ClientId, PairBuffer> = BTreeMap::new();
    let mut approxes: BTreeMap<ClientId, LbfgsApprox> = BTreeMap::new();
    let seed_start = f_round.saturating_sub(config.buffer_size);
    let w_f = history
        .model(f_round)
        .ok_or(UnlearnError::MissingModel(f_round))?;
    let mut seed_dws: Vec<Option<Arc<[f32]>>> = vec![None; f_round - seed_start];
    for &client in &remaining {
        let mut buf = PairBuffer::new(config.buffer_size);
        if let Some(g_f) = full.gradient(f_round, client) {
            for r in seed_start..f_round {
                let (Some(w_r), Some(g_r)) = (history.model(r), full.gradient(r, client)) else {
                    continue;
                };
                let dw = seed_dws[r - seed_start]
                    .get_or_insert_with(|| vector::sub(&w_r, &w_f).into())
                    .clone();
                buf.push(dw, vector::sub(g_r, g_f));
            }
        }
        if let Ok(a) = buf.approximation() {
            approxes.insert(client, a);
        }
        buffers.insert(client, buf);
    }

    let mut exact_queries = 0usize;
    let mut estimator_fallbacks = 0usize;

    // Estimation rounds run on the batched engine: one stacked inbound
    // sweep serves every client's Eq. 6 estimate (see fuiov_core::batch).
    let dim = params.len();
    let mut stacked = StackedLbfgs::build(dim, std::iter::empty());
    let mut stacked_dirty = true;
    let mut scratch = RoundScratch::new();
    let mut roster: Vec<(ClientId, Option<usize>)> = Vec::new();
    let mut weights: Vec<f32> = Vec::new();

    for t in f_round..t_end {
        // Stream the historical model through the round's snapshot view
        // (spilled rounds decode once into the LRU).
        let view = history.round_view(t);
        let w_t = view.model().ok_or(UnlearnError::MissingModel(t))?;
        vector::sub_into_aligned(&params, w_t, &mut scratch.dw_t);
        let dw_t = &scratch.dw_t;
        let replayed = t - f_round + 1;
        let correction_round = replayed % config.correction_interval == 0;
        fuiov_obs::counter!("fedrecover.replay_rounds").inc();
        if correction_round {
            fuiov_obs::counter!("fedrecover.correction_rounds").inc();
        }

        weights.clear();

        if correction_round {
            // Correction rounds stay serial: the oracle is `&mut` and the
            // vector-pair refresh mutates shared state per client. Every
            // refreshed client shares the round's one ΔW row.
            let mut grads: Vec<Vec<f32>> = Vec::new();
            let mut dw_row: Option<Arc<[f32]>> = None;
            for &client in &remaining {
                let Some(g_hist) = full.gradient(t, client) else {
                    continue;
                };
                let mut est = if let Some(exact) = oracle.gradient_at(client, &params) {
                    exact_queries += 1;
                    fuiov_obs::counter!("fedrecover.exact_queries").inc();
                    // Use the exact gradient and refresh this client's
                    // vector pairs with ground truth.
                    if vector::l2_norm(dw_t) > 1e-12 {
                        let dw = dw_row.get_or_insert_with(|| Arc::from(&dw_t[..])).clone();
                        let buf = buffers
                            .entry(client)
                            .or_insert_with(|| PairBuffer::new(config.buffer_size));
                        buf.push(dw, vector::sub(&exact, g_hist));
                        if let Ok(a) = buf.approximation() {
                            approxes.insert(client, a);
                            stacked_dirty = true;
                        }
                    }
                    exact
                } else {
                    let (est, fallback) = estimate(g_hist, dw_t, approxes.get(&client));
                    estimator_fallbacks += usize::from(fallback);
                    fuiov_obs::counter!("fedrecover.estimator_fallbacks").add(fallback as u64);
                    est
                };
                clip_estimate(&mut est, g_hist, config);
                weights.push(history.weight(client));
                grads.push(est);
            }
            if !grads.is_empty() {
                let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
                let agg = aggregate_refs(AggregationRule::FedAvg, &refs, &weights);
                vector::axpy(-config.lr, &agg, &mut params);
            }
        } else {
            // Pure estimation rounds read shared state only: one fused
            // inbound sweep + per-client middle solves, then each client's
            // row of the flat estimate matrix is filled independently.
            // Rows are computed element-for-element like the per-client
            // path and consumed in fixed `remaining` order, keeping the
            // recovered model bitwise identical at any pool width.
            if stacked_dirty {
                stacked.rebuild(approxes.iter().map(|(c, a)| (*c, a)));
                stacked_dirty = false;
            }
            roster.clear();
            for &client in &remaining {
                if full.gradient(t, client).is_none() {
                    continue;
                }
                let entry = stacked.entry_for(client);
                estimator_fallbacks += usize::from(entry.is_none());
                fuiov_obs::counter!("fedrecover.estimator_fallbacks").add(entry.is_none() as u64);
                roster.push((client, entry));
                weights.push(history.weight(client));
            }
            let n_part = roster.len();
            if n_part > 0 {
                if !stacked.is_empty() {
                    stacked.fused_dots(dw_t, &mut scratch.dots);
                    stacked.solve_middles(
                        &scratch.dots,
                        &mut scratch.ps,
                        &mut scratch.rhs,
                        &mut scratch.p,
                    );
                }
                scratch.est.resize(n_part * dim, 0.0);
                let est_buf = &mut scratch.est[..n_part * dim];
                let (stacked_ref, ps, roster_ref) = (&stacked, &scratch.ps, &roster);
                pool::par_row_bands_weighted(est_buf, n_part, dim, dim, |rows, band| {
                    for (row, p) in band.chunks_mut(dim).zip(rows) {
                        let (client, entry) = roster_ref[p];
                        let g_hist = full.gradient(t, client).expect("roster checked");
                        row.copy_from_slice(g_hist);
                        if let Some(e) = entry {
                            stacked_ref.accumulate_correction(e, ps, dw_t, row);
                        }
                        clip_estimate(row, g_hist, config);
                    }
                });
                let refs: Vec<&[f32]> = est_buf.chunks(dim).collect();
                let agg = aggregate_refs(AggregationRule::FedAvg, &refs, &weights);
                vector::axpy(-config.lr, &agg, &mut params);
            }
        }
    }

    Ok(FedRecoverOutcome {
        params,
        exact_queries,
        estimator_fallbacks,
        rounds_replayed: t_end - f_round,
    })
}

/// Cauchy-MVT estimate `g + H̃·dw`; the flag reports an estimator
/// fallback (no approximation available, raw history used).
fn estimate(g_hist: &[f32], dw: &[f32], approx: Option<&LbfgsApprox>) -> (Vec<f32>, bool) {
    let mut est = g_hist.to_vec();
    match approx {
        Some(a) => {
            vector::axpy(1.0, &a.hvp(dw), &mut est);
            (est, false)
        }
        None => (est, true),
    }
}

/// FedRecover's estimate-magnitude guard (L2 clip at a multiple of the
/// historical gradient norm).
fn clip_estimate(est: &mut [f32], g_hist: &[f32], config: &FedRecoverConfig) {
    if let Some(factor) = config.estimate_clip_factor {
        let bound = factor * vector::l2_norm(g_hist);
        if bound > 0.0 {
            vector::clip_l2(est, bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_core::recover::NoOracle;

    /// History + full store from a synthetic quadratic optimisation.
    fn synthetic(
        rounds: usize,
        clients: usize,
        forgotten: ClientId,
    ) -> (HistoryStore, FullGradientStore) {
        let dim = 5;
        let lr = 0.05f32;
        let mut h = HistoryStore::new(1e-6);
        let mut fs = FullGradientStore::new();
        let mut w = vec![0.0f32; dim];
        for c in 0..clients {
            h.record_join(c, if c == forgotten { 2 } else { 0 });
            h.set_weight(c, 1.0);
        }
        for t in 0..rounds {
            h.record_model(t, w.clone());
            let mut grads = Vec::new();
            for c in 0..clients {
                if c == forgotten && t < 2 {
                    continue;
                }
                let target: Vec<f32> = (0..dim).map(|j| ((c + j) % 3) as f32).collect();
                let g = vector::sub(&w, &target);
                h.record_gradient(t, c, &g);
                fs.record(t, c, g.clone());
                grads.push(g);
            }
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let agg = vector::weighted_mean(&refs, &vec![1.0; refs.len()]);
            vector::axpy(-lr, &agg, &mut w);
        }
        h.record_model(rounds, w);
        (h, fs)
    }

    #[test]
    fn recovers_close_to_true_remaining_trajectory() {
        let (h, fs) = synthetic(40, 4, 1);
        let cfg = FedRecoverConfig::new(0.05);
        let out = fedrecover(&h, &fs, 1, &cfg, &mut NoOracle).unwrap();
        assert_eq!(out.rounds_replayed, 38);
        assert!(out.params.iter().all(|v| v.is_finite()));

        // Ground truth: replay the quadratic without client 1 exactly.
        let dim = 5;
        let mut w = h.model(2).unwrap().to_vec();
        for _ in 2..40 {
            let mut grads = Vec::new();
            for c in [0usize, 2, 3] {
                let target: Vec<f32> = (0..dim).map(|j| ((c + j) % 3) as f32).collect();
                grads.push(vector::sub(&w, &target));
            }
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let agg = vector::weighted_mean(&refs, &[1.0; 3]);
            vector::axpy(-0.05, &agg, &mut w);
        }
        let err = vector::l2_distance(&out.params, &w);
        assert!(err < 0.5, "FedRecover drifted too far from truth: {err}");
    }

    struct ExactOracle;

    impl GradientOracle for ExactOracle {
        fn gradient_at(&mut self, client: ClientId, params: &[f32]) -> Option<Vec<f32>> {
            let dim = params.len();
            let target: Vec<f32> = (0..dim).map(|j| ((client + j) % 3) as f32).collect();
            Some(vector::sub(params, &target))
        }
    }

    #[test]
    fn exact_corrections_tighten_recovery() {
        let (h, fs) = synthetic(50, 4, 1);
        let mut cfg = FedRecoverConfig::new(0.05);
        cfg.correction_interval = 5;
        let corrected = fedrecover(&h, &fs, 1, &cfg, &mut ExactOracle).unwrap();
        let uncorrected = fedrecover(&h, &fs, 1, &cfg, &mut NoOracle).unwrap();
        assert!(corrected.exact_queries > 0);
        assert_eq!(uncorrected.exact_queries, 0);

        // Ground truth final model.
        let dim = 5;
        let mut w = h.model(2).unwrap().to_vec();
        for _ in 2..50 {
            let mut grads = Vec::new();
            for c in [0usize, 2, 3] {
                let target: Vec<f32> = (0..dim).map(|j| ((c + j) % 3) as f32).collect();
                grads.push(vector::sub(&w, &target));
            }
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let agg = vector::weighted_mean(&refs, &[1.0; 3]);
            vector::axpy(-0.05, &agg, &mut w);
        }
        let err_corrected = vector::l2_distance(&corrected.params, &w);
        let err_uncorrected = vector::l2_distance(&uncorrected.params, &w);
        assert!(
            err_corrected <= err_uncorrected + 1e-6,
            "corrections should not hurt: {err_corrected} vs {err_uncorrected}"
        );
    }

    #[test]
    fn parallel_and_serial_fedrecover_give_identical_models() {
        // Estimation rounds fan out over the pool; fixed-order aggregation
        // keeps the result bitwise identical to the serial loop.
        let (h, fs) = synthetic(40, 5, 1);
        let mut cfg = FedRecoverConfig::new(0.05);
        cfg.correction_interval = 7;
        let run = |threads: usize| {
            fuiov_tensor::pool::set_threads(threads);
            let out = fedrecover(&h, &fs, 1, &cfg, &mut ExactOracle).unwrap();
            fuiov_tensor::pool::set_threads(0);
            (
                out.params.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                out.exact_queries,
                out.estimator_fallbacks,
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "4-thread FedRecover diverged from serial");
    }

    #[test]
    fn unknown_client_errors() {
        let (h, fs) = synthetic(10, 3, 1);
        let cfg = FedRecoverConfig::new(0.05);
        assert!(matches!(
            fedrecover(&h, &fs, 77, &cfg, &mut NoOracle),
            Err(UnlearnError::UnknownClient(77))
        ));
    }
}
