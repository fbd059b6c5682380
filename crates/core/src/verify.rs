//! Verifying that unlearning actually forgot (§III-B).
//!
//! The paper's correctness criterion: after unlearning client `i`, the
//! model should behave like one trained only on `C \ {i}`. This module
//! provides the standard empirical probes used in the unlearning
//! literature:
//!
//! - [`forgetting_score`]: how much worse the model got *specifically* on
//!   the forgotten client's data, relative to a reference set — positive
//!   scores mean the client's data lost its privileged (memorised)
//!   status;
//! - [`membership_advantage`]: a loss-threshold membership-inference
//!   probe — after successful unlearning the attacker's advantage in
//!   telling the forgotten data apart from unseen data should shrink
//!   toward zero.

use fuiov_data::Dataset;
use fuiov_nn::Sequential;

/// Mean per-sample loss of `params` on a dataset.
fn mean_loss(model: &mut Sequential, params: &[f32], data: &Dataset) -> f32 {
    model.set_params(params);
    let mut total = 0.0f64;
    let all: Vec<usize> = (0..data.len()).collect();
    for chunk in all.chunks(256) {
        let (x, y) = data.gather(chunk);
        total += f64::from(model.loss(&x, &y)) * chunk.len() as f64;
    }
    (total / data.len().max(1) as f64) as f32
}

/// The forgetting score of an unlearning operation:
///
/// ```text
/// score = [L_after(forgotten) − L_before(forgotten)]
///       − [L_after(reference) − L_before(reference)]
/// ```
///
/// i.e. the loss increase on the forgotten client's data *beyond* the
/// general loss drift measured on a reference (held-out) set. A score
/// near zero means the forgotten data was never memorised or was not
/// forgotten; clearly positive scores indicate its privileged fit was
/// removed.
///
/// # Panics
///
/// Panics if either dataset is empty or parameter dimensions mismatch the
/// model.
pub fn forgetting_score(
    model: &mut Sequential,
    params_before: &[f32],
    params_after: &[f32],
    forgotten_data: &Dataset,
    reference_data: &Dataset,
) -> f32 {
    assert!(
        !forgotten_data.is_empty(),
        "forgetting_score: empty forgotten set"
    );
    assert!(
        !reference_data.is_empty(),
        "forgetting_score: empty reference set"
    );
    let fb = mean_loss(model, params_before, forgotten_data);
    let fa = mean_loss(model, params_after, forgotten_data);
    let rb = mean_loss(model, params_before, reference_data);
    let ra = mean_loss(model, params_after, reference_data);
    (fa - fb) - (ra - rb)
}

/// A simple loss-threshold membership-inference probe.
///
/// The attacker guesses "member" when a sample's loss is below the median
/// loss of the pooled (member ∪ non-member) data. Returns the attacker's
/// advantage `2·(accuracy − ½) ∈ [−1, 1]`; `0` means the forgotten data
/// is indistinguishable from unseen data — the unlearning goal.
///
/// # Panics
///
/// Panics if either dataset is empty.
pub fn membership_advantage(
    model: &mut Sequential,
    params: &[f32],
    member_data: &Dataset,
    nonmember_data: &Dataset,
) -> f32 {
    assert!(
        !member_data.is_empty(),
        "membership_advantage: empty member set"
    );
    assert!(
        !nonmember_data.is_empty(),
        "membership_advantage: empty non-member set"
    );
    model.set_params(params);

    let per_sample = |model: &mut Sequential, data: &Dataset| -> Vec<f32> {
        (0..data.len())
            .map(|i| {
                let (x, y) = data.gather(&[i]);
                model.loss(&x, &y)
            })
            .collect()
    };
    let member_losses = per_sample(model, member_data);
    let nonmember_losses = per_sample(model, nonmember_data);

    let mut pooled: Vec<f32> = member_losses
        .iter()
        .chain(&nonmember_losses)
        .copied()
        .collect();
    pooled.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let threshold = pooled[pooled.len() / 2];

    let correct_members = member_losses.iter().filter(|&&l| l < threshold).count();
    let correct_nonmembers = nonmember_losses.iter().filter(|&&l| l >= threshold).count();
    let accuracy = (correct_members + correct_nonmembers) as f32
        / (member_losses.len() + nonmember_losses.len()) as f32;
    2.0 * (accuracy - 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_data::DigitStyle;
    use fuiov_nn::{ModelSpec, Tensor4};
    use fuiov_tensor::vector;

    const SPEC: ModelSpec = ModelSpec::Mlp {
        inputs: 144,
        hidden: 24,
        classes: 10,
    };

    /// Overfit a model to `data` starting from `params`.
    fn overfit(params: &[f32], data: &Dataset, steps: usize) -> Vec<f32> {
        let mut m = SPEC.build(0);
        let mut p = params.to_vec();
        let (x, y): (Tensor4, Vec<usize>) = data.full();
        for _ in 0..steps {
            m.set_params(&p);
            let (_, g) = m.loss_and_grad(&x, &y);
            vector::axpy(-0.5, &g, &mut p);
        }
        p
    }

    #[test]
    fn forgetting_score_detects_memorisation_removal() {
        let forgotten = Dataset::digits(30, &DigitStyle::small(), 1);
        let reference = Dataset::digits(30, &DigitStyle::small(), 2);
        let init = SPEC.build(7).params();
        // "Before" model memorised the forgotten data; "after" model never
        // saw it (trained only on other data).
        let other = Dataset::digits(30, &DigitStyle::small(), 3);
        let before = overfit(&init, &forgotten, 60);
        let after = overfit(&init, &other, 60);
        let mut m = SPEC.build(0);
        let score = forgetting_score(&mut m, &before, &after, &forgotten, &reference);
        assert!(
            score > 0.3,
            "memorisation removal should show: score {score}"
        );
    }

    #[test]
    fn forgetting_score_near_zero_when_nothing_changes() {
        let forgotten = Dataset::digits(20, &DigitStyle::small(), 4);
        let reference = Dataset::digits(20, &DigitStyle::small(), 5);
        let params = SPEC.build(9).params();
        let mut m = SPEC.build(0);
        let score = forgetting_score(&mut m, &params, &params, &forgotten, &reference);
        assert!(score.abs() < 1e-6);
    }

    #[test]
    fn membership_advantage_high_for_overfit_model() {
        let members = Dataset::digits(25, &DigitStyle::small(), 6);
        let nonmembers = Dataset::digits(25, &DigitStyle::small(), 7);
        let init = SPEC.build(11).params();
        let overfitted = overfit(&init, &members, 80);
        let mut m = SPEC.build(0);
        let adv_overfit = membership_advantage(&mut m, &overfitted, &members, &nonmembers);
        let adv_fresh = membership_advantage(&mut m, &init, &members, &nonmembers);
        assert!(
            adv_overfit > adv_fresh + 0.2,
            "overfitting should leak membership: fresh {adv_fresh} vs overfit {adv_overfit}"
        );
    }

    #[test]
    #[should_panic(expected = "empty forgotten set")]
    fn rejects_empty_sets() {
        let d = Dataset::digits(10, &DigitStyle::small(), 1);
        let empty = d.subset(&[]);
        let params = SPEC.build(0).params();
        let mut m = SPEC.build(0);
        let _ = forgetting_score(&mut m, &params, &params, &empty, &d);
    }
}
