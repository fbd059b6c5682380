//! Softmax cross-entropy loss.

use crate::tensor4::Tensor4;

/// Numerically-stable softmax over a logit slice.
///
/// Subtracts the max before exponentiation so large logits cannot overflow.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Mean softmax cross-entropy over a batch of logits `(n, classes, 1, 1)`,
/// returning `(loss, ∂loss/∂logits)`.
///
/// The gradient is the classic `(softmax − onehot) / n`, which is what the
/// last layer's `backward` consumes.
///
/// # Panics
///
/// Panics if `labels.len() != logits.n()` or any label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor4, labels: &[usize]) -> (f32, Tensor4) {
    let (n, classes) = (logits.n(), logits.c());
    let mut grad = Tensor4::zeros(n, classes, 1, 1);
    let loss = mean_loss(logits, labels, |b, y, probs| {
        let g = &mut grad.as_mut_slice()[b * classes..(b + 1) * classes];
        for (k, (gk, &p)) in g.iter_mut().zip(probs).enumerate() {
            let indicator = if k == y { 1.0 } else { 0.0 };
            *gk = (p - indicator) / n as f32;
        }
    });
    (loss, grad)
}

/// The loss half of [`softmax_cross_entropy`], bit for bit, with no
/// gradient tensor.
///
/// # Panics
///
/// As [`softmax_cross_entropy`].
pub(crate) fn cross_entropy(logits: &Tensor4, labels: &[usize]) -> f32 {
    mean_loss(logits, labels, |_, _, _| {})
}

/// The per-item loss code both functions above share: the mean of
/// `−ln max(p_y, 1e-12)` over the batch, summed in `f64` in item order.
/// `each(b, y, probs)` sees every item's softmax.
fn mean_loss(
    logits: &Tensor4,
    labels: &[usize],
    mut each: impl FnMut(usize, usize, &[f32]),
) -> f32 {
    let (n, classes, h, w) = logits.shape();
    assert_eq!(
        h * w,
        1,
        "softmax_cross_entropy: logits must be (n, c, 1, 1)"
    );
    assert_eq!(
        labels.len(),
        n,
        "softmax_cross_entropy: label count mismatch"
    );
    let mut total = 0.0f64;
    for (b, &y) in labels.iter().enumerate() {
        assert!(y < classes, "softmax_cross_entropy: label {y} out of range");
        let probs = softmax(logits.item(b));
        // Clamp to avoid log(0) when the model is confidently wrong.
        total -= f64::from(probs[y].max(1e-12).ln());
        each(b, y, &probs);
    }
    (total / n as f64) as f32
}

/// Fraction of batch items whose argmax logit equals the label.
///
/// # Panics
///
/// Panics if `labels.len() != logits.n()`.
pub fn batch_accuracy(logits: &Tensor4, labels: &[usize]) -> f32 {
    let n = logits.n();
    assert_eq!(labels.len(), n, "batch_accuracy: label count mismatch");
    if n == 0 {
        return 0.0;
    }
    let correct = (0..n)
        .filter(|&b| fuiov_tensor::stats::argmax(logits.item(b)) == Some(labels[b]))
        .count();
    correct as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[1001.0, 1002.0]);
        assert!((a[0] - b[0]).abs() < 1e-6);
        assert!(b.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor4::zeros(2, 4, 1, 1);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let mut logits = Tensor4::zeros(1, 3, 1, 1);
        logits.set(0, 1, 0, 0, 50.0);
        let (loss, grad) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-5);
        assert!(grad.max_abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor4::from_vec(2, 3, 1, 1, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut up = logits.clone();
            up.as_mut_slice()[i] += eps;
            let mut dn = logits.clone();
            dn.as_mut_slice()[i] -= eps;
            let (lu, _) = softmax_cross_entropy(&up, &labels);
            let (ld, _) = softmax_cross_entropy(&dn, &labels);
            let num = (lu - ld) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[i]).abs() < 1e-3,
                "grad mismatch at {i}: numeric={num} analytic={}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_sums_to_zero_per_item() {
        let logits = Tensor4::from_vec(1, 3, 1, 1, vec![0.3, -0.7, 1.1]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0]);
        let s: f32 = grad.as_slice().iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor4::from_vec(2, 2, 1, 1, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(batch_accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(batch_accuracy(&logits, &[1, 1]), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let logits = Tensor4::zeros(1, 2, 1, 1);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }
}
