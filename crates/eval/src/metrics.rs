//! Model-quality metrics used across the evaluation.

use fuiov_data::Dataset;
use fuiov_nn::Sequential;
use fuiov_tensor::vector;

/// Test accuracy of a model over a whole dataset, evaluated in batches to
/// bound memory.
///
/// Returns `0.0` for an empty dataset.
pub fn test_accuracy(model: &mut Sequential, data: &Dataset) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    let all: Vec<usize> = (0..data.len()).collect();
    for chunk in all.chunks(256) {
        let (x, y) = data.gather(chunk);
        let preds = model.predict(&x);
        correct += preds.iter().zip(&y).filter(|(p, t)| p == t).count();
    }
    correct as f32 / data.len() as f32
}

/// Mean cross-entropy loss over a dataset.
///
/// Returns `0.0` for an empty dataset.
pub fn test_loss(model: &mut Sequential, data: &Dataset) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    let all: Vec<usize> = (0..data.len()).collect();
    for chunk in all.chunks(256) {
        let (x, y) = data.gather(chunk);
        total += f64::from(model.loss(&x, &y)) * chunk.len() as f64;
    }
    (total / data.len() as f64) as f32
}

/// Per-class accuracy; classes absent from the test set report `None`.
pub fn per_class_accuracy(model: &mut Sequential, data: &Dataset) -> Vec<Option<f32>> {
    let mut hit = vec![0usize; data.num_classes()];
    let mut seen = vec![0usize; data.num_classes()];
    if !data.is_empty() {
        let all: Vec<usize> = (0..data.len()).collect();
        for chunk in all.chunks(256) {
            let (x, y) = data.gather(chunk);
            let preds = model.predict(&x);
            for (p, t) in preds.iter().zip(&y) {
                seen[*t] += 1;
                if p == t {
                    hit[*t] += 1;
                }
            }
        }
    }
    hit.into_iter()
        .zip(seen)
        .map(|(h, s)| {
            if s == 0 {
                None
            } else {
                Some(h as f32 / s as f32)
            }
        })
        .collect()
}

/// L2 distance between two flat parameter vectors — the §III-B closeness
/// criterion between an unlearned and a retrained model.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn model_distance(a: &[f32], b: &[f32]) -> f32 {
    vector::l2_distance(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuiov_data::DigitStyle;
    use fuiov_nn::ModelSpec;

    fn setup() -> (Sequential, Dataset) {
        let spec = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        };
        (spec.build(3), Dataset::digits(40, &DigitStyle::small(), 8))
    }

    #[test]
    fn accuracy_in_unit_range() {
        let (mut m, d) = setup();
        let acc = test_accuracy(&mut m, &d);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn accuracy_of_trained_model_improves() {
        let (mut m, d) = setup();
        let before = test_accuracy(&mut m, &d);
        // Overfit directly on the evaluation set (fine for a metric test).
        let (x, y) = d.full();
        for _ in 0..60 {
            let (_, g) = m.loss_and_grad(&x, &y);
            let mut p = m.params();
            fuiov_tensor::vector::axpy(-0.5, &g, &mut p);
            m.set_params(&p);
        }
        let after = test_accuracy(&mut m, &d);
        assert!(after > before, "training should help: {before} -> {after}");
        assert!(test_loss(&mut m, &d) < 2.3);
    }

    #[test]
    fn per_class_covers_all_classes() {
        let (mut m, d) = setup();
        let pc = per_class_accuracy(&mut m, &d);
        assert_eq!(pc.len(), 10);
        assert!(pc.iter().all(Option::is_some)); // balanced dataset
    }

    #[test]
    fn per_class_reports_none_for_absent_class() {
        let (mut m, d) = setup();
        let keep: Vec<usize> = (0..d.len()).filter(|&i| d.label(i) != 4).collect();
        let d = d.subset(&keep);
        let pc = per_class_accuracy(&mut m, &d);
        assert!(pc[4].is_none());
    }

    #[test]
    fn empty_dataset_metrics_are_zero() {
        let (mut m, d) = setup();
        let empty = d.subset(&[]);
        assert_eq!(test_accuracy(&mut m, &empty), 0.0);
        assert_eq!(test_loss(&mut m, &empty), 0.0);
    }

    #[test]
    fn model_distance_is_l2() {
        assert_eq!(model_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }
}
