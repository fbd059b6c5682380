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
    }

    #[test]
    fn empty_dataset_accuracy_is_zero() {
        let (mut m, d) = setup();
        let empty = d.subset(&[]);
        assert_eq!(test_accuracy(&mut m, &empty), 0.0);
    }

    #[test]
    fn model_distance_is_l2() {
        assert_eq!(model_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }
}
