//! Confusion matrices and derived per-class statistics.
//!
//! Used by the attack analyses: a label-flip 7→1 attack shows up as mass
//! moving from cell (7,7) to cell (7,1), which the ASR metric summarises
//! but the full matrix localises.

use fuiov_data::Dataset;
use fuiov_nn::Sequential;

/// A `classes × classes` confusion matrix; rows are true labels, columns
/// are predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// An all-zero matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "ConfusionMatrix: classes must be positive");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Evaluates a model over a dataset.
    pub fn evaluate(model: &mut Sequential, data: &Dataset) -> Self {
        let mut cm = ConfusionMatrix::new(data.num_classes());
        if data.is_empty() {
            return cm;
        }
        let all: Vec<usize> = (0..data.len()).collect();
        for chunk in all.chunks(256) {
            let (x, y) = data.gather(chunk);
            let preds = model.predict(&x);
            for (p, t) in preds.iter().zip(&y) {
                cm.record(*t, *p);
            }
        }
        cm
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, prediction: usize) {
        assert!(
            truth < self.classes && prediction < self.classes,
            "record: label out of range"
        );
        self.counts[truth * self.classes + prediction] += 1;
    }

    /// Count of (truth, prediction) pairs.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn count(&self, truth: usize, prediction: usize) -> usize {
        assert!(
            truth < self.classes && prediction < self.classes,
            "count: label out of range"
        );
        self.counts[truth * self.classes + prediction]
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy, `0.0` when empty.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.classes).map(|i| self.count(i, i)).sum();
        correct as f32 / total as f32
    }

    /// Recall of one class (`None` if the class has no samples).
    pub fn recall(&self, class: usize) -> Option<f32> {
        let row: usize = (0..self.classes).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / row as f32)
        }
    }

    /// Precision of one class (`None` if the class is never predicted).
    pub fn precision(&self, class: usize) -> Option<f32> {
        let col: usize = (0..self.classes).map(|t| self.count(t, class)).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / col as f32)
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "    ")?;
        for p in 0..self.classes {
            write!(f, "{p:>5}")?;
        }
        writeln!(f)?;
        for t in 0..self.classes {
            write!(f, "{t:>3}:")?;
            for p in 0..self.classes {
                write!(f, "{:>5}", self.count(t, p))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(3);
        // class 0: 8 correct, 2 → class 1
        for _ in 0..8 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        // class 1: all correct
        for _ in 0..5 {
            cm.record(1, 1);
        }
        cm
    }

    #[test]
    fn counts_and_totals() {
        let cm = sample();
        assert_eq!(cm.count(0, 1), 2);
        assert_eq!(cm.total(), 15);
        assert!((cm.accuracy() - 13.0 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn recall_and_precision() {
        let cm = sample();
        assert!((cm.recall(0).unwrap() - 0.8).abs() < 1e-6);
        assert_eq!(cm.recall(2), None);
        assert!((cm.precision(1).unwrap() - 5.0 / 7.0).abs() < 1e-6);
        assert_eq!(cm.precision(2), None);
    }

    #[test]
    fn evaluate_model_on_dataset() {
        use fuiov_data::DigitStyle;
        use fuiov_nn::ModelSpec;
        let data = Dataset::digits(40, &DigitStyle::small(), 6);
        let mut m = ModelSpec::Mlp {
            inputs: 144,
            hidden: 8,
            classes: 10,
        }
        .build(1);
        let cm = ConfusionMatrix::evaluate(&mut m, &data);
        assert_eq!(cm.total(), 40);
        assert_eq!(cm.classes(), 10);
        // Accuracy agrees with the scalar metric.
        let acc = crate::metrics::test_accuracy(&mut m, &data);
        assert!((cm.accuracy() - acc).abs() < 1e-6);
    }

    #[test]
    fn display_renders_rows() {
        let s = sample().to_string();
        assert!(s.contains("0:"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn record_bounds_checked() {
        ConfusionMatrix::new(2).record(2, 0);
    }
}
