//! Confusion matrices and the derived quality measures.

/// A binary confusion matrix over reference links.
///
/// Counts are computed against the provided reference links only, ignoring the
/// rest of the data set — exactly as the paper computes its fitness
/// (Section 5.2: "which are computed based on the provided reference links").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Positive reference links classified as links.
    pub true_positives: usize,
    /// Negative reference links classified as non-links.
    pub true_negatives: usize,
    /// Negative reference links classified as links.
    pub false_positives: usize,
    /// Positive reference links classified as non-links.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Creates a confusion matrix from raw counts.
    pub fn new(tp: usize, tn: usize, fp: usize, fn_: usize) -> Self {
        ConfusionMatrix {
            true_positives: tp,
            true_negatives: tn,
            false_positives: fp,
            false_negatives: fn_,
        }
    }

    /// Records the classification of one positive reference link.
    pub fn record_positive(&mut self, predicted_link: bool) {
        if predicted_link {
            self.true_positives += 1;
        } else {
            self.false_negatives += 1;
        }
    }

    /// Records the classification of one negative reference link.
    pub fn record_negative(&mut self, predicted_link: bool) {
        if predicted_link {
            self.false_positives += 1;
        } else {
            self.true_negatives += 1;
        }
    }

    /// Total number of classified pairs.
    pub fn total(&self) -> usize {
        self.true_positives + self.true_negatives + self.false_positives + self.false_negatives
    }

    /// Precision `tp / (tp + fp)`; `0` when nothing was predicted as a link.
    pub fn precision(&self) -> f64 {
        let denominator = self.true_positives + self.false_positives;
        if denominator == 0 {
            0.0
        } else {
            self.true_positives as f64 / denominator as f64
        }
    }

    /// Recall `tp / (tp + fn)`; `0` when there are no positive links.
    pub fn recall(&self) -> f64 {
        let denominator = self.true_positives + self.false_negatives;
        if denominator == 0 {
            0.0
        } else {
            self.true_positives as f64 / denominator as f64
        }
    }

    /// The F1 measure, the harmonic mean of precision and recall.
    pub fn f_measure(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Matthews correlation coefficient (Section 5.2 of the paper):
    ///
    /// ```text
    ///            tp·tn − fp·fn
    /// MCC = ─────────────────────────────────────────────
    ///       √((tp+fp)(tp+fn)(tn+fp)(tn+fn))
    /// ```
    ///
    /// If any factor of the denominator is zero the MCC is defined as `0`
    /// (the conventional completion, also used by Silk).
    pub fn mcc(&self) -> f64 {
        let tp = self.true_positives as f64;
        let tn = self.true_negatives as f64;
        let fp = self.false_positives as f64;
        let fn_ = self.false_negatives as f64;
        let denominator = (tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_);
        if denominator == 0.0 {
            0.0
        } else {
            (tp * tn - fp * fn_) / denominator.sqrt()
        }
    }

    /// Merges two confusion matrices by summing their counts.
    pub fn merge(&self, other: &ConfusionMatrix) -> ConfusionMatrix {
        ConfusionMatrix {
            true_positives: self.true_positives + other.true_positives,
            true_negatives: self.true_negatives + other.true_negatives,
            false_positives: self.false_positives + other.false_positives,
            false_negatives: self.false_negatives + other.false_negatives,
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tp={} tn={} fp={} fn={} (F1={:.3}, MCC={:.3})",
            self.true_positives,
            self.true_negatives,
            self.false_positives,
            self.false_negatives,
            self.f_measure(),
            self.mcc()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_classifier() {
        let m = ConfusionMatrix::new(10, 10, 0, 0);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f_measure(), 1.0);
        assert_eq!(m.mcc(), 1.0);
    }

    #[test]
    fn inverted_classifier_has_negative_mcc() {
        let m = ConfusionMatrix::new(0, 0, 10, 10);
        assert_eq!(m.f_measure(), 0.0);
        assert_eq!(m.mcc(), -1.0);
    }

    #[test]
    fn random_classifier_has_zero_mcc() {
        let m = ConfusionMatrix::new(5, 5, 5, 5);
        assert!((m.mcc()).abs() < 1e-12);
        assert!((m.f_measure() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_values() {
        // tp=6, tn=3, fp=1, fn=2
        let m = ConfusionMatrix::new(6, 3, 1, 2);
        assert!((m.precision() - 6.0 / 7.0).abs() < 1e-12);
        assert!((m.recall() - 0.75).abs() < 1e-12);
        let expected_f1 = 2.0 * (6.0 / 7.0) * 0.75 / (6.0 / 7.0 + 0.75);
        assert!((m.f_measure() - expected_f1).abs() < 1e-12);
        let expected_mcc = (6.0 * 3.0 - 1.0 * 2.0) / ((7.0f64) * 8.0 * 4.0 * 5.0).sqrt();
        assert!((m.mcc() - expected_mcc).abs() < 1e-12);
    }

    #[test]
    fn degenerate_matrices_do_not_divide_by_zero() {
        assert_eq!(ConfusionMatrix::default().f_measure(), 0.0);
        assert_eq!(ConfusionMatrix::default().mcc(), 0.0);
        assert_eq!(ConfusionMatrix::new(0, 10, 0, 0).mcc(), 0.0);
        assert_eq!(ConfusionMatrix::new(10, 0, 0, 0).mcc(), 0.0);
    }

    #[test]
    fn record_and_merge() {
        let mut a = ConfusionMatrix::default();
        a.record_positive(true);
        a.record_positive(false);
        a.record_negative(true);
        a.record_negative(false);
        assert_eq!(a, ConfusionMatrix::new(1, 1, 1, 1));
        let merged = a.merge(&ConfusionMatrix::new(1, 0, 0, 0));
        assert_eq!(merged.true_positives, 2);
        assert_eq!(merged.total(), 5);
    }

    #[test]
    fn display_contains_counts() {
        let text = ConfusionMatrix::new(1, 2, 3, 4).to_string();
        assert!(text.contains("tp=1"));
        assert!(text.contains("fn=4"));
    }

    proptest! {
        #[test]
        fn mcc_is_bounded(tp in 0usize..200, tn in 0usize..200, fp in 0usize..200, fn_ in 0usize..200) {
            let m = ConfusionMatrix::new(tp, tn, fp, fn_);
            prop_assert!(m.mcc() >= -1.0 - 1e-12);
            prop_assert!(m.mcc() <= 1.0 + 1e-12);
            prop_assert!((0.0..=1.0).contains(&m.f_measure()));
            prop_assert!((0.0..=1.0).contains(&m.precision()));
            prop_assert!((0.0..=1.0).contains(&m.recall()));
        }

        #[test]
        fn merge_is_commutative(
            a in (0usize..50, 0usize..50, 0usize..50, 0usize..50),
            b in (0usize..50, 0usize..50, 0usize..50, 0usize..50),
        ) {
            let ma = ConfusionMatrix::new(a.0, a.1, a.2, a.3);
            let mb = ConfusionMatrix::new(b.0, b.1, b.2, b.3);
            prop_assert_eq!(ma.merge(&mb), mb.merge(&ma));
        }
    }
}
