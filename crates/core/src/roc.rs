//! ROC-curve test suite of the threshold sweep in `threshold.rs`: the AUC
//! and max-F1 that the accuracy figures (Figures 17a, 18, 19) read from
//! `calibrate_threshold`, and the shape of its (FPR, TPR) curve.

#[cfg(test)]
mod tests {
    use crate::threshold::{calibrate_threshold, ThresholdSweep};

    /// 50 target costs `0..50` against 50 background costs `100..150`.
    fn separable() -> ThresholdSweep {
        let target: Vec<f64> = (0..50).map(f64::from).collect();
        let background: Vec<f64> = (0..50).map(|i| 100.0 + f64::from(i)).collect();
        calibrate_threshold(&target, &background)
    }

    /// 50 target costs `0..50` against 50 background costs `25..75`.
    fn overlapping() -> ThresholdSweep {
        let target: Vec<f64> = (0..50).map(f64::from).collect();
        let background: Vec<f64> = (0..50).map(|i| 25.0 + f64::from(i)).collect();
        calibrate_threshold(&target, &background)
    }

    #[test]
    fn perfect_separation_has_auc_one() {
        let sweep = separable();
        assert!((sweep.auc() - 1.0).abs() < 1e-12, "AUC {}", sweep.auc());
        assert_eq!(sweep.best_f1().unwrap().f1, 1.0);
    }

    #[test]
    fn overlap_reduces_auc_and_f1() {
        let sweep = overlapping();
        assert!(sweep.auc() < 1.0);
        assert!(sweep.auc() > 0.5);
        let max_f1 = sweep.best_f1().unwrap().f1;
        assert!(max_f1 < 1.0);
        assert!(max_f1 > 0.6);
    }

    #[test]
    fn curve_endpoints_cover_zero_and_one() {
        let sweep = overlapping();
        let first = sweep.points.first().unwrap();
        let last = sweep.points.last().unwrap();
        assert_eq!(first.true_positive_rate, 0.0);
        assert_eq!(first.false_positive_rate, 0.0);
        assert_eq!(last.true_positive_rate, 1.0);
        assert_eq!(last.false_positive_rate, 1.0);
    }

    #[test]
    fn tpr_and_fpr_are_monotone() {
        let sweep = overlapping();
        for pair in sweep.points.windows(2) {
            assert!(pair[1].true_positive_rate >= pair[0].true_positive_rate);
            assert!(pair[1].false_positive_rate >= pair[0].false_positive_rate);
        }
    }

    #[test]
    fn point_for_tpr() {
        let sweep = overlapping();
        let point = sweep.threshold_for_tpr(0.9).unwrap();
        assert!(point.true_positive_rate >= 0.9);
        // And it is the cheapest such point: the previous point is below 0.9.
        let idx = sweep
            .points
            .iter()
            .position(|p| p.threshold == point.threshold)
            .unwrap();
        if idx > 0 {
            assert!(sweep.points[idx - 1].true_positive_rate < 0.9);
        }
    }

    #[test]
    fn empty_input_is_empty_curve() {
        let sweep = calibrate_threshold(&[], &[]);
        assert!(sweep.points.is_empty());
        assert_eq!(sweep.auc(), 0.0);
        assert!(sweep.best_f1().is_none());
    }

    #[test]
    fn inverted_scores_give_auc_below_half() {
        // If targets cost *more* than background the curve is below chance.
        let target: Vec<f64> = (10..20).map(f64::from).collect();
        let background: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(calibrate_threshold(&target, &background).auc() < 0.5);
    }
}
