//! Threshold calibration.
//!
//! The filter compares each read's alignment cost against a constant
//! threshold (paper §4.5). The threshold is chosen from a labelled
//! calibration set (costs of known-target and known-background reads) and the
//! paper notes it is "relatively robust across species and sequencing runs".
//! This module sweeps candidate thresholds and reports the operating points,
//! from which either the max-F1 threshold (Figure 18) or a
//! sequencing-runtime-optimal threshold (Figure 17b/c) can be picked. The
//! same sweep gives the accuracy figures' AUC (Figures 17a, 19).

use sf_metrics::ConfusionMatrix;

/// One candidate operating point of the filter.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OperatingPoint {
    /// The cost threshold (costs **at or below** the threshold are accepted).
    pub threshold: f64,
    /// True-positive rate: fraction of target reads accepted.
    pub true_positive_rate: f64,
    /// False-positive rate: fraction of background reads accepted.
    pub false_positive_rate: f64,
    /// F1 score of target-read retrieval at this threshold.
    pub f1: f64,
}

/// Result of a calibration sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThresholdSweep {
    /// All evaluated operating points, in increasing threshold order.
    pub points: Vec<OperatingPoint>,
}

impl ThresholdSweep {
    /// Area under the ROC curve of the sweep's (FPR, TPR) points, by the
    /// trapezoid rule: 1 is perfect separation, 0.5 chance. 0 for fewer than
    /// two points.
    pub fn auc(&self) -> f64 {
        self.points.windows(2).fold(0.0, |area, pair| {
            let dx = pair[1].false_positive_rate - pair[0].false_positive_rate;
            area + dx * (pair[0].true_positive_rate + pair[1].true_positive_rate) / 2.0
        })
    }

    /// The operating point with the highest F1 score (ties broken towards the
    /// lower threshold, i.e. fewer false positives).
    pub fn best_f1(&self) -> Option<OperatingPoint> {
        self.points.iter().copied().max_by(|a, b| {
            // sf-lint: allow(panic) -- F1 of finite rates is finite
            match a.f1.partial_cmp(&b.f1).expect("finite f1") {
                std::cmp::Ordering::Equal => b
                    .threshold
                    .partial_cmp(&a.threshold)
                    // sf-lint: allow(panic) -- thresholds come from finite alignment costs
                    .expect("finite threshold"),
                other => other,
            }
        })
    }

    /// The lowest threshold whose true-positive rate is at least
    /// `min_tpr` (used when losing target reads is the dominant concern).
    pub fn threshold_for_tpr(&self, min_tpr: f64) -> Option<OperatingPoint> {
        self.points
            .iter()
            .copied()
            .find(|p| p.true_positive_rate >= min_tpr)
    }
}

/// Sweeps thresholds over the union of observed costs.
///
/// `target_costs` are alignment costs of known target (viral) reads,
/// `background_costs` of known background reads. Every midpoint between
/// consecutive distinct observed costs is evaluated, plus the extremes.
///
/// # Examples
///
/// ```
/// use sf_sdtw::threshold::calibrate_threshold;
///
/// let target = vec![10.0, 12.0, 11.0, 9.0];
/// let background = vec![30.0, 35.0, 28.0, 40.0];
/// let sweep = calibrate_threshold(&target, &background);
/// let best = sweep.best_f1().unwrap();
/// assert_eq!(best.true_positive_rate, 1.0);
/// assert_eq!(best.false_positive_rate, 0.0);
/// assert_eq!(best.f1, 1.0);
/// assert_eq!(sweep.auc(), 1.0);
/// ```
pub fn calibrate_threshold(target_costs: &[f64], background_costs: &[f64]) -> ThresholdSweep {
    let mut candidates: Vec<f64> =
        Vec::with_capacity(target_costs.len() + background_costs.len() + 2);
    candidates.extend_from_slice(target_costs);
    candidates.extend_from_slice(background_costs);
    // sf-lint: allow(panic) -- alignment costs are finite by construction
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
    candidates.dedup();

    let mut thresholds = Vec::with_capacity(candidates.len() + 1);
    if let Some(&first) = candidates.first() {
        thresholds.push(first - 1.0);
    }
    thresholds.extend(candidates.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    if let Some(&last) = candidates.last() {
        thresholds.push(last + 1.0);
    }

    let points = thresholds
        .into_iter()
        .map(|threshold| evaluate_threshold(threshold, target_costs, background_costs))
        .collect();
    ThresholdSweep { points }
}

/// Evaluates a single threshold against labelled costs.
pub fn evaluate_threshold(
    threshold: f64,
    target_costs: &[f64],
    background_costs: &[f64],
) -> OperatingPoint {
    let matrix = ConfusionMatrix::from_pairs(
        target_costs
            .iter()
            .map(|&c| (true, c <= threshold))
            .chain(background_costs.iter().map(|&c| (false, c <= threshold))),
    );
    OperatingPoint {
        threshold,
        true_positive_rate: matrix.true_positive_rate(),
        false_positive_rate: matrix.false_positive_rate(),
        f1: matrix.f1(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_separable_costs_reach_f1_of_one() {
        let sweep = calibrate_threshold(&[1.0, 2.0, 3.0], &[10.0, 11.0, 12.0]);
        let best = sweep.best_f1().unwrap();
        assert_eq!(best.f1, 1.0);
        assert!(best.threshold > 3.0 && best.threshold < 10.0);
    }

    #[test]
    fn overlapping_costs_have_f1_below_one() {
        let target = vec![1.0, 2.0, 3.0, 8.0, 9.0];
        let background = vec![4.0, 5.0, 10.0, 11.0, 12.0];
        let best = calibrate_threshold(&target, &background).best_f1().unwrap();
        assert!(best.f1 < 1.0);
        assert!(best.f1 > 0.5);
    }

    #[test]
    fn points_are_monotone_in_rates() {
        let target = vec![1.0, 3.0, 5.0, 7.0];
        let background = vec![2.0, 4.0, 6.0, 8.0];
        let sweep = calibrate_threshold(&target, &background);
        for pair in sweep.points.windows(2) {
            assert!(pair[1].threshold > pair[0].threshold);
            assert!(pair[1].true_positive_rate >= pair[0].true_positive_rate);
            assert!(pair[1].false_positive_rate >= pair[0].false_positive_rate);
        }
        // Extremes: lowest threshold accepts nothing, highest accepts all.
        assert_eq!(sweep.points.first().unwrap().true_positive_rate, 0.0);
        assert_eq!(sweep.points.last().unwrap().true_positive_rate, 1.0);
        assert_eq!(sweep.points.last().unwrap().false_positive_rate, 1.0);
    }

    #[test]
    fn threshold_for_tpr_finds_lowest_sufficient_threshold() {
        let target = vec![1.0, 2.0, 3.0, 4.0];
        let background = vec![3.5, 5.0];
        let sweep = calibrate_threshold(&target, &background);
        let point = sweep.threshold_for_tpr(1.0).unwrap();
        assert_eq!(point.true_positive_rate, 1.0);
        assert!(point.threshold >= 4.0);
        // A cheaper operating point exists for 75% TPR.
        let cheaper = sweep.threshold_for_tpr(0.75).unwrap();
        assert!(cheaper.threshold < point.threshold);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let sweep = calibrate_threshold(&[], &[]);
        assert!(sweep.points.is_empty());
        assert!(sweep.best_f1().is_none());
        let point = evaluate_threshold(1.0, &[], &[2.0]);
        assert_eq!(point.true_positive_rate, 0.0);
        assert_eq!(point.f1, 0.0);
    }
}
