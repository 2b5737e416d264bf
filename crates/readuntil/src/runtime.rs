//! Analytical Read Until sequencing-runtime model (paper §6, Figure 17b/c,
//! Figure 20, Table 1).
//!
//! The model estimates how long a flow cell must run to reach a target
//! coverage of the viral genome, given the sample's viral fraction, the read
//! length distribution, the pore capture time, and the classifier's operating
//! point (TPR/FPR, decision prefix length and decision latency). Read Until
//! saves time because non-target reads occupy a pore only for the decision
//! prefix instead of their full length.
//!
//! Operating points ([`RatePolicy`], shared with the flow-cell simulator)
//! can be entered by hand, taken from a ROC sweep, or — via
//! [`RatePolicy::from_session_stats`] — measured directly from streaming
//! classification sessions, so the model consumes real samples-to-decision
//! distributions instead of nominal prefixes.

use sf_sim::RatePolicy;

/// Parameters of a sequencing run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SequencingParams {
    /// Number of actively sequencing pores.
    pub active_pores: usize,
    /// DNA translocation speed in bases per second.
    pub bases_per_second: f64,
    /// Signal sampling rate in samples per second.
    pub sample_rate_hz: f64,
    /// Mean time for a pore to capture a new strand, seconds.
    pub capture_time_s: f64,
    /// Mean read length in bases (targets and background alike).
    pub mean_read_length: f64,
    /// Fraction of reads that come from the target virus.
    pub viral_fraction: f64,
    /// Target genome length in bases.
    pub genome_length: usize,
    /// Desired mean coverage of the target genome.
    pub target_coverage: f64,
}

impl Default for SequencingParams {
    fn default() -> Self {
        SequencingParams {
            active_pores: 512,
            bases_per_second: 450.0,
            sample_rate_hz: 4_000.0,
            capture_time_s: 1.0,
            mean_read_length: 8_000.0,
            viral_fraction: 0.01,
            genome_length: 29_903,
            target_coverage: 30.0,
        }
    }
}

/// Output of the analytical model for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeEstimate {
    /// Wall-clock sequencing time to reach the coverage target, seconds.
    pub runtime_s: f64,
    /// Total bases sequenced (target + background) in that time.
    pub total_bases: f64,
    /// Bases sequenced from target reads only.
    pub target_bases: f64,
    /// Average pore-occupancy time per read, seconds.
    pub mean_read_time_s: f64,
    /// Expected number of reads processed.
    pub reads: f64,
}

impl RuntimeEstimate {
    /// Enrichment: fraction of sequenced bases that are target bases.
    pub fn target_fraction_of_bases(&self) -> f64 {
        if self.total_bases == 0.0 {
            return 0.0;
        }
        self.target_bases / self.total_bases
    }
}

/// The analytical Read Until runtime model.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct RuntimeModel {
    /// Sequencing-run parameters.
    pub params: SequencingParams,
}

impl RuntimeModel {
    /// Creates a model with the given parameters.
    pub fn new(params: SequencingParams) -> Self {
        RuntimeModel { params }
    }

    /// Estimated runtime without Read Until: every read is sequenced in
    /// full.
    pub fn without_read_until(&self) -> RuntimeEstimate {
        self.estimate(None)
    }

    /// Estimated runtime with Read Until at the given classifier operating
    /// point.
    #[must_use]
    pub fn with_read_until(&self, classifier: RatePolicy) -> RuntimeEstimate {
        self.estimate(Some(classifier))
    }

    /// Ratio of runtime without Read Until to runtime with it (>1 means Read
    /// Until helps).
    pub fn speedup(&self, classifier: RatePolicy) -> f64 {
        self.without_read_until().runtime_s / self.with_read_until(classifier).runtime_s
    }

    fn estimate(&self, classifier: Option<RatePolicy>) -> RuntimeEstimate {
        let p = &self.params;
        let full_read_time = p.mean_read_length / p.bases_per_second;
        // Time a pore spends on one read, split by read class.
        let (target_time, background_time, kept_target_fraction) = match classifier {
            None => (full_read_time, full_read_time, 1.0),
            Some(c) => {
                let decision_time =
                    c.decision_prefix_samples as f64 / p.sample_rate_hz + c.decision_latency_s;
                let decision_time = decision_time.min(full_read_time);
                // Kept reads run to completion, ejected reads stop at the
                // decision point.
                let target_time = c.true_positive_rate * full_read_time
                    + (1.0 - c.true_positive_rate) * decision_time;
                let background_time = c.false_positive_rate * full_read_time
                    + (1.0 - c.false_positive_rate) * decision_time;
                (target_time, background_time, c.true_positive_rate)
            }
        };
        let mean_read_time = p.capture_time_s
            + p.viral_fraction * target_time
            + (1.0 - p.viral_fraction) * background_time;
        // Useful target bases gathered per read on average: only *kept*
        // target reads contribute their full length to coverage.
        let target_bases_per_read = p.viral_fraction * kept_target_fraction * p.mean_read_length;
        let needed_target_bases = p.genome_length as f64 * p.target_coverage;
        let reads_needed = needed_target_bases / target_bases_per_read.max(1e-9);
        let runtime = reads_needed * mean_read_time / p.active_pores as f64;
        // Total sequenced bases (for cost accounting).
        let sequenced_per_read = p.viral_fraction * target_time * p.bases_per_second
            + (1.0 - p.viral_fraction) * background_time * p.bases_per_second;
        RuntimeEstimate {
            runtime_s: runtime,
            total_bases: reads_needed * sequenced_per_read,
            target_bases: reads_needed * target_bases_per_read,
            mean_read_time_s: mean_read_time,
            reads: reads_needed,
        }
    }

    /// Sweeps a set of classifier operating points (e.g. one per threshold of
    /// a ROC curve) and returns `(point, runtime_s)` pairs — the data behind
    /// Figure 17b/c.
    pub fn sweep(&self, points: &[RatePolicy]) -> Vec<(RatePolicy, f64)> {
        points
            .iter()
            .map(|&point| (point, self.with_read_until(point).runtime_s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_until_is_faster_than_control() {
        let model = RuntimeModel::default();
        let oracle = RatePolicy::oracle(2_000);
        let speedup = model.speedup(oracle);
        assert!(speedup > 5.0, "speedup {speedup}");
        let with = model.with_read_until(oracle);
        let without = model.without_read_until();
        assert!(with.runtime_s < without.runtime_s);
        // Both sequencing efforts gather the same target bases.
        assert!((with.target_bases - without.target_bases).abs() / without.target_bases < 1e-9);
        // But Read Until sequences far fewer total bases.
        assert!(with.total_bases < without.total_bases / 5.0);
    }

    #[test]
    fn lower_viral_fraction_needs_longer_runs() {
        let mut params = SequencingParams {
            viral_fraction: 0.01,
            ..Default::default()
        };
        let one_percent = RuntimeModel::new(params).without_read_until().runtime_s;
        params.viral_fraction = 0.001;
        let tenth_percent = RuntimeModel::new(params).without_read_until().runtime_s;
        assert!((tenth_percent / one_percent - 10.0).abs() < 0.5);
    }

    #[test]
    fn false_negatives_hurt_runtime() {
        let model = RuntimeModel::default();
        let perfect = RatePolicy::oracle(2_000);
        let lossy = RatePolicy {
            true_positive_rate: 0.5,
            ..perfect
        };
        // Losing half the target reads roughly doubles the time to coverage.
        let ratio =
            model.with_read_until(lossy).runtime_s / model.with_read_until(perfect).runtime_s;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn false_positives_waste_time_but_less_than_no_read_until() {
        let model = RuntimeModel::default();
        let perfect = RatePolicy::oracle(2_000);
        let leaky = RatePolicy {
            false_positive_rate: 0.3,
            ..perfect
        };
        let perfect_time = model.with_read_until(perfect).runtime_s;
        let leaky_time = model.with_read_until(leaky).runtime_s;
        let control_time = model.without_read_until().runtime_s;
        assert!(leaky_time > perfect_time);
        assert!(leaky_time < control_time);
    }

    #[test]
    fn decision_latency_penalizes_slow_classifiers() {
        let model = RuntimeModel::default();
        let fast = RatePolicy::oracle(2_000);
        // Guppy-like: 1.25 s decision latency.
        let slow = RatePolicy {
            decision_latency_s: 1.25,
            ..fast
        };
        assert!(model.with_read_until(slow).runtime_s > model.with_read_until(fast).runtime_s);
        // Longer decision prefixes also cost time.
        let long_prefix = RatePolicy::oracle(10_000);
        assert!(
            model.with_read_until(long_prefix).runtime_s > model.with_read_until(fast).runtime_s
        );
    }

    #[test]
    fn enrichment_reflects_filtering() {
        let model = RuntimeModel::default();
        let control = model.without_read_until();
        let filtered = model.with_read_until(RatePolicy::oracle(2_000));
        assert!(filtered.target_fraction_of_bases() > control.target_fraction_of_bases() * 5.0);
        assert!(control.target_fraction_of_bases() < 0.02);
    }

    #[test]
    fn from_session_stats_measures_rates_and_prefix() {
        use sf_sdtw::{FilterVerdict, StreamClassification};

        let outcome = |verdict: FilterVerdict, samples: usize, early: bool| StreamClassification {
            verdict,
            score: 0.0,
            result: None,
            samples_consumed: samples,
            decided_early: early,
            target: None,
        };
        let stats = vec![
            // 3 targets: 2 kept, 1 lost.
            (true, outcome(FilterVerdict::Accept, 2_000, false)),
            (true, outcome(FilterVerdict::Accept, 2_000, false)),
            (true, outcome(FilterVerdict::Reject, 1_000, true)),
            // 4 background: 1 leaked, 3 ejected early.
            (false, outcome(FilterVerdict::Accept, 2_000, false)),
            (false, outcome(FilterVerdict::Reject, 500, true)),
            (false, outcome(FilterVerdict::Reject, 700, true)),
            (false, outcome(FilterVerdict::Reject, 1_800, false)),
        ];
        let point = RatePolicy::from_session_stats(&stats, 0.001);
        assert!((point.true_positive_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((point.false_positive_rate - 0.25).abs() < 1e-12);
        // Mean over the 4 ejected reads: (1000 + 500 + 700 + 1800) / 4.
        assert_eq!(point.decision_prefix_samples, 1_000);
        assert_eq!(point.decision_latency_s, 0.001);
        // The measured point slots straight into the runtime model.
        let speedup = RuntimeModel::default().speedup(point);
        assert!(speedup > 1.0, "speedup {speedup}");
    }

    #[test]
    fn from_session_stats_handles_degenerate_inputs() {
        let point = RatePolicy::from_session_stats(&[], 0.0);
        assert_eq!(point.true_positive_rate, 1.0);
        assert_eq!(point.false_positive_rate, 0.0);
        assert_eq!(point.decision_prefix_samples, 0);
    }

    #[test]
    fn sweep_returns_one_runtime_per_point() {
        let model = RuntimeModel::default();
        let points: Vec<RatePolicy> = (0..5)
            .map(|i| RatePolicy {
                true_positive_rate: 0.8 + 0.05 * i as f64,
                false_positive_rate: 0.05 * i as f64,
                decision_prefix_samples: 2_000,
                decision_latency_s: 0.0,
            })
            .collect();
        let sweep = model.sweep(&points);
        assert_eq!(sweep.len(), 5);
        assert!(sweep.iter().all(|(_, t)| *t > 0.0));
    }

    #[test]
    fn table1_scale_runtimes_are_plausible() {
        // RNA 1 % viral fraction at 30×: the paper's Table 1 reports ~4 hours
        // end-to-end (including wet lab); the sequencing-only estimate should
        // be in the tens-of-minutes to few-hours range without Read Until.
        let params = SequencingParams {
            viral_fraction: 0.01,
            ..Default::default()
        };
        let hours = RuntimeModel::new(params).without_read_until().runtime_s / 3_600.0;
        // The idealized model (all 512 pores active from t=0, no wet-lab
        // time) is optimistic; the paper's Table 1 figure of ~4 h includes
        // library preparation and pore attrition.
        assert!((0.05..6.0).contains(&hours), "runtime {hours} h");
    }
}
