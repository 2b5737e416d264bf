//! The SquiggleFilter: the staged sDTW filter behind every classifier in
//! this crate, one-shot and streaming.
//!
//! A [`SquiggleFilter`] owns the pre-computed reference squiggle of the target
//! virus (forward and reverse strands), a normalizer and the accelerator's
//! 8-bit fixed-point sDTW kernel. For each read it:
//!
//! 1. takes the first `prefix_samples` raw samples of the read,
//! 2. normalizes them (mean–MAD by default, as in the accelerator),
//! 3. quantizes them to signed 8-bit fixed point (paper §5.3),
//! 4. aligns them against the reference with subsequence DTW, and
//! 5. compares the best alignment cost against a threshold: cost above the
//!    threshold ⇒ the read is not from the target virus ⇒ eject it.
//!
//! Multi-stage filtering (paper §4.6) is an optional earlier, permissive
//! decision point: [`FilterConfig::early_stage`] rejects at a shorter prefix,
//! and the accelerator carries its DP row across the stage boundary to the
//! final `prefix_samples`/`threshold` test. One staged loop backs both
//! shapes, and every read streams through one [`FilterSession`].

use crate::classifier::{
    CalibratingFeed, ClassifierSession, Decision, ReadClassifier, StreamClassification,
};
use crate::config::SdtwConfig;
use crate::kernel::{IntLane, IntSdtw, KernelStream, SdtwLane};
use crate::multistage::Stage;
use crate::result::SdtwResult;
use crate::telemetry::{metrics, ChunkSpan, SessionStats};
use sf_genome::Sequence;
use sf_pore_model::{KmerModel, ReferenceSquiggle};
use sf_squiggle::normalize::{Normalizer, NormalizerConfig};
use sf_squiggle::RawSquiggle;
use sf_telemetry::Stopwatch;

/// Read Until decision for one read.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FilterVerdict {
    /// The read matches the target reference: keep sequencing it.
    Accept,
    /// The read does not match: instruct the sequencer to eject it.
    Reject,
}

impl FilterVerdict {
    /// `true` for [`FilterVerdict::Accept`].
    pub fn is_accept(self) -> bool {
        self == FilterVerdict::Accept
    }
}

/// The one-shot classification outcome for one read.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[must_use]
pub struct Classification {
    /// Keep or eject.
    pub verdict: FilterVerdict,
    /// Index of the stage that made the decision: the rejecting stage, or
    /// the last stage the read reached for accepted reads. With an
    /// [`FilterConfig::early_stage`], `0` is the early stage and `1` the
    /// final one.
    pub deciding_stage: usize,
    /// Number of query samples that had been examined when the decision was
    /// made — this is what determines how much sequencing time was spent.
    pub samples_used: usize,
    /// Alignment result at decision time.
    pub result: SdtwResult,
}

/// Configuration of a filter: the final decision at `prefix_samples` against
/// `threshold`, optionally preceded by one earlier, permissive
/// [`early_stage`](Self::early_stage).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FilterConfig {
    /// sDTW kernel configuration.
    pub sdtw: SdtwConfig,
    /// Number of raw samples of each read to classify on (the paper finds
    /// 2000 samples to be the sweet spot for single-threshold filtering).
    pub prefix_samples: usize,
    /// Alignment-cost threshold in the int8 datapath's cost units: cost
    /// above this ⇒ reject. Use [`crate::threshold::calibrate_threshold`]
    /// to pick it.
    pub threshold: f64,
    /// Query normalizer configuration.
    pub normalizer: NormalizerConfig,
    /// Interval, in query samples, at which a streaming session re-evaluates
    /// its sound early-reject bound (see
    /// [`SdtwConfig::early_reject_slack`]). `0` disables early exit;
    /// the decision then always falls at `prefix_samples`. Because the bound
    /// is sound, early exit never changes a verdict — only how many samples
    /// (and therefore how much sequencing time) a reject costs.
    pub early_exit_interval: usize,
    /// An earlier decision point (paper §4.6), tested before the
    /// `prefix_samples`/`threshold` stage: reads whose cost exceeds its
    /// threshold at its prefix are rejected there, survivors carry their DP
    /// row on to the final stage. Its prefix must be below `prefix_samples`.
    pub early_stage: Option<Stage>,
}

impl FilterConfig {
    /// Default early-exit check cadence: frequent enough that obvious
    /// non-target reads are ejected within a few hundred samples, sparse
    /// enough that the `O(reference)` row scans stay under 1 % of DP work.
    pub const DEFAULT_EARLY_EXIT_INTERVAL: usize = 250;

    /// The full hardware configuration at a given threshold.
    pub fn hardware(threshold: f64) -> Self {
        FilterConfig {
            sdtw: SdtwConfig::hardware(),
            prefix_samples: 2000,
            threshold,
            normalizer: NormalizerConfig::default(),
            early_exit_interval: Self::DEFAULT_EARLY_EXIT_INTERVAL,
            early_stage: None,
        }
    }

    /// The two-stage hardware configuration of the paper's example: a
    /// permissive decision at 1000 samples and an aggressive one at 5000,
    /// with streaming early exit off (stages reject only at their prefixes).
    ///
    /// # Examples
    ///
    /// ```
    /// use sf_sdtw::{FilterConfig, SquiggleFilter};
    /// use sf_pore_model::{KmerModel, ReferenceSquiggle};
    /// use sf_genome::random::random_genome;
    /// use sf_squiggle::RawSquiggle;
    ///
    /// let model = KmerModel::synthetic_r94(0);
    /// let genome = random_genome(1, 2_000);
    /// let reference = ReferenceSquiggle::from_genome(&model, &genome);
    /// let filter = SquiggleFilter::new(&reference, FilterConfig::two_stage(1.0e9, 1.0e9));
    /// // A permissive threshold accepts everything after the final stage.
    /// let read = RawSquiggle::new(vec![500; 6_000], 4_000.0);
    /// let outcome = filter.classify(&read);
    /// assert!(outcome.verdict.is_accept());
    /// assert_eq!(outcome.deciding_stage, 1);
    /// ```
    pub fn two_stage(early_threshold: f64, late_threshold: f64) -> Self {
        FilterConfig {
            sdtw: SdtwConfig::hardware(),
            prefix_samples: 5_000,
            threshold: late_threshold,
            normalizer: NormalizerConfig::default(),
            early_exit_interval: 0,
            early_stage: Some(Stage {
                prefix_samples: 1_000,
                threshold: early_threshold,
            }),
        }
    }

    /// The decision points in order: the early stage, if any, then the final
    /// `prefix_samples`/`threshold` stage.
    pub fn stages(&self) -> Vec<Stage> {
        let last = Stage {
            prefix_samples: self.prefix_samples,
            threshold: self.threshold,
        };
        self.early_stage.into_iter().chain([last]).collect()
    }

    /// Sets the prefix length.
    #[must_use]
    pub fn with_prefix_samples(mut self, prefix_samples: usize) -> Self {
        self.prefix_samples = prefix_samples;
        self
    }

    /// Sets the threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the streaming early-exit check interval (`0` disables early
    /// exit).
    #[must_use]
    pub fn with_early_exit_interval(mut self, interval: usize) -> Self {
        self.early_exit_interval = interval;
        self
    }
}

impl Default for FilterConfig {
    /// Hardware configuration with a placeholder threshold of `f64::MAX`
    /// (accept everything) — calibrate before use.
    fn default() -> Self {
        FilterConfig::hardware(f64::MAX)
    }
}

/// A SquiggleFilter bound to one target reference.
///
/// # Examples
///
/// ```
/// use sf_sdtw::{FilterConfig, SquiggleFilter};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::lambda_like_genome;
///
/// let model = KmerModel::synthetic_r94(0);
/// let genome = lambda_like_genome(1);
/// let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(50_000.0));
/// assert!(filter.reference_samples() > 90_000);
/// ```
#[derive(Debug, Clone)]
pub struct SquiggleFilter {
    config: FilterConfig,
    /// The int8 kernel over both strands of the reference.
    kernel: IntSdtw,
    /// [`FilterConfig::stages`]: non-empty, in strictly increasing
    /// `prefix_samples` order.
    stages: Vec<Stage>,
}

impl SquiggleFilter {
    /// Builds a filter from a pre-computed reference squiggle: a staged
    /// filter deciding at the early stage, if any, then at `prefix_samples`
    /// against `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if the early stage's prefix is zero or not below
    /// `prefix_samples`.
    pub fn new(reference: &ReferenceSquiggle, config: FilterConfig) -> Self {
        if let Some(early) = config.early_stage {
            assert!(
                0 < early.prefix_samples && early.prefix_samples < config.prefix_samples,
                "stage prefixes must be positive and strictly increasing"
            );
        }
        SquiggleFilter {
            kernel: IntSdtw::new(config.sdtw, reference.concatenated_quantized()),
            stages: config.stages(),
            config,
        }
    }

    /// Builds the reference squiggle for `genome` under `model` and wraps it
    /// in a filter — the "reprogramming" step when a new virus emerges.
    pub fn from_genome(model: &KmerModel, genome: &Sequence, config: FilterConfig) -> Self {
        let reference = ReferenceSquiggle::from_genome(model, genome);
        SquiggleFilter::new(&reference, config)
    }

    /// The filter configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Number of reference samples scanned per classification (forward plus
    /// reverse strand).
    pub fn reference_samples(&self) -> usize {
        self.kernel.reference().len()
    }

    /// Scores a read prefix: normalizes, quantizes and runs sDTW. Returns
    /// `None` when the squiggle is empty.
    ///
    /// The kernel quantizes per normalized sample, which is bit-identical to
    /// quantizing the whole normalized prefix up front.
    pub fn score(&self, squiggle: &RawSquiggle) -> Option<SdtwResult> {
        Some(self.classify_staged(squiggle.samples())?.result)
    }

    /// Classifies a read, stopping at the first stage whose threshold the
    /// alignment cost exceeds; [`FilterVerdict::Accept`] when it passes the
    /// last stage the read reaches.
    ///
    /// An empty squiggle is accepted at stage 0 (no evidence to eject — the
    /// safe default, since false negatives lose target reads permanently).
    pub fn classify(&self, squiggle: &RawSquiggle) -> Classification {
        self.classify_staged(squiggle.samples())
            .unwrap_or(EMPTY_READ)
    }

    /// One-shot staged classification of a raw read, or `None` for an empty
    /// read. `normalize_raw` runs the rolling re-estimation schedule the
    /// sessions' feed runs, which keeps the two paths bit-identical.
    ///
    /// The staged loop extends one DP stream to each stage's prefix and
    /// tests that stage's threshold on `best()`, stopping at the first
    /// reject, at the last stage, or where the query ends. The DP state
    /// carries across stages, so nothing is recomputed.
    fn classify_staged(&self, samples: &[u16]) -> Option<Classification> {
        let prefix = &samples[..samples.len().min(self.config.prefix_samples)];
        let query = Normalizer::new(self.config.normalizer).normalize_raw(prefix);
        let mut stream = self.kernel.stream();
        let last = self.stages.len() - 1;
        for (index, stage) in self.stages.iter().enumerate() {
            let done = stream.samples_processed();
            let until = stage.prefix_samples.min(query.len());
            stream.extend_normalized(&query[done..until]);
            let result = stream.best()?;
            let verdict = if exceeds(result.cost, stage.threshold) {
                FilterVerdict::Reject
            } else if index == last || until == query.len() {
                FilterVerdict::Accept
            } else {
                continue;
            };
            return Some(Classification {
                verdict,
                deciding_stage: index,
                samples_used: until,
                result,
            });
        }
        None
    }

    /// Opens a streaming session (the concrete type behind
    /// [`ReadClassifier::start_read`], exposed for callers that want to avoid
    /// the boxed trait object).
    pub fn session(&self) -> FilterSession<'_> {
        let interval = self.config.early_exit_interval;
        FilterSession {
            filter: self,
            feed: CalibratingFeed::new(self.config.normalizer, self.config.prefix_samples),
            run: StageRun {
                stream: self.kernel.stream(),
                stage: 0,
                next_check: if interval == 0 { usize::MAX } else { interval },
                decision: Decision::Wait,
                result: None,
                stats: SessionStats::default(),
            },
            decided_at: None,
            decided_early: false,
        }
    }
}

impl ReadClassifier for SquiggleFilter {
    fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
        Box::new(self.session())
    }

    fn max_decision_samples(&self) -> usize {
        self.config.prefix_samples
    }
}

/// The outcome for an empty read: accepted at stage 0 on no samples (no
/// evidence to eject — the safe default, since false negatives lose target
/// reads permanently).
pub(crate) const EMPTY_READ: Classification = Classification {
    verdict: FilterVerdict::Accept,
    deciding_stage: 0,
    samples_used: 0,
    result: SdtwResult {
        cost: 0.0,
        end_position: 0,
        query_samples: 0,
    },
};

/// `true` when an alignment cost fails a stage's threshold. Every decision
/// of the filter — stage boundary, early reject, end of read — uses this one
/// form. Its complement, accept iff `cost <= threshold`, is the same test
/// because costs are never NaN: the normalizer floors its scale at
/// `f32::EPSILON`, so `u16` input normalizes to finite samples and every DP
/// cost stays ordered against any threshold.
#[inline]
fn exceeds(cost: f64, threshold: f64) -> bool {
    cost > threshold
}

/// A streaming classification of one read — the session behind every
/// [`SquiggleFilter`], with one stage or two.
///
/// Raw samples are buffered until the normalizer's calibration window fills,
/// then normalized incrementally (re-estimated over the trailing window every
/// `NormalizerConfig::recalibration_interval` samples) into one resumable DP
/// stream. At each stage's prefix the session rejects, escalates to the next
/// stage or, on the last stage, accepts; between prefixes a sound
/// early-reject bound against the current stage's threshold is checked every
/// `early_exit_interval` samples ([`FilterConfig::two_stage`] turns it off). The
/// one-shot `classify` runs the same normalization and stage schedule, so any
/// chunking of a read is bit-identical to it on the same prefix.
///
/// No decision can fire before `calibration_window` raw samples have
/// arrived: `samples_consumed` reports that arrival time, whereas
/// [`Classification::samples_used`] reports the deciding stage's DP
/// position. When ejection latency matters, configure a window no longer
/// than the first decision point and a `recalibration_interval` below the
/// prefix — rolling re-estimation recovers the accuracy a short *frozen*
/// window would lose (see `docs/streaming.md`).
#[derive(Debug)]
pub struct FilterSession<'a> {
    filter: &'a SquiggleFilter,
    feed: CalibratingFeed,
    run: StageRun<'a>,
    /// Raw-sample count at which the decision became available: the deciding
    /// DP row's position, but never before the calibration window filled and
    /// never more samples than the read delivered.
    decided_at: Option<usize>,
    decided_early: bool,
}

/// The part of a [`FilterSession`] its [`CalibratingFeed`] sink mutates.
#[derive(Debug)]
struct StageRun<'a> {
    stream: KernelStream<'a, IntLane>,
    /// Index of the stage whose prefix the stream is heading for.
    stage: usize,
    /// Next sample count at which the early-reject bound is evaluated.
    next_check: usize,
    decision: Decision,
    /// Alignment state captured at decision time.
    result: Option<SdtwResult>,
    /// Telemetry accumulators, flushed once per chunk.
    stats: SessionStats,
}

impl StageRun<'_> {
    /// Per-sample DP advance and decision checks (the [`CalibratingFeed`]
    /// sink): pushes one normalized sample and returns `true` once a
    /// decision is final.
    fn advance(&mut self, filter: &SquiggleFilter, z: f32) -> bool {
        self.stream.push(IntLane::from_normalized(z));
        let n = self.stream.samples_processed();
        let mut stage = filter.stages[self.stage];
        if n == stage.prefix_samples {
            let best = self.best();
            if exceeds(best.cost, stage.threshold) {
                return self.latch(Decision::Reject, best);
            }
            if self.stage + 1 == filter.stages.len() {
                return self.latch(Decision::Accept, best);
            }
            self.stage += 1;
            metrics().stage_escalations.incr();
            stage = filter.stages[self.stage];
        }
        if n == self.next_check {
            self.next_check += filter.config.early_exit_interval;
            let best = self.best();
            // Sound bound: the row minimum cannot drop below this by the
            // time the stage's prefix has been consumed, so a reject here is
            // exactly the verdict the one-shot path will reach.
            let slack = filter
                .config
                .sdtw
                .early_reject_slack(stage.prefix_samples - n);
            if exceeds(best.cost - slack, stage.threshold) {
                return self.latch(Decision::Reject, best);
            }
        }
        false
    }

    /// The current best alignment, timed as decision-scan work.
    fn best(&mut self) -> SdtwResult {
        let sw = Stopwatch::start();
        // sf-lint: allow(panic) -- best() is Some once any sample has been pushed
        let best = self.stream.best().expect("samples were pushed");
        self.stats.decision_ns += sw.elapsed_ns();
        best
    }

    /// Commits to a final decision; returns `true` to stop the feed.
    fn latch(&mut self, decision: Decision, result: SdtwResult) -> bool {
        self.decision = decision;
        self.result = Some(result);
        true
    }
}

impl FilterSession<'_> {
    /// Drains `chunk` — or, at end of read (`None`), whatever the feed still
    /// buffers — through [`StageRun::advance`] in one telemetry span, then
    /// records when a decision reached here became available.
    fn drive(&mut self, chunk: Option<&[u16]>) {
        let filter = self.filter;
        let Self { feed, run, .. } = self;
        let span = ChunkSpan::begin(&run.stream, feed.estimate_ns(), &run.stats);
        let mut sink = |z: f32| run.advance(filter, z);
        match chunk {
            Some(chunk) => feed.push(chunk, &mut sink),
            None => feed.flush(&mut sink),
        }
        span.finish(&run.stream, feed.estimate_ns(), &run.stats);
        if run.decision.is_final() {
            // A decision the end-of-read flush reached saved nothing: the
            // read is already over.
            self.record_decision_point(chunk.is_some());
        }
    }

    /// Records when a just-made decision became available and whether it
    /// beat the sample budget.
    fn record_decision_point(&mut self, early_possible: bool) {
        let at = self
            .feed
            .decision_point(self.run.stream.samples_processed());
        self.decided_at = Some(at);
        self.decided_early = early_possible
            && self.run.decision == Decision::Reject
            && at < self.filter.config.prefix_samples;
        if self.decided_early {
            metrics().early_rejects.incr();
        }
    }

    /// Decides a read that ended short of its next stage's prefix on the
    /// samples it delivered, exactly like the one-shot loop on the same
    /// short prefix.
    fn decide_at_end_of_read(&mut self) {
        let sw = Stopwatch::start();
        let stages = &self.filter.stages;
        let run = &mut self.run;
        let (decision, result) = match run.stream.best() {
            Some(best) => {
                // A read that ended *exactly* at a stage's prefix already
                // passed that stage in advance(); the one-shot loop treats
                // that stage as the last one (the query ended there), so
                // judge against it, not the never-reached next stage.
                let n = run.stream.samples_processed();
                let stage = match run.stage.checked_sub(1) {
                    Some(passed) if stages[passed].prefix_samples == n => passed,
                    _ => run.stage,
                };
                let decision = if exceeds(best.cost, stages[stage].threshold) {
                    Decision::Reject
                } else {
                    Decision::Accept
                };
                (decision, best)
            }
            None => (Decision::Accept, EMPTY_READ.result),
        };
        run.latch(decision, result);
        metrics().decision_ns.add(sw.elapsed_ns());
        // Resolved at end-of-read: every received sample was needed.
        self.decided_at = Some(self.feed.received());
    }
}

impl ClassifierSession for FilterSession<'_> {
    fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
        if !self.run.decision.is_final() {
            self.drive(Some(chunk));
        }
        self.run.decision
    }

    fn decision(&self) -> Decision {
        self.run.decision
    }

    fn samples_consumed(&self) -> usize {
        self.decided_at.unwrap_or_else(|| self.feed.received())
    }

    fn finalize(&mut self) -> StreamClassification {
        if !self.run.decision.is_final() {
            // The read ended before the calibration window filled: calibrate
            // on what we have (which can itself reach a decision).
            self.drive(None);
        }
        if !self.run.decision.is_final() {
            self.decide_at_end_of_read();
        }
        // sf-lint: allow(panic) -- every path to a final decision latches a result
        let result = self.run.result.expect("final decision carries a result");
        StreamClassification {
            // sf-lint: allow(panic) -- finalize() resolved the decision on the lines above
            verdict: self.run.decision.verdict().expect("decision is final"),
            score: result.cost,
            result: Some(result),
            samples_consumed: self.samples_consumed(),
            decided_early: self.decided_early,
            target: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_genome::random::random_genome;
    use sf_pore_model::KmerModel;

    // The integration-level accuracy tests (real simulated datasets) live in
    // the workspace `tests/` directory; these unit tests use a small genome
    // to stay fast.

    fn small_filter(threshold: f64) -> (SquiggleFilter, KmerModel, Sequence) {
        let model = KmerModel::synthetic_r94(0);
        let genome = random_genome(11, 3_000);
        let filter =
            SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(threshold));
        (filter, model, genome)
    }

    /// The ideal 10-samples-per-base squiggle for a fragment of `genome`.
    fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
        model.expected_raw_squiggle(fragment, 10, &sf_pore_model::AdcModel::default())
    }

    #[test]
    fn target_read_scores_below_background_read() {
        let (filter, model, genome) = small_filter(f64::MAX);
        let target = noiseless_squiggle(&model, &genome.subsequence(500, 1_000));
        let background = noiseless_squiggle(&model, &random_genome(99, 500));
        let target_cost = filter.score(&target).unwrap().cost;
        let background_cost = filter.score(&background).unwrap().cost;
        assert!(
            target_cost * 1.5 < background_cost,
            "target {target_cost} vs background {background_cost}"
        );
    }

    #[test]
    fn threshold_separates_verdicts() {
        let (filter, model, genome) = small_filter(f64::MAX);
        let target = noiseless_squiggle(&model, &genome.subsequence(500, 1_000));
        let background = noiseless_squiggle(&model, &random_genome(99, 500));
        let target_cost = filter.score(&target).unwrap().cost;
        let background_cost = filter.score(&background).unwrap().cost;
        let threshold = (target_cost + background_cost) / 2.0;

        let config = filter.config().with_threshold(threshold);
        let model2 = KmerModel::synthetic_r94(0);
        let calibrated = SquiggleFilter::from_genome(&model2, &genome, config);
        assert_eq!(calibrated.classify(&target).verdict, FilterVerdict::Accept);
        assert_eq!(
            calibrated.classify(&background).verdict,
            FilterVerdict::Reject
        );
    }

    #[test]
    fn prefix_limits_samples_used() {
        let (filter, model, genome) = small_filter(f64::MAX);
        let squiggle = noiseless_squiggle(&model, &genome.subsequence(0, 2_000));
        let result = filter.score(&squiggle).unwrap();
        assert_eq!(result.query_samples, 2_000);
        assert!(squiggle.len() > 2_000);
    }

    #[test]
    fn empty_squiggle_is_accepted() {
        let (filter, _, _) = small_filter(0.0);
        let classification = filter.classify(&RawSquiggle::new(Vec::new(), 4000.0));
        assert_eq!(classification.verdict, FilterVerdict::Accept);
        assert_eq!(classification.result.query_samples, 0);
    }

    #[test]
    fn reference_covers_both_strands() {
        let (filter, _, genome) = small_filter(f64::MAX);
        // forward + reverse, each genome.len() - 5 k-mers long
        assert_eq!(filter.reference_samples(), 2 * (genome.len() - 5));
    }

    #[test]
    fn reverse_strand_reads_still_match() {
        let (filter, model, genome) = small_filter(f64::MAX);
        let fragment = genome.subsequence(1_000, 1_500).reverse_complement();
        let squiggle = noiseless_squiggle(&model, &fragment);
        let background = noiseless_squiggle(&model, &random_genome(97, 500));
        let cost_rev = filter.score(&squiggle).unwrap().cost;
        let cost_bg = filter.score(&background).unwrap().cost;
        assert!(
            cost_rev < cost_bg,
            "reverse-strand read should match: {cost_rev} vs {cost_bg}"
        );
    }

    #[test]
    fn verdict_helpers() {
        assert!(FilterVerdict::Accept.is_accept());
        assert!(!FilterVerdict::Reject.is_accept());
    }

    #[test]
    fn streaming_session_matches_one_shot_bit_for_bit() {
        // threshold = MAX ⇒ the early-reject bound can never fire, so the
        // streamed result must equal the one-shot score on the same prefix
        // exactly, for any chunking.
        let (filter, model, genome) = small_filter(f64::MAX);
        let squiggle = noiseless_squiggle(&model, &genome.subsequence(200, 900));
        let want = filter.classify(&squiggle);
        for chunk_size in [1usize, 7, 512, 10_000] {
            let mut session = filter.session();
            for chunk in squiggle.samples().chunks(chunk_size) {
                let _ = session.push_chunk(chunk);
            }
            let got = session.finalize();
            assert_eq!(got.verdict, want.verdict, "chunk {chunk_size}");
            assert_eq!(got.result, Some(want.result), "chunk {chunk_size}");
            assert!(!got.decided_early);
        }
    }

    #[test]
    fn obvious_background_is_rejected_before_the_full_prefix() {
        // A 512-sample calibration window: decisions can fire from sample 512
        // on (with the default window of 2000 == prefix, nothing can be
        // decided before the whole prefix has streamed in).
        let normalizer = sf_squiggle::normalize::NormalizerConfig {
            calibration_window: 512,
            ..Default::default()
        };
        let (base, model, genome) = small_filter(f64::MAX);
        let probe_config = FilterConfig {
            normalizer,
            ..*base.config()
        };
        let filter = SquiggleFilter::from_genome(&model, &genome, probe_config);
        let target = noiseless_squiggle(&model, &genome.subsequence(500, 1_000));
        let background = RawSquiggle::new(
            (0..6_000)
                .map(|i| if i % 2 == 0 { 120 } else { 880 })
                .collect(),
            4_000.0,
        );
        let t_cost = filter.score(&target).unwrap().cost;
        let b_cost = filter.score(&background).unwrap().cost;
        let config = filter.config().with_threshold((t_cost + b_cost) / 2.0);
        let model2 = KmerModel::synthetic_r94(0);
        let calibrated = SquiggleFilter::from_genome(&model2, &genome, config);

        let outcome = calibrated.classify_stream(&background);
        assert_eq!(outcome.verdict, FilterVerdict::Reject);
        assert!(outcome.decided_early, "square wave should reject early");
        assert!(
            outcome.samples_consumed < config.prefix_samples,
            "consumed {} of {}",
            outcome.samples_consumed,
            config.prefix_samples
        );
        // Early exit is sound: the verdict matches the one-shot path.
        assert_eq!(
            calibrated.classify(&background).verdict,
            FilterVerdict::Reject
        );
        // And the target still streams to a (non-early) accept.
        let kept = calibrated.classify_stream(&target);
        assert_eq!(kept.verdict, FilterVerdict::Accept);
        assert!(!kept.decided_early);
    }

    #[test]
    fn early_exit_can_be_disabled() {
        let (filter, _, genome) = small_filter(f64::MAX);
        // NEG_INFINITY: no cost can pass, so every read rejects — but only
        // at the full prefix, because early exit is off.
        let config = filter
            .config()
            .with_threshold(f64::NEG_INFINITY)
            .with_early_exit_interval(0);
        let model = KmerModel::synthetic_r94(0);
        let no_exit = SquiggleFilter::from_genome(&model, &genome, config);
        let background = RawSquiggle::new(vec![500u16; 4_000], 4_000.0);
        let outcome = no_exit.classify_stream(&background);
        assert_eq!(outcome.verdict, FilterVerdict::Reject);
        assert!(!outcome.decided_early);
        assert_eq!(outcome.samples_consumed, config.prefix_samples);
    }

    #[test]
    fn short_and_empty_reads_finalize_like_classify() {
        let (filter, model, genome) = small_filter(f64::MAX);
        // 700 samples — ends before the 2000-sample calibration window.
        let short = noiseless_squiggle(&model, &genome.subsequence(0, 70));
        let want = filter.classify(&short);
        let mut session = filter.session();
        for chunk in short.samples().chunks(64) {
            assert_eq!(session.push_chunk(chunk), Decision::Wait);
        }
        let got = session.finalize();
        assert_eq!(got.verdict, want.verdict);
        assert_eq!(got.result, Some(want.result));
        assert_eq!(got.samples_consumed, short.len());

        let mut empty = filter.session();
        let empty_outcome = empty.finalize();
        assert_eq!(empty_outcome.verdict, FilterVerdict::Accept);
        assert_eq!(empty_outcome.samples_consumed, 0);
    }

    #[test]
    fn short_read_decisions_never_report_more_samples_than_received() {
        // A 300-sample read under a 500-sample calibration window with a
        // reject-everything threshold: the decision resolves in finalize and
        // must report the read's actual length, not the calibration window.
        let (base, model, genome) = small_filter(f64::MAX);
        let config = FilterConfig {
            normalizer: sf_squiggle::normalize::NormalizerConfig {
                calibration_window: 500,
                ..Default::default()
            },
            ..base.config().with_threshold(f64::NEG_INFINITY)
        };
        let filter = SquiggleFilter::from_genome(&model, &genome, config);
        let read = RawSquiggle::new(vec![480; 300], 4_000.0);
        let outcome = filter.classify_stream(&read);
        assert_eq!(outcome.verdict, FilterVerdict::Reject);
        assert_eq!(outcome.samples_consumed, 300);
        // End-of-read resolutions saved no sequencing time.
        assert!(!outcome.decided_early);
    }

    #[test]
    fn pushes_after_a_final_decision_are_ignored() {
        let (filter, _, _) = small_filter(f64::MAX);
        let mut session = filter.session();
        let d = session.push_chunk(&vec![500u16; 2_500]);
        assert!(d.is_final(), "full prefix forces a decision");
        let consumed = session.samples_consumed();
        assert_eq!(consumed, filter.config().prefix_samples);
        assert_eq!(session.push_chunk(&[1, 2, 3]), d);
        assert_eq!(session.samples_consumed(), consumed);
        assert_eq!(session.decision(), d);
    }
}
