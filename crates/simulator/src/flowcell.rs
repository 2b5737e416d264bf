//! Flow-cell channel simulation.
//!
//! Reproduces the wet-lab experiment of Figure 20: a MinION flow cell has up
//! to 512 addressable channels; during a run pores gradually become blocked
//! by long molecules and debris, and a nuclease wash followed by re-muxing
//! restores most of them. The paper uses this experiment to show that Read
//! Until (which reverses pore voltage frequently) does not damage the flow
//! cell any faster than normal sequencing.
//!
//! The same simulator measures sequencing time and throughput under a Read
//! Until policy, summarized as the paper's model does (§6): a [`RatePolicy`]
//! holds the classifier's TPR/FPR plus its decision prefix. A real classifier
//! reaches the flow cell through [`RatePolicy::from_session_stats`], which
//! measures its streaming sessions, or is replayed interleaved, chunk by
//! chunk, on an [`ArrivalTrace`](crate::arrivals::ArrivalTrace).

use crate::rand_util::{exponential, lognormal_with_mean};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sf_sdtw::StreamClassification;

/// Rate-described Read Until policy: how good the classifier is and how long
/// a decision takes, summarized by its confusion-matrix rates — the
/// classifier operating point both this simulator and the `sf-readuntil`
/// runtime model consume. Rates come from the sDTW filter or the
/// basecall+align baseline, by hand, from a ROC sweep or measured by
/// [`RatePolicy::from_session_stats`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RatePolicy {
    /// Probability that a target read is (correctly) kept.
    pub true_positive_rate: f64,
    /// Probability that a background read is (incorrectly) kept.
    pub false_positive_rate: f64,
    /// Number of signal samples that must be observed before a decision can
    /// be made (read prefix length).
    pub decision_prefix_samples: usize,
    /// Additional classification latency in seconds (compute time after the
    /// prefix is available).
    pub decision_latency_s: f64,
}

impl RatePolicy {
    /// A perfect, instantaneous classifier (upper bound on Read Until gains).
    pub fn oracle(decision_prefix_samples: usize) -> Self {
        RatePolicy {
            true_positive_rate: 1.0,
            false_positive_rate: 0.0,
            decision_prefix_samples,
            decision_latency_s: 0.0,
        }
    }

    /// Derives an operating point from *measured* streaming sessions: pairs
    /// of ground truth (`true` = target read) and the session's resolved
    /// [`StreamClassification`].
    ///
    /// TPR/FPR come straight from the verdicts. The decision prefix is the
    /// mean samples-to-decision over *ejected* reads — those are the reads
    /// whose pore time the decision point determines (kept reads run to
    /// completion regardless) — so sound early exits shorten the modelled
    /// decision prefix exactly as they shorten real pore occupancy. With no
    /// ejected reads it falls back to the longest observed decision.
    ///
    /// Degenerate inputs are safe: with no target reads the TPR defaults to
    /// 1.0, with no background reads the FPR defaults to 0.0.
    pub fn from_session_stats(
        stats: &[(bool, StreamClassification)],
        decision_latency_s: f64,
    ) -> Self {
        let mut targets = 0u64;
        let mut kept_targets = 0u64;
        let mut background = 0u64;
        let mut kept_background = 0u64;
        let mut ejected_samples = 0u64;
        let mut ejected = 0u64;
        let mut max_samples = 0usize;
        for &(is_target, outcome) in stats {
            let kept = outcome.verdict.is_accept();
            if is_target {
                targets += 1;
                kept_targets += u64::from(kept);
            } else {
                background += 1;
                kept_background += u64::from(kept);
            }
            if kept {
                max_samples = max_samples.max(outcome.samples_consumed);
            } else {
                ejected += 1;
                ejected_samples += outcome.samples_consumed as u64;
            }
        }
        let decision_prefix_samples = if ejected > 0 {
            (ejected_samples as f64 / ejected as f64).round() as usize
        } else {
            max_samples
        };
        RatePolicy {
            true_positive_rate: if targets > 0 {
                kept_targets as f64 / targets as f64
            } else {
                1.0
            },
            false_positive_rate: if background > 0 {
                kept_background as f64 / background as f64
            } else {
                0.0
            },
            decision_prefix_samples,
            decision_latency_s,
        }
    }
}

/// State of one flow-cell channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ChannelState {
    /// Pore is usable (capturing or sequencing).
    Active,
    /// Pore is blocked; a wash can restore it.
    Blocked,
    /// Pore is permanently dead.
    Dead,
}

/// Configuration of the flow-cell simulation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlowCellConfig {
    /// Number of addressable channels (MinION: 512).
    pub channels: usize,
    /// Total simulated run time in seconds.
    pub duration_s: f64,
    /// Mean time for a pore to capture a new strand, in seconds.
    pub mean_capture_time_s: f64,
    /// Sequencing speed in bases per second.
    pub bases_per_second: f64,
    /// Signal sampling rate (samples per second) — converts prefix samples to
    /// seconds.
    pub sample_rate_hz: f64,
    /// Mean read length in bases.
    pub mean_read_length: f64,
    /// Log-normal sigma of read lengths.
    pub read_length_sigma: f64,
    /// Fraction of captured reads that are target (viral).
    pub target_fraction: f64,
    /// Expected number of pore-blocking events per hour of active
    /// sequencing (blocking scales with sequencing time, not read count, so
    /// Read Until does not wear pores out faster — the Figure 20 claim).
    pub block_rate_per_hour: f64,
    /// Probability that a blocked pore is permanently dead instead.
    pub death_probability: f64,
    /// Times (seconds) at which a nuclease wash + re-mux is performed;
    /// blocked (not dead) pores become active again.
    pub wash_times_s: Vec<f64>,
}

impl Default for FlowCellConfig {
    fn default() -> Self {
        FlowCellConfig {
            channels: 512,
            duration_s: 6.0 * 3600.0,
            mean_capture_time_s: 1.0,
            bases_per_second: 450.0,
            sample_rate_hz: 4_000.0,
            mean_read_length: 8_000.0,
            read_length_sigma: 0.6,
            target_fraction: 0.01,
            block_rate_per_hour: 0.08,
            death_probability: 0.25,
            wash_times_s: Vec::new(),
        }
    }
}

/// One sampled point of the run timeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimelinePoint {
    /// Time since run start, seconds.
    pub time_s: f64,
    /// Number of channels in the [`ChannelState::Active`] state.
    pub active_channels: usize,
    /// Cumulative bases sequenced across all channels.
    pub sequenced_bases: u64,
    /// Cumulative bases sequenced from target reads only.
    pub target_bases: u64,
}

/// Aggregate results of one simulated run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlowCellRun {
    /// Periodic samples of the run state (every `sample_interval_s`).
    pub timeline: Vec<TimelinePoint>,
    /// Total bases sequenced.
    pub total_bases: u64,
    /// Total bases sequenced from target reads.
    pub target_bases: u64,
    /// Total number of reads started.
    pub total_reads: u64,
    /// Number of reads ejected by Read Until.
    pub ejected_reads: u64,
    /// Channels still active at the end of the run.
    pub final_active_channels: usize,
}

impl FlowCellRun {
    /// Fraction of sequenced bases belonging to target reads — the
    /// "enrichment" Read Until provides.
    pub fn target_base_fraction(&self) -> f64 {
        if self.total_bases == 0 {
            return 0.0;
        }
        self.target_bases as f64 / self.total_bases as f64
    }
}

/// Event-driven (per-channel) flow-cell simulator.
///
/// # Examples
///
/// ```
/// use sf_sim::flowcell::{FlowCellConfig, FlowCellSimulator, RatePolicy};
///
/// let config = FlowCellConfig { channels: 32, duration_s: 600.0, ..Default::default() };
/// let control = FlowCellSimulator::new(config.clone(), 1).run(None, 60.0);
/// let read_until = FlowCellSimulator::new(config, 1)
///     .run(Some(&RatePolicy::oracle(2000)), 60.0);
/// // Read Until enriches target bases relative to control.
/// assert!(read_until.target_base_fraction() >= control.target_base_fraction());
/// ```
#[derive(Debug, Clone)]
pub struct FlowCellSimulator {
    config: FlowCellConfig,
    seed: u64,
}

impl FlowCellSimulator {
    /// Creates a simulator with the given configuration and seed.
    pub fn new(config: FlowCellConfig, seed: u64) -> Self {
        FlowCellSimulator { config, seed }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &FlowCellConfig {
        &self.config
    }

    /// The simulation seed (shared by [`FlowCellSimulator::arrival_trace`]
    /// so a trace replays the same capture process as `run`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs the simulation. `policy` enables Read Until; `None` is the
    /// control arm. `sample_interval_s` controls timeline resolution.
    pub fn run(&self, policy: Option<&RatePolicy>, sample_interval_s: f64) -> FlowCellRun {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samples = (cfg.duration_s / sample_interval_s).ceil() as usize + 1;
        let mut active_at: Vec<usize> = vec![0; samples];
        let mut bases_at: Vec<u64> = vec![0; samples];
        let mut target_bases_at: Vec<u64> = vec![0; samples];

        let mut total_bases = 0u64;
        let mut target_bases = 0u64;
        let mut total_reads = 0u64;
        let mut ejected_reads = 0u64;
        let mut final_active = 0usize;

        let mut wash_times = cfg.wash_times_s.clone();
        // sf-lint: allow(panic) -- wash times are user-supplied finite seconds
        wash_times.sort_by(|a, b| a.partial_cmp(b).expect("finite wash times"));

        for _ in 0..cfg.channels {
            let mut t = 0.0f64;
            let mut state = ChannelState::Active;
            let mut active_intervals: Vec<(f64, f64)> = Vec::new();
            let mut interval_start = 0.0f64;
            let mut next_wash = 0usize;

            while t < cfg.duration_s {
                // Handle pending washes.
                while next_wash < wash_times.len() && wash_times[next_wash] <= t {
                    if state == ChannelState::Blocked {
                        state = ChannelState::Active;
                        interval_start = wash_times[next_wash].max(t);
                    }
                    next_wash += 1;
                }
                if state != ChannelState::Active {
                    // Jump to the next wash (or the end of the run).
                    if state == ChannelState::Blocked && next_wash < wash_times.len() {
                        t = wash_times[next_wash];
                        continue;
                    }
                    break;
                }
                // Capture a new strand.
                let capture = exponential(&mut rng, cfg.mean_capture_time_s);
                t += capture;
                if t >= cfg.duration_s {
                    break;
                }
                total_reads += 1;
                let is_target = rng.random_bool(cfg.target_fraction);
                let read_length =
                    lognormal_with_mean(&mut rng, cfg.mean_read_length, cfg.read_length_sigma)
                        .max(200.0);
                let full_duration = read_length / cfg.bases_per_second;
                // Read Until decision.
                let (sequenced_duration, sequenced_bases) = match policy {
                    Some(p) => {
                        let keep_probability = if is_target {
                            p.true_positive_rate
                        } else {
                            p.false_positive_rate
                        };
                        let keep = rng.random_bool(keep_probability.clamp(0.0, 1.0));
                        if keep {
                            (full_duration, read_length)
                        } else {
                            // Ejected after the decision prefix plus latency.
                            let decision_time = p.decision_prefix_samples as f64
                                / cfg.sample_rate_hz
                                + p.decision_latency_s;
                            let duration = decision_time.min(full_duration);
                            ejected_reads += 1;
                            let m = crate::telemetry::metrics();
                            m.ejects.incr();
                            if decision_time >= full_duration {
                                m.missed_eject_windows.incr();
                            }
                            (duration, duration * cfg.bases_per_second)
                        }
                    }
                    None => (full_duration, read_length),
                };
                let end = (t + sequenced_duration).min(cfg.duration_s);
                let effective_bases =
                    ((end - t) * cfg.bases_per_second).min(sequenced_bases) as u64;
                total_bases += effective_bases;
                let end_idx = (end / sample_interval_s).floor() as usize;
                // Record cumulative bases at the end of this read (attributed
                // at completion for simplicity).
                if let Some(slot) = bases_at.get_mut(end_idx.min(samples - 1)) {
                    *slot += effective_bases;
                }
                if is_target {
                    target_bases += effective_bases;
                    if let Some(slot) = target_bases_at.get_mut(end_idx.min(samples - 1)) {
                        *slot += effective_bases;
                    }
                }
                t = end;
                // Pore blockage: probability grows with time spent
                // sequencing this read, so control and Read Until arms wear
                // at the same rate per sequenced second.
                let block_probability =
                    1.0 - (-cfg.block_rate_per_hour * sequenced_duration / 3600.0).exp();
                if rng.random_bool(block_probability.clamp(0.0, 1.0)) {
                    active_intervals.push((interval_start, t));
                    if rng.random_bool(cfg.death_probability) {
                        state = ChannelState::Dead;
                    } else {
                        state = ChannelState::Blocked;
                    }
                }
            }
            if state == ChannelState::Active {
                active_intervals.push((interval_start, cfg.duration_s));
                final_active += 1;
            }
            // Accumulate channel activity into the timeline.
            for (start, end) in active_intervals {
                let first = (start / sample_interval_s).ceil() as usize;
                let last = (end / sample_interval_s).floor() as usize;
                for slot in active_at
                    .iter_mut()
                    .take(last.min(samples - 1) + 1)
                    .skip(first)
                {
                    *slot += 1;
                }
            }
        }

        // Build the cumulative timeline.
        let mut timeline = Vec::with_capacity(samples);
        let mut cum_bases = 0u64;
        let mut cum_target = 0u64;
        for i in 0..samples {
            cum_bases += bases_at[i];
            cum_target += target_bases_at[i];
            timeline.push(TimelinePoint {
                time_s: i as f64 * sample_interval_s,
                active_channels: active_at[i],
                sequenced_bases: cum_bases,
                target_bases: cum_target,
            });
        }

        // End-of-run channel health, exposed as gauges (latest run wins).
        let m = crate::telemetry::metrics();
        m.active_channels.set(final_active as u64);
        let slots = (samples * cfg.channels) as u64;
        let active_total: u64 = active_at.iter().map(|&a| a as u64).sum();
        if let Some(permille) = (active_total * 1000).checked_div(slots) {
            m.occupancy_permille.set(permille);
        }

        FlowCellRun {
            timeline,
            total_bases,
            target_bases,
            total_reads,
            ejected_reads,
            final_active_channels: final_active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
    use sf_genome::Sequence;
    use sf_pore_model::KmerModel;

    fn quick_config() -> FlowCellConfig {
        FlowCellConfig {
            channels: 64,
            duration_s: 1_800.0,
            target_fraction: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn control_run_sequences_reads() {
        let run = FlowCellSimulator::new(quick_config(), 1).run(None, 60.0);
        assert!(run.total_reads > 100);
        assert!(run.total_bases > 0);
        assert_eq!(run.ejected_reads, 0);
        assert!(!run.timeline.is_empty());
    }

    #[test]
    fn read_until_ejects_and_enriches() {
        let config = quick_config();
        let control = FlowCellSimulator::new(config.clone(), 2).run(None, 60.0);
        let ru = FlowCellSimulator::new(config, 2).run(Some(&RatePolicy::oracle(2000)), 60.0);
        assert!(ru.ejected_reads > 0);
        assert!(ru.target_base_fraction() > control.target_base_fraction());
        // Read Until frees pore time, so more reads are started overall.
        assert!(ru.total_reads > control.total_reads);
    }

    #[test]
    fn timeline_is_monotonic_in_bases() {
        let run = FlowCellSimulator::new(quick_config(), 3).run(None, 30.0);
        for pair in run.timeline.windows(2) {
            assert!(pair[1].sequenced_bases >= pair[0].sequenced_bases);
            assert!(pair[1].target_bases >= pair[0].target_bases);
            assert!(pair[1].time_s > pair[0].time_s);
        }
        assert_eq!(
            run.timeline.last().unwrap().sequenced_bases,
            run.total_bases
        );
    }

    #[test]
    fn pores_decline_without_wash_and_recover_with_wash() {
        let mut config = quick_config();
        config.block_rate_per_hour = 8.0; // aggressive blocking to make the effect visible
        config.duration_s = 3_600.0;
        let no_wash = FlowCellSimulator::new(config.clone(), 4).run(None, 60.0);
        config.wash_times_s = vec![1_800.0];
        let with_wash = FlowCellSimulator::new(config.clone(), 4).run(None, 60.0);
        let idx = (2_000.0 / 60.0) as usize;
        let active_no_wash = no_wash.timeline[idx].active_channels;
        let active_with_wash = with_wash.timeline[idx].active_channels;
        assert!(
            active_with_wash > active_no_wash,
            "wash should restore channels: {active_with_wash} vs {active_no_wash}"
        );
        // Early on (before blocking accumulates) most channels are active.
        assert!(no_wash.timeline[1].active_channels > config.channels / 2);
    }

    #[test]
    fn read_until_does_not_reduce_final_active_channels() {
        // The Figure 20 claim: Read Until does not damage the flow cell more
        // than normal sequencing (blocking here is per-read-end and identical
        // across arms).
        let config = quick_config();
        let control = FlowCellSimulator::new(config.clone(), 5).run(None, 60.0);
        let ru = FlowCellSimulator::new(config, 5).run(Some(&RatePolicy::oracle(2000)), 60.0);
        let tolerance = 10;
        assert!(
            ru.final_active_channels + tolerance >= control.final_active_channels,
            "read until {} vs control {}",
            ru.final_active_channels,
            control.final_active_channels
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FlowCellSimulator::new(quick_config(), 8).run(None, 60.0);
        let b = FlowCellSimulator::new(quick_config(), 8).run(None, 60.0);
        assert_eq!(a, b);
    }

    /// Builds a SquiggleFilter over `target_genome` whose threshold is the
    /// midpoint between three synthesized target reads' mean cost and three
    /// background reads' mean cost, scored under the same normalization
    /// schedule the filter will run with.
    fn calibrated_filter(
        model: &KmerModel,
        target_genome: &Sequence,
        background_genome: &Sequence,
        normalizer: sf_squiggle::NormalizerConfig,
    ) -> sf_sdtw::SquiggleFilter {
        use sf_sdtw::{FilterConfig, SquiggleFilter};

        let base_config = FilterConfig {
            normalizer,
            ..FilterConfig::hardware(f64::MAX)
        };
        let probe = SquiggleFilter::from_genome(model, target_genome, base_config);
        let mut sim = SquiggleSimulator::new(model.clone(), SquiggleSimulatorConfig::default(), 7);
        let mut mean_cost = |genome: &Sequence, spans: [(usize, usize); 3]| {
            spans
                .iter()
                .map(|&(a, b)| {
                    let read = sim.synthesize(&genome.subsequence(a, b));
                    probe.score(&read).expect("probe read scores").cost
                })
                .sum::<f64>()
                / 3.0
        };
        let t = mean_cost(target_genome, [(300, 1_300), (600, 1_600), (900, 1_900)]);
        let b = mean_cost(
            background_genome,
            [(0, 1_000), (5_000, 6_000), (11_000, 12_000)],
        );
        assert!(t < b, "calibration failed: target {t} vs background {b}");
        SquiggleFilter::from_genome(
            model,
            target_genome,
            base_config.with_threshold((t + b) / 2.0),
        )
    }

    #[test]
    fn rolling_normalization_ejects_before_the_decision_prefix() {
        // A short calibration window plus mid-prefix recalibration lets the
        // sound early-reject bound fire while the read is still streaming:
        // the measured decision prefix (mean samples per eject) must land
        // below the 2000-sample prefix a frozen full-window filter is pinned
        // to. Every read of one arrival trace is streamed in 400-sample
        // chunks through each filter, and the sessions are summarized by
        // `RatePolicy::from_session_stats`.
        use crate::arrivals::TraceConfig;
        use sf_sdtw::ReadClassifier;
        use sf_squiggle::NormalizerConfig;

        let config = FlowCellConfig {
            channels: 4,
            duration_s: 240.0,
            target_fraction: 0.3,
            mean_read_length: 6_000.0,
            ..Default::default()
        };
        let model = KmerModel::synthetic_r94(0);
        let target_genome = sf_genome::random::random_genome(71, 2_000);
        let background_genome = sf_genome::random::human_like_background(72, 40_000);
        let frozen = calibrated_filter(
            &model,
            &target_genome,
            &background_genome,
            NormalizerConfig::default(),
        );
        let rolling = calibrated_filter(
            &model,
            &target_genome,
            &background_genome,
            NormalizerConfig::default()
                .with_calibration_window(1_000)
                .with_recalibration_interval(500),
        );
        assert_eq!(
            frozen.max_decision_samples(),
            rolling.max_decision_samples()
        );
        let trace = FlowCellSimulator::new(config, 11).arrival_trace(&TraceConfig {
            target_genome,
            background_genome,
            signal: SquiggleSimulatorConfig::default(),
            model_seed: 0,
            chunk_samples: 400,
            max_decision_samples: frozen.max_decision_samples(),
        });
        let measure = |filter: &sf_sdtw::SquiggleFilter| {
            let stats: Vec<_> = trace
                .reads
                .iter()
                .map(|read| {
                    let mut session = filter.start_read();
                    let signal = &read.squiggle.samples()[..read.available_samples()];
                    for chunk in signal.chunks(400) {
                        if session.push_chunk(chunk).is_final() {
                            break;
                        }
                    }
                    (read.is_target, session.finalize())
                })
                .collect();
            RatePolicy::from_session_stats(&stats, 0.000_1)
        };
        let frozen = measure(&frozen);
        let rolling = measure(&rolling);
        assert!(
            rolling.false_positive_rate < 1.0,
            "rolling filter never ejected background"
        );
        assert!(
            rolling.decision_prefix_samples < 2_000,
            "rolling filter should decide mid-prefix, got {}",
            rolling.decision_prefix_samples
        );
        assert!(
            rolling.decision_prefix_samples < frozen.decision_prefix_samples,
            "rolling {} vs frozen {}",
            rolling.decision_prefix_samples,
            frozen.decision_prefix_samples
        );
    }

    #[test]
    fn empty_run_is_safe() {
        let config = FlowCellConfig {
            channels: 0,
            duration_s: 100.0,
            ..Default::default()
        };
        let run = FlowCellSimulator::new(config, 1).run(None, 10.0);
        assert_eq!(run.total_bases, 0);
        assert_eq!(run.target_base_fraction(), 0.0);
    }
}
