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
//! Until policy. A policy is either *rate-described* ([`RatePolicy`]: TPR/FPR
//! plus a fixed decision prefix, as measured offline) or a *real classifier*
//! ([`ClassifierPolicy`]): any `sf_sdtw::ReadClassifier` driven chunk by
//! chunk on per-read synthesized squiggles, so the decision point and the
//! verdict are whatever the classifier actually does — including sound early
//! ejects long before the nominal prefix.

use crate::rand_util::{exponential, lognormal_with_mean};
use crate::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sf_genome::Sequence;
use sf_pore_model::KmerModel;
use sf_sdtw::{ReadClassifier, StreamClassification};
use std::fmt;

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

/// A real streaming classifier plugged into the flow cell: each captured
/// read gets a synthesized squiggle (target reads from `target_genome`,
/// background reads from `background_genome`) whose chunks are pushed into a
/// fresh classifier session until it commits to keep or eject.
pub struct ClassifierPolicy {
    /// The chunk-wise classifier making the keep-or-eject decisions.
    pub classifier: Box<dyn ReadClassifier + Send + Sync>,
    /// Genome target reads are drawn from (what the classifier was
    /// programmed for).
    pub target_genome: Sequence,
    /// Background contig non-target reads are drawn from.
    pub background_genome: Sequence,
    /// Signal-synthesis parameters for the per-read squiggles.
    pub signal: SquiggleSimulatorConfig,
    /// Seed of the synthetic pore model used for synthesis (keep equal to
    /// the seed the classifier's reference squiggle was built with).
    pub model_seed: u64,
    /// Raw samples delivered to the classifier per poll (MinKNOW serves
    /// Read Until chunks of ≈ 0.1 s ≈ 400 samples).
    pub chunk_samples: usize,
    /// Additional compute latency per decision, seconds.
    pub decision_latency_s: f64,
}

impl fmt::Debug for ClassifierPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassifierPolicy")
            .field(
                "max_decision_samples",
                &self.classifier.max_decision_samples(),
            )
            .field("target_genome_bp", &self.target_genome.len())
            .field("background_genome_bp", &self.background_genome.len())
            .field("chunk_samples", &self.chunk_samples)
            .field("decision_latency_s", &self.decision_latency_s)
            .finish()
    }
}

/// A Read Until policy: either summarized rates or a real chunk-wise
/// classifier.
#[derive(Debug)]
pub enum ReadUntilPolicy {
    /// Classifier summarized by its operating point (TPR/FPR + fixed
    /// decision prefix).
    Rates(RatePolicy),
    /// A real streaming classifier driven chunk by chunk.
    Classifier(ClassifierPolicy),
}

impl ReadUntilPolicy {
    /// A perfect, instantaneous rate policy (upper bound on Read Until
    /// gains).
    pub fn oracle(decision_prefix_samples: usize) -> Self {
        ReadUntilPolicy::Rates(RatePolicy::oracle(decision_prefix_samples))
    }
}

impl From<RatePolicy> for ReadUntilPolicy {
    fn from(rates: RatePolicy) -> Self {
        ReadUntilPolicy::Rates(rates)
    }
}

impl From<ClassifierPolicy> for ReadUntilPolicy {
    fn from(classifier: ClassifierPolicy) -> Self {
        ReadUntilPolicy::Classifier(classifier)
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
    /// Raw samples consumed by eject decisions, summed over all ejected
    /// reads — the sequencing time Read Until spent *deciding*. With a
    /// rolling-normalization classifier (`recalibration_interval` below the
    /// decision prefix) this drops below `ejected_reads × prefix`, which is
    /// exactly the ejection-latency win the rolling re-estimation buys.
    pub eject_decision_samples: u64,
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

    /// Mean raw samples an eject decision consumed (0 when nothing was
    /// ejected) — how early, on average, the policy pulled the trigger.
    pub fn mean_eject_decision_samples(&self) -> f64 {
        if self.ejected_reads == 0 {
            return 0.0;
        }
        self.eject_decision_samples as f64 / self.ejected_reads as f64
    }
}

/// Event-driven (per-channel) flow-cell simulator.
///
/// # Examples
///
/// ```
/// use sf_sim::flowcell::{FlowCellConfig, FlowCellSimulator, ReadUntilPolicy};
///
/// let config = FlowCellConfig { channels: 32, duration_s: 600.0, ..Default::default() };
/// let control = FlowCellSimulator::new(config.clone(), 1).run(None, 60.0);
/// let read_until = FlowCellSimulator::new(config, 1)
///     .run(Some(&ReadUntilPolicy::oracle(2000)), 60.0);
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
    pub fn run(&self, policy: Option<&ReadUntilPolicy>, sample_interval_s: f64) -> FlowCellRun {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Per-read signal synthesis, only needed when a real classifier
        // drives the ejection decisions.
        let mut signal_sim = match policy {
            Some(ReadUntilPolicy::Classifier(p)) => Some(SquiggleSimulator::new(
                KmerModel::synthetic_r94(p.model_seed),
                p.signal,
                self.seed.wrapping_add(0x5163_u64),
            )),
            _ => None,
        };
        let samples = (cfg.duration_s / sample_interval_s).ceil() as usize + 1;
        let mut active_at: Vec<usize> = vec![0; samples];
        let mut bases_at: Vec<u64> = vec![0; samples];
        let mut target_bases_at: Vec<u64> = vec![0; samples];

        let mut total_bases = 0u64;
        let mut target_bases = 0u64;
        let mut total_reads = 0u64;
        let mut ejected_reads = 0u64;
        let mut eject_decision_samples = 0u64;
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
                    Some(ReadUntilPolicy::Rates(p)) => {
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
                            // A read shorter than the decision prefix only
                            // delivers its own samples (mirrors the honest
                            // `samples_consumed` of the Classifier branch).
                            eject_decision_samples += (p.decision_prefix_samples as f64)
                                .min(full_duration * cfg.sample_rate_hz)
                                as u64;
                            (duration, duration * cfg.bases_per_second)
                        }
                    }
                    Some(ReadUntilPolicy::Classifier(p)) => {
                        // sf-lint: allow(panic) -- built above whenever the policy is Classifier
                        let sim = signal_sim.as_mut().expect("classifier signal simulator");
                        let outcome =
                            drive_classifier(p, sim, &mut rng, is_target, read_length, cfg);
                        if outcome.keep {
                            (full_duration, read_length)
                        } else {
                            let decision_time = outcome.samples_consumed as f64
                                / cfg.sample_rate_hz
                                + p.decision_latency_s;
                            let duration = decision_time.min(full_duration);
                            ejected_reads += 1;
                            let m = crate::telemetry::metrics();
                            m.ejects.incr();
                            if decision_time >= full_duration {
                                m.missed_eject_windows.incr();
                            }
                            eject_decision_samples += outcome.samples_consumed as u64;
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
            eject_decision_samples,
            final_active_channels: final_active,
        }
    }
}

/// Outcome of driving one read through a classifier session.
struct DriveOutcome {
    keep: bool,
    samples_consumed: usize,
}

/// Synthesizes the signal prefix of one captured read and streams it chunk by
/// chunk into a fresh classifier session until the session commits (or the
/// read's signal runs out, at which point the session is finalized on what it
/// saw — exactly the behaviour of a real Read Until loop on a short read).
fn drive_classifier(
    policy: &ClassifierPolicy,
    signal_sim: &mut SquiggleSimulator,
    rng: &mut StdRng,
    is_target: bool,
    read_length_bases: f64,
    cfg: &FlowCellConfig,
) -> DriveOutcome {
    let genome = if is_target {
        &policy.target_genome
    } else {
        &policy.background_genome
    };
    let read_bases = (read_length_bases as usize).min(genome.len());
    // Only synthesize the prefix the classifier can possibly consume: the
    // decision budget plus dwell-variation slack.
    let budget_bases = (policy.classifier.max_decision_samples() as f64
        / policy.signal.samples_per_base
        * 1.3) as usize
        + 20;
    let fragment_bases = read_bases.min(budget_bases).max(1);
    let start = rng.random_range(0..=genome.len() - fragment_bases);
    let mut fragment = genome.subsequence(start, start + fragment_bases);
    if rng.random_bool(0.5) {
        fragment = fragment.reverse_complement();
    }
    let squiggle = signal_sim.synthesize(&fragment);
    // The pore only delivers as much signal as the read actually spans.
    let read_samples = (read_length_bases * cfg.sample_rate_hz / cfg.bases_per_second) as usize;
    let available = squiggle.len().min(read_samples);

    let mut session = policy.classifier.start_read();
    for chunk in squiggle.samples()[..available].chunks(policy.chunk_samples.max(1)) {
        if session.push_chunk(chunk).is_final() {
            break;
        }
    }
    let outcome = session.finalize();
    DriveOutcome {
        keep: outcome.verdict.is_accept(),
        samples_consumed: outcome.samples_consumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ru = FlowCellSimulator::new(config, 2).run(Some(&ReadUntilPolicy::oracle(2000)), 60.0);
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
        let ru = FlowCellSimulator::new(config, 5).run(Some(&ReadUntilPolicy::oracle(2000)), 60.0);
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

    /// Builds a calibrated SquiggleFilter policy over a small genome pair:
    /// the threshold is the midpoint between one synthesized target read's
    /// cost and one background read's cost, scored under the same
    /// normalization schedule the policy will run with.
    fn squiggle_filter_policy(
        model_seed: u64,
        normalizer: sf_squiggle::NormalizerConfig,
    ) -> ClassifierPolicy {
        use sf_sdtw::{FilterConfig, SquiggleFilter};

        let target_genome = sf_genome::random::random_genome(71, 2_000);
        let background_genome = sf_genome::random::human_like_background(72, 40_000);
        let model = KmerModel::synthetic_r94(model_seed);
        let signal = SquiggleSimulatorConfig::default();
        let base_config = FilterConfig {
            normalizer,
            ..FilterConfig::hardware(f64::MAX)
        };

        let probe = SquiggleFilter::from_genome(&model, &target_genome, base_config);
        let mut sim = SquiggleSimulator::new(model.clone(), signal, 7);
        let target_reads: Vec<_> = [(300, 1_300), (600, 1_600), (900, 1_900)]
            .iter()
            .map(|&(a, b)| sim.synthesize(&target_genome.subsequence(a, b)))
            .collect();
        let background_reads: Vec<_> = [(0, 1_000), (5_000, 6_000), (11_000, 12_000)]
            .iter()
            .map(|&(a, b)| sim.synthesize(&background_genome.subsequence(a, b)))
            .collect();
        let cost = |reads: &[sf_squiggle::RawSquiggle]| {
            reads
                .iter()
                .map(|r| probe.score(r).expect("probe read scores").cost)
                .sum::<f64>()
                / reads.len() as f64
        };
        let t = cost(&target_reads);
        let b = cost(&background_reads);
        assert!(t < b, "calibration failed: target {t} vs background {b}");

        let filter = SquiggleFilter::from_genome(
            &model,
            &target_genome,
            base_config.with_threshold((t + b) / 2.0),
        );
        ClassifierPolicy {
            classifier: Box::new(filter),
            target_genome,
            background_genome,
            signal,
            model_seed,
            chunk_samples: 400,
            decision_latency_s: 0.000_1,
        }
    }

    #[test]
    fn squiggle_filter_policy_ejects_and_enriches() {
        // A real (non-oracle) SquiggleFilter drives chunk-by-chunk ejection:
        // classification happens on synthesized squiggles, not on labels.
        let config = FlowCellConfig {
            channels: 4,
            duration_s: 240.0,
            target_fraction: 0.3,
            mean_read_length: 6_000.0,
            ..Default::default()
        };
        let policy = ReadUntilPolicy::Classifier(squiggle_filter_policy(
            0,
            sf_squiggle::NormalizerConfig::default(),
        ));
        let control = FlowCellSimulator::new(config.clone(), 11).run(None, 30.0);
        let filtered = FlowCellSimulator::new(config, 11).run(Some(&policy), 30.0);
        assert!(filtered.ejected_reads > 0, "classifier never ejected");
        assert!(
            filtered.ejected_reads < filtered.total_reads,
            "classifier ejected everything"
        );
        assert!(
            filtered.target_base_fraction() > control.target_base_fraction(),
            "no enrichment: {} vs {}",
            filtered.target_base_fraction(),
            control.target_base_fraction()
        );
        // Deterministic per seed, classifier arm included.
        let config2 = FlowCellConfig {
            channels: 4,
            duration_s: 240.0,
            target_fraction: 0.3,
            mean_read_length: 6_000.0,
            ..Default::default()
        };
        let again = FlowCellSimulator::new(config2, 11).run(Some(&policy), 30.0);
        assert_eq!(filtered, again);
    }

    #[test]
    fn rolling_normalization_ejects_before_the_decision_prefix() {
        // A short calibration window plus mid-prefix recalibration lets the
        // sound early-reject bound fire while the read is still streaming:
        // the mean eject decision must land below the 2000-sample prefix
        // that a frozen full-window policy is pinned to.
        let config = FlowCellConfig {
            channels: 4,
            duration_s: 240.0,
            target_fraction: 0.3,
            mean_read_length: 6_000.0,
            ..Default::default()
        };
        let frozen_policy = ReadUntilPolicy::Classifier(squiggle_filter_policy(
            0,
            sf_squiggle::NormalizerConfig::default(),
        ));
        let rolling_policy = ReadUntilPolicy::Classifier(squiggle_filter_policy(
            0,
            sf_squiggle::NormalizerConfig::default()
                .with_calibration_window(1_000)
                .with_recalibration_interval(500),
        ));
        let frozen = FlowCellSimulator::new(config.clone(), 11).run(Some(&frozen_policy), 30.0);
        let rolling = FlowCellSimulator::new(config, 11).run(Some(&rolling_policy), 30.0);
        assert!(rolling.ejected_reads > 0);
        assert!(
            rolling.mean_eject_decision_samples() < 2_000.0,
            "rolling policy should decide mid-prefix, got {}",
            rolling.mean_eject_decision_samples()
        );
        assert!(
            rolling.mean_eject_decision_samples() < frozen.mean_eject_decision_samples(),
            "rolling {} vs frozen {}",
            rolling.mean_eject_decision_samples(),
            frozen.mean_eject_decision_samples()
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
