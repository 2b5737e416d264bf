//! Interleaved-arrival load generation for the session scheduler.
//!
//! [`FlowCellSimulator::run`] drives one read at a time to completion, which
//! is fine for throughput/enrichment accounting but hides the shape of the
//! load a real Read Until service sees: up to 512 channels each deliver a
//! ≈0.1 s signal chunk at their own cadence, so the classifier-facing stream
//! is thousands of *interleaved* `(channel, chunk)` arrivals. This module
//! replays the same capture process (exponential capture gaps, log-normal
//! read lengths, budget-limited squiggle prefixes) into an [`ArrivalTrace`]:
//! a time-ordered schedule of chunk arrivals referencing per-read synthesized
//! squiggles, ready to feed `sf-sched`'s ingest queue.
//!
//! The trace is classifier-agnostic and *open-loop*: every read is scheduled
//! as if sequenced to completion, and no pore blocking or washes occur. The
//! consumer (the Read Until service in `sf-readuntil`) decides which chunks
//! it still wants to deliver once a read's verdict arrives — a reject that
//! lands before a read's last chunk is an eject window made; after it, an
//! eject window missed.

use crate::flowcell::FlowCellSimulator;
use crate::rand_util::{exponential, lognormal_with_mean};
use crate::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sf_genome::Sequence;
use sf_pore_model::KmerModel;
use sf_squiggle::RawSquiggle;

/// Signal-synthesis parameters for building an [`ArrivalTrace`]: which
/// genomes reads are drawn from and how their squiggles are synthesized.
///
/// The trace is classifier-agnostic: it only needs `max_decision_samples`
/// (the downstream classifier's decision budget) to bound how much of each
/// read's signal is worth synthesizing.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Genome target reads are drawn from.
    pub target_genome: Sequence,
    /// Background contig non-target reads are drawn from.
    pub background_genome: Sequence,
    /// Signal-synthesis parameters for the per-read squiggles.
    pub signal: SquiggleSimulatorConfig,
    /// Seed of the synthetic pore model used for synthesis (keep equal to
    /// the seed the classifier's reference squiggle was built with).
    pub model_seed: u64,
    /// Raw samples delivered per chunk arrival (MinKNOW serves Read Until
    /// chunks of ≈ 0.1 s ≈ 400 samples).
    pub chunk_samples: usize,
    /// The downstream classifier's decision budget
    /// (`ReadClassifier::max_decision_samples`); bounds per-read synthesis.
    pub max_decision_samples: usize,
}

/// One captured read of an [`ArrivalTrace`].
#[derive(Debug, Clone)]
pub struct TraceRead {
    /// Flow-cell channel the read was captured on.
    pub channel: usize,
    /// Capture time, seconds since run start.
    pub start_s: f64,
    /// Whether the read is a target (viral) read.
    pub is_target: bool,
    /// Synthesized signal prefix — budget-limited: only as many bases as the
    /// decision budget (plus dwell-variation slack) can consume are
    /// synthesized.
    pub squiggle: RawSquiggle,
    /// Raw samples the full read spans at the pore (may exceed the
    /// synthesized prefix; the pore would keep delivering signal past the
    /// classifier's budget).
    pub read_samples: usize,
    /// Full read length in bases.
    pub read_bases: usize,
}

impl TraceRead {
    /// Samples actually deliverable to a classifier: the synthesized prefix
    /// capped by the read's own span.
    pub fn available_samples(&self) -> usize {
        self.squiggle.len().min(self.read_samples)
    }
}

/// One chunk arrival of an [`ArrivalTrace`]: a sample range of one read's
/// squiggle, timestamped at the moment the pore has delivered it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceChunk {
    /// Arrival time, seconds since run start.
    pub time_s: f64,
    /// Index into [`ArrivalTrace::reads`].
    pub read: usize,
    /// First sample of the chunk (inclusive) within the read's squiggle.
    pub start: usize,
    /// One past the last sample of the chunk.
    pub end: usize,
    /// Whether this is the read's final deliverable chunk.
    pub last: bool,
}

/// A time-ordered schedule of interleaved chunk arrivals across every
/// channel of a simulated flow cell — the load a Read Until service sees.
///
/// Built by [`FlowCellSimulator::arrival_trace`]; deterministic per
/// simulator seed.
#[derive(Debug, Clone)]
pub struct ArrivalTrace {
    /// Every read captured during the run, in capture order per channel.
    pub reads: Vec<TraceRead>,
    /// Chunk arrivals across all reads, sorted by arrival time.
    pub chunks: Vec<TraceChunk>,
    /// Signal sampling rate the chunk timestamps were derived with.
    pub sample_rate_hz: f64,
}

impl ArrivalTrace {
    /// The sample slice a chunk arrival delivers.
    pub fn samples(&self, chunk: &TraceChunk) -> &[u16] {
        &self.reads[chunk.read].squiggle.samples()[chunk.start..chunk.end]
    }

    /// Arrival time of the last chunk, seconds (0 for an empty trace).
    pub fn duration_s(&self) -> f64 {
        self.chunks.last().map_or(0.0, |c| c.time_s)
    }
}

impl FlowCellSimulator {
    /// Replays this simulator's capture process into an open-loop
    /// [`ArrivalTrace`]: per-channel exponential capture gaps and log-normal
    /// read lengths (exactly the distributions [`FlowCellSimulator::run`]
    /// samples), each read synthesized as a budget-limited squiggle prefix
    /// and cut into `trace.chunk_samples`-sized arrivals timestamped at
    /// `capture + delivered_samples / sample_rate_hz`, merged across
    /// channels into one time-sorted stream.
    ///
    /// Pore blocking and washes are not modelled — the trace is a pure load
    /// generator, so its arrival intensity is an upper bound on what the
    /// same configuration's closed-loop run produces.
    pub fn arrival_trace(&self, trace: &TraceConfig) -> ArrivalTrace {
        let cfg = self.config();
        let mut rng = StdRng::seed_from_u64(self.seed());
        let mut signal_sim = SquiggleSimulator::new(
            KmerModel::synthetic_r94(trace.model_seed),
            trace.signal,
            self.seed().wrapping_add(0x5163_u64),
        );
        // Synthesis budget: the decision budget plus dwell-variation slack.
        let budget_bases =
            (trace.max_decision_samples as f64 / trace.signal.samples_per_base * 1.3) as usize + 20;
        let chunk_samples = trace.chunk_samples.max(1);

        let mut reads = Vec::new();
        let mut chunks = Vec::new();
        for channel in 0..cfg.channels {
            let mut t = 0.0f64;
            while t < cfg.duration_s {
                let capture = exponential(&mut rng, cfg.mean_capture_time_s);
                t += capture;
                if t >= cfg.duration_s {
                    break;
                }
                let is_target = rng.random_bool(cfg.target_fraction);
                let read_length =
                    lognormal_with_mean(&mut rng, cfg.mean_read_length, cfg.read_length_sigma)
                        .max(200.0);
                let genome = if is_target {
                    &trace.target_genome
                } else {
                    &trace.background_genome
                };
                let read_bases = (read_length as usize).min(genome.len());
                let fragment_bases = read_bases.min(budget_bases).max(1);
                let start = rng.random_range(0..=genome.len() - fragment_bases);
                let mut fragment = genome.subsequence(start, start + fragment_bases);
                if rng.random_bool(0.5) {
                    fragment = fragment.reverse_complement();
                }
                let squiggle = signal_sim.synthesize(&fragment);
                let read_samples =
                    (read_length * cfg.sample_rate_hz / cfg.bases_per_second) as usize;
                let available = squiggle.len().min(read_samples);

                let read_idx = reads.len();
                let mut offset = 0usize;
                while offset < available {
                    let end = (offset + chunk_samples).min(available);
                    chunks.push(TraceChunk {
                        time_s: t + end as f64 / cfg.sample_rate_hz,
                        read: read_idx,
                        start: offset,
                        end,
                        last: end == available,
                    });
                    offset = end;
                }
                reads.push(TraceRead {
                    channel,
                    start_s: t,
                    is_target,
                    squiggle,
                    read_samples,
                    read_bases,
                });
                // Open loop: the pore sequences the whole read before the
                // channel captures again.
                t += read_length / cfg.bases_per_second;
            }
        }
        // Merge per-channel streams into one time-ordered schedule. Ties are
        // broken by read index so the sort (and the trace) is deterministic.
        chunks.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.read.cmp(&b.read)));
        ArrivalTrace {
            reads,
            chunks,
            sample_rate_hz: cfg.sample_rate_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowcell::FlowCellConfig;
    use sf_genome::random::{human_like_background, random_genome};

    fn small_trace(seed: u64) -> ArrivalTrace {
        let config = FlowCellConfig {
            channels: 8,
            duration_s: 60.0,
            target_fraction: 0.3,
            mean_read_length: 4_000.0,
            ..Default::default()
        };
        let trace_cfg = TraceConfig {
            target_genome: random_genome(71, 2_000),
            background_genome: human_like_background(72, 40_000),
            signal: SquiggleSimulatorConfig::default(),
            model_seed: 0,
            chunk_samples: 400,
            max_decision_samples: 4_000,
        };
        FlowCellSimulator::new(config, seed).arrival_trace(&trace_cfg)
    }

    #[test]
    fn trace_is_time_sorted_and_interleaved() {
        let trace = small_trace(9);
        assert!(trace.reads.len() > 8, "expected multiple reads per channel");
        assert!(!trace.chunks.is_empty());
        for pair in trace.chunks.windows(2) {
            assert!(pair[1].time_s >= pair[0].time_s);
        }
        // Arrivals genuinely interleave across reads: some adjacent chunk
        // pair references different reads with the earlier read unfinished.
        assert!(trace
            .chunks
            .windows(2)
            .any(|p| p[0].read != p[1].read && !p[0].last));
    }

    #[test]
    fn chunks_cover_each_read_exactly_once() {
        let trace = small_trace(10);
        let mut covered = vec![0usize; trace.reads.len()];
        let mut last_seen = vec![false; trace.reads.len()];
        for chunk in &trace.chunks {
            assert!(chunk.end > chunk.start);
            assert_eq!(chunk.start, covered[chunk.read], "gap or overlap");
            covered[chunk.read] = chunk.end;
            assert!(!last_seen[chunk.read], "chunk after the last chunk");
            last_seen[chunk.read] = chunk.last;
            assert!(!trace.samples(chunk).is_empty());
        }
        for (read, &end) in trace.reads.iter().zip(&covered) {
            assert_eq!(end, read.available_samples());
        }
        assert!(last_seen.iter().all(|&seen| seen));
    }

    #[test]
    fn chunk_timestamps_track_delivery() {
        let trace = small_trace(11);
        for chunk in &trace.chunks {
            let read = &trace.reads[chunk.read];
            let expected = read.start_s + chunk.end as f64 / trace.sample_rate_hz;
            assert!((chunk.time_s - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_trace(12);
        let b = small_trace(12);
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.reads.len(), b.reads.len());
    }
}
