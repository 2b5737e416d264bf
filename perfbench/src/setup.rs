//! Set-up shared by every workload: reference build, threshold calibration
//! on held-out reads, flow-cell trace synthesis with the start-up burst
//! trimmed, and the sequential oracle every run's outcomes are checked
//! against.

use std::thread;
use std::time::Instant;

use sf_genome::random::{human_like_background, random_genome};
use sf_genome::Sequence;
use sf_pore_model::{KmerModel, ReferenceSquiggle};
use sf_sdtw::{
    calibrate_threshold, FilterConfig, ReadClassifier, SquiggleFilter, StreamClassification,
};
use sf_shard::{pan_viral_panel, PanelConfig, ShardedClassifier};
use sf_sim::{
    ArrivalTrace, FlowCellConfig, FlowCellSimulator, SquiggleSimulatorConfig, TraceChunk,
    TraceConfig, TraceRead,
};
use sf_squiggle::{NormalizerConfig, RawSquiggle};

use crate::stats::percentile;
use crate::workload::{Catalog, Spec};

/// Raw samples per Read Until chunk (≈ 0.1 s at 4 kHz).
pub const CHUNK_SAMPLES: usize = 400;
/// Seed of the synthetic pore model shared by references and reads.
const MODEL_SEED: u64 = 0;
/// Seeds of the fixed deployment: the target genome, the host background
/// and the panel. The run seed only drives the flow cell.
const TARGET_SEED: u64 = 4_101;
const BACKGROUND_SEED: u64 = 4_102;
const PANEL_SEED: u64 = 4_103;
/// Seed of the held-out calibration reads: distinct from any run's trace,
/// and fixed, so every run times the same calibrated classifier.
const CALIBRATION_SEED: u64 = 0xCA1_1B8A7E;
/// 2 kb, not 4 kb: a 4 kb decision costs twice the DP, so at the same
/// paced load a run held half the decisions (≈ 380 per 30 s) and its p95
/// latency spread 21–29 % across seeds.
const TARGET_LENGTH: usize = 2_000;
const PANEL_GENOME_LENGTH: usize = 2_000;
const BACKGROUND_LENGTH: usize = 100_000;
/// Calibration reads per label (single) and per label and virus (panel).
const SINGLE_CALIBRATION_READS: usize = 40;
const PANEL_CALIBRATION_TARGETS: usize = 8;
const PANEL_CALIBRATION_BACKGROUND: usize = 40;
/// Per-shard false-positive cap for the panel thresholds: each shard may
/// accept this share of background, so the union stays discriminating.
const SHARD_FPR_CAP: f64 = 0.02;
/// Seconds after the last capture for which a captured read can still
/// deliver chunks (its synthesized prefix is at most ≈ 2 s of signal).
pub const DELIVERY_TAIL_S: f64 = 2.0;
/// Share of captured reads that are target reads. Half: a run holds a few
/// hundred decisions, and at a 10 % share tpr and enrichment swung by
/// 8–29 % from seed to seed.
const TARGET_FRACTION: f64 = 0.5;
/// Times the whole set-up is built per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The calibrated classifier a workload times, with its calibration record.
pub struct Calibrated {
    /// The classifier.
    pub catalog: Catalog,
    /// Per-shard thresholds (one entry for a single filter).
    pub thresholds: Vec<f64>,
    /// tpr − fpr of the whole classifier on the calibration reads.
    pub separation: f64,
}

/// Everything a run needs, built before the clock starts.
pub struct Setup {
    /// The calibrated classifier.
    pub calibrated: Calibrated,
    /// The trimmed, re-based trace to replay.
    pub trace: ArrivalTrace,
    /// Per read, the end offsets of its chunks in delivery order.
    pub chunk_ends: Vec<Vec<usize>>,
    /// Per read, the due times (seconds) of those chunks.
    pub chunk_due: Vec<Vec<f64>>,
    /// Per read, the sequential `push_chunk`/`finalize` outcome.
    pub oracle: Vec<StreamClassification>,
    /// Wall-clock seconds one set-up took (median of [`SETUP_REPEATS`]).
    pub setup_s: f64,
}

/// Builds the set-up of `spec` for `seed`, replaying `window_s` seconds of
/// captures. The whole set-up runs [`SETUP_REPEATS`] times and `setup_s`
/// is the median, so one slow moment of the machine does not set it.
pub fn build(spec: &Spec, seed: u64, window_s: f64) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Only one set-up is alive at a time.
        drop(setup.take());
        let started = Instant::now();
        setup = Some(build_once(spec, seed, window_s)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let mut setup = setup.ok_or("no set-up was built")?;
    setup.setup_s = percentile(&times, 0.5);
    Ok(setup)
}

fn build_once(spec: &Spec, seed: u64, window_s: f64) -> Result<Setup, String> {
    let model = KmerModel::synthetic_r94(MODEL_SEED);
    let background = human_like_background(BACKGROUND_SEED, BACKGROUND_LENGTH);
    let targets = target_genomes(spec);
    let calibrated = calibrate(spec, &model, &targets, &background)?;
    let trace = synthesize(spec, seed, &targets, &background, window_s);
    let (chunk_ends, chunk_due) = chunk_index(&trace);
    let oracle = oracle(calibrated.catalog.classifier(), &trace);
    Ok(Setup {
        calibrated,
        trace,
        chunk_ends,
        chunk_due,
        oracle,
        setup_s: 0.0,
    })
}

/// The filter configuration every workload uses: the hardware filter with
/// a frozen 2000-sample normalization window.
fn filter_config() -> FilterConfig {
    let mut config = FilterConfig::hardware(f64::MAX);
    config.normalizer = NormalizerConfig::default().with_recalibration_interval(0);
    config
}

/// The decision prefix of [`filter_config`].
fn decision_samples() -> usize {
    filter_config().prefix_samples
}

/// The genomes target reads are drawn from: one for a single filter, one per
/// distinct virus for a panel (strains share their virus's reads).
fn target_genomes(spec: &Spec) -> Vec<Sequence> {
    if spec.panel {
        panel()
            .into_iter()
            .take(panel_config().viruses)
            .map(|t| t.genome)
            .collect()
    } else {
        vec![random_genome(TARGET_SEED, TARGET_LENGTH)]
    }
}

fn panel_config() -> PanelConfig {
    PanelConfig {
        genome_length: PANEL_GENOME_LENGTH,
        viruses: 4,
        strains: 5,
        seed: PANEL_SEED,
    }
}

fn panel() -> Vec<sf_shard::PanelTarget> {
    pan_viral_panel(&panel_config())
}

/// Calibrates the workload's classifier on held-out, balanced reads and
/// refuses a classifier whose calibration tpr − fpr is below the floor.
fn calibrate(
    spec: &Spec,
    model: &KmerModel,
    targets: &[Sequence],
    background: &Sequence,
) -> Result<Calibrated, String> {
    let calibrated = if spec.panel {
        calibrate_panel(model, targets, background)
    } else {
        calibrate_single(model, &targets[0], background)
    };
    if calibrated.separation < spec.separation_floor {
        return Err(format!(
            "calibration tpr - fpr = {:.3} is below the floor {:.3} (thresholds {:?})",
            calibrated.separation, spec.separation_floor, calibrated.thresholds
        ));
    }
    Ok(calibrated)
}

/// Held-out reads of `genome` (targets) and `background`, equal numbers of
/// each label up to `per_label`, from the calibration seed.
fn calibration_reads(
    genome: &Sequence,
    background: &Sequence,
    per_label: (usize, usize),
    seed: u64,
) -> (Vec<RawSquiggle>, Vec<RawSquiggle>) {
    // Enough channels that one capture each covers both labels.
    let channels = 3 * (per_label.0 + per_label.1);
    let config = FlowCellConfig {
        channels,
        duration_s: 3.0,
        target_fraction: per_label.0 as f64 / (per_label.0 + per_label.1) as f64,
        ..FlowCellConfig::default()
    };
    let trace =
        FlowCellSimulator::new(config, seed).arrival_trace(&trace_config(genome, background, 1));
    let (mut target, mut other) = (Vec::new(), Vec::new());
    for read in &trace.reads {
        let samples = read.squiggle.samples()[..read.available_samples()].to_vec();
        let squiggle = RawSquiggle::new(samples, trace.sample_rate_hz);
        if read.is_target && target.len() < per_label.0 {
            target.push(squiggle);
        } else if !read.is_target && other.len() < per_label.1 {
            other.push(squiggle);
        }
    }
    (target, other)
}

fn calibrate_single(model: &KmerModel, genome: &Sequence, background: &Sequence) -> Calibrated {
    let reference = ReferenceSquiggle::from_genome(model, genome);
    let probe = SquiggleFilter::new(&reference, filter_config());
    let n = SINGLE_CALIBRATION_READS;
    let (target, other) = calibration_reads(genome, background, (n, n), CALIBRATION_SEED);
    let k = target.len().min(other.len());
    let cost = |r: &RawSquiggle| probe.score(r).map_or(f64::MAX, |s| s.cost);
    let target_costs = par_map(&target[..k], cost);
    let other_costs = par_map(&other[..k], cost);
    let sweep = calibrate_threshold(&target_costs, &other_costs);
    let point = sweep.best_f1().expect("calibration reads are never empty");
    Calibrated {
        catalog: Catalog::Single(SquiggleFilter::new(
            &reference,
            filter_config().with_threshold(point.threshold),
        )),
        thresholds: vec![point.threshold],
        separation: point.true_positive_rate - point.false_positive_rate,
    }
}

fn calibrate_panel(model: &KmerModel, viruses: &[Sequence], background: &Sequence) -> Calibrated {
    let panel = panel();
    let references: Vec<ReferenceSquiggle> = panel
        .iter()
        .map(|t| ReferenceSquiggle::from_genome(model, &t.genome))
        .collect();
    let probes: Vec<SquiggleFilter> = references
        .iter()
        .map(|r| SquiggleFilter::new(r, filter_config()))
        .collect();
    // Target reads per virus, tagged with the virus; background pooled.
    let mut reads: Vec<(Option<usize>, RawSquiggle)> = Vec::new();
    let per_virus_background = PANEL_CALIBRATION_BACKGROUND.div_ceil(viruses.len());
    for (v, genome) in viruses.iter().enumerate() {
        let (target, other) = calibration_reads(
            genome,
            background,
            (PANEL_CALIBRATION_TARGETS, per_virus_background),
            CALIBRATION_SEED.wrapping_add(v as u64),
        );
        reads.extend(target.into_iter().map(|r| (Some(v), r)));
        reads.extend(other.into_iter().map(|r| (None, r)));
    }
    // Cost of every calibration read against every shard.
    let costs: Vec<Vec<f64>> = par_map(&reads, |(_, r)| {
        probes
            .iter()
            .map(|p| p.score(r).map_or(f64::MAX, |s| s.cost))
            .collect()
    });
    // The first `viruses.len()` targets are the distinct viruses; strains
    // share their virus's group.
    let group_of = |shard: usize| {
        panel[..viruses.len()]
            .iter()
            .position(|t| t.group == panel[shard].group)
            .unwrap_or(0)
    };
    let thresholds: Vec<f64> = (0..panel.len())
        .map(|shard| {
            let group = group_of(shard);
            let target: Vec<f64> = reads
                .iter()
                .zip(&costs)
                .filter(|((label, _), _)| *label == Some(group))
                .map(|(_, c)| c[shard])
                .collect();
            let other: Vec<f64> = reads
                .iter()
                .zip(&costs)
                .filter(|((label, _), _)| label.is_none())
                .map(|(_, c)| c[shard])
                .collect();
            calibrate_threshold(&target, &other)
                .points
                .into_iter()
                .filter(|p| p.false_positive_rate <= SHARD_FPR_CAP)
                .max_by(|a, b| {
                    a.true_positive_rate
                        .total_cmp(&b.true_positive_rate)
                        .then(b.threshold.total_cmp(&a.threshold))
                })
                .map_or(f64::MIN, |p| p.threshold)
        })
        .collect();
    // The merged verdict accepts when any shard accepts.
    let quality = crate::stats::quality(reads.iter().zip(&costs).map(|((label, _), c)| {
        let kept = c.iter().zip(&thresholds).any(|(cost, t)| cost <= t);
        (label.is_some(), kept)
    }));
    let catalog = ShardedClassifier::new(panel.iter().zip(&references).zip(&thresholds).map(
        |((target, reference), &threshold)| {
            (
                target.name.clone(),
                SquiggleFilter::new(reference, filter_config().with_threshold(threshold)),
            )
        },
    ));
    Calibrated {
        catalog: Catalog::Panel(catalog),
        thresholds,
        separation: quality.tpr - quality.fpr,
    }
}

/// Read signal: the k-mer model's own level noise, without the extra
/// noise, gain, offset, drift and spikes of the default preset. Under the
/// default preset the frozen-window filter does not discriminate (best
/// calibration tpr − fpr ≤ 0.34 at 2 kb and 4 kb), and a number measured on
/// a classifier that does not classify means nothing.
fn signal() -> SquiggleSimulatorConfig {
    SquiggleSimulatorConfig::noiseless()
}

/// Trace synthesis parameters; each read carries `prefixes` decision
/// prefixes of signal. Replayed reads carry three: a read that ended at its
/// verdict would miss every eject window by construction.
fn trace_config(target: &Sequence, background: &Sequence, prefixes: usize) -> TraceConfig {
    TraceConfig {
        target_genome: target.clone(),
        background_genome: background.clone(),
        signal: signal(),
        model_seed: MODEL_SEED,
        chunk_samples: CHUNK_SAMPLES,
        max_decision_samples: prefixes * decision_samples(),
    }
}

/// Seconds of start-up to discard: one mean read duration plus one mean
/// capture gap. Every channel captures its first read within about a
/// second of the start, so earlier captures arrive as one burst.
pub fn warmup_s(config: &FlowCellConfig) -> f64 {
    (config.mean_read_length / config.bases_per_second + config.mean_capture_time_s).ceil()
}

/// Synthesizes the run's trace: `spec.channels` channels split evenly over
/// the target genomes (one flow-cell segment per virus for a panel), with
/// the captures of `window_s` seconds after the warm-up kept.
fn synthesize(
    spec: &Spec,
    seed: u64,
    targets: &[Sequence],
    background: &Sequence,
    window_s: f64,
) -> ArrivalTrace {
    let channels = spec.channels / targets.len();
    let parts: Vec<ArrivalTrace> = thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(i, genome)| {
                scope.spawn(move || {
                    let mut config = FlowCellConfig {
                        channels,
                        target_fraction: TARGET_FRACTION,
                        ..FlowCellConfig::default()
                    };
                    let warmup = warmup_s(&config);
                    config.duration_s = warmup + window_s;
                    let segment_seed = seed.wrapping_mul(16).wrapping_add(i as u64);
                    let trace = FlowCellSimulator::new(config, segment_seed)
                        .arrival_trace(&trace_config(genome, background, 3));
                    trim_warmup(trace, warmup, window_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace synthesis thread panicked"))
            .collect()
    });
    merge(parts, channels)
}

/// Keeps the reads captured in `[warmup_s, warmup_s + window_s)` and
/// re-bases their capture and chunk times to the end of the warm-up.
pub fn trim_warmup(trace: ArrivalTrace, warmup_s: f64, window_s: f64) -> ArrivalTrace {
    let keep = |read: &TraceRead| read.start_s >= warmup_s && read.start_s < warmup_s + window_s;
    let mut index = vec![None; trace.reads.len()];
    let mut reads = Vec::new();
    for (i, mut read) in trace.reads.into_iter().enumerate() {
        if keep(&read) {
            index[i] = Some(reads.len());
            read.start_s -= warmup_s;
            reads.push(read);
        }
    }
    let chunks = trace
        .chunks
        .into_iter()
        .filter_map(|chunk| {
            index[chunk.read].map(|read| TraceChunk {
                read,
                time_s: chunk.time_s - warmup_s,
                ..chunk
            })
        })
        .collect();
    ArrivalTrace {
        reads,
        chunks,
        sample_rate_hz: trace.sample_rate_hz,
    }
}

/// Merges flow-cell segments of `channels` channels each into one trace.
fn merge(parts: Vec<ArrivalTrace>, channels: usize) -> ArrivalTrace {
    let sample_rate_hz = parts.first().map_or(4_000.0, |p| p.sample_rate_hz);
    let mut reads = Vec::new();
    let mut chunks = Vec::new();
    for (segment, part) in parts.into_iter().enumerate() {
        let offset = reads.len();
        chunks.extend(part.chunks.into_iter().map(|c| TraceChunk {
            read: c.read + offset,
            ..c
        }));
        reads.extend(part.reads.into_iter().map(|r| TraceRead {
            channel: r.channel + segment * channels,
            ..r
        }));
    }
    chunks.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.read.cmp(&b.read)));
    ArrivalTrace {
        reads,
        chunks,
        sample_rate_hz,
    }
}

/// Per read, its chunks' end offsets and due times in delivery order.
fn chunk_index(trace: &ArrivalTrace) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
    let mut ends = vec![Vec::new(); trace.reads.len()];
    let mut due = vec![Vec::new(); trace.reads.len()];
    for chunk in &trace.chunks {
        ends[chunk.read].push(chunk.end);
        due[chunk.read].push(chunk.time_s);
    }
    (ends, due)
}

/// The sequential reference outcome of every read: its chunks pushed one by
/// one until the decision is final, then finalized.
fn oracle(
    classifier: &(dyn ReadClassifier + Sync),
    trace: &ArrivalTrace,
) -> Vec<StreamClassification> {
    par_map(&trace.reads, |read| {
        let mut session = classifier.start_read();
        for chunk in read.squiggle.samples()[..read.available_samples()].chunks(CHUNK_SAMPLES) {
            if session.push_chunk(chunk).is_final() {
                break;
            }
        }
        session.finalize()
    })
}

/// Maps `f` over `items` on every available core, preserving order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let per = items.len().div_ceil(workers).max(1);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(per)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("set-up worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(start_s: f64, samples: usize) -> TraceRead {
        TraceRead {
            channel: 0,
            start_s,
            is_target: false,
            squiggle: RawSquiggle::new(vec![500; samples], 4_000.0),
            read_samples: samples,
            read_bases: samples / 9,
        }
    }

    fn chunks_of(read: usize, r: &TraceRead) -> Vec<TraceChunk> {
        (0..r.read_samples)
            .step_by(CHUNK_SAMPLES)
            .map(|start| {
                let end = (start + CHUNK_SAMPLES).min(r.read_samples);
                TraceChunk {
                    time_s: r.start_s + end as f64 / 4_000.0,
                    read,
                    start,
                    end,
                    last: end == r.read_samples,
                }
            })
            .collect()
    }

    #[test]
    fn trim_keeps_the_window_and_rebases_it() {
        // Captures in the burst (0.4 s, 3 s), inside the window (20.5 s,
        // 25 s) and after it (31 s), with a 19 s warm-up and 10 s window.
        let reads: Vec<TraceRead> = [0.4, 3.0, 20.5, 25.0, 31.0]
            .into_iter()
            .map(|t| read(t, 1_000))
            .collect();
        let mut chunks: Vec<TraceChunk> = reads
            .iter()
            .enumerate()
            .flat_map(|(i, r)| chunks_of(i, r))
            .collect();
        chunks.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        let trace = ArrivalTrace {
            reads,
            chunks,
            sample_rate_hz: 4_000.0,
        };
        let trimmed = trim_warmup(trace, 19.0, 10.0);
        assert_eq!(trimmed.reads.len(), 2);
        assert!((trimmed.reads[0].start_s - 1.5).abs() < 1e-9);
        assert!((trimmed.reads[1].start_s - 6.0).abs() < 1e-9);
        // Three chunks per read survive, re-indexed and re-based.
        assert_eq!(trimmed.chunks.len(), 6);
        assert!(trimmed.chunks.iter().all(|c| c.read < 2));
        assert!((trimmed.chunks[0].time_s - (1.5 + 0.1)).abs() < 1e-9);
        for c in &trimmed.chunks {
            let r = &trimmed.reads[c.read];
            assert!((c.time_s - (r.start_s + c.end as f64 / 4_000.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn warmup_covers_one_mean_read() {
        let config = FlowCellConfig::default();
        let read_s = config.mean_read_length / config.bases_per_second;
        assert!(warmup_s(&config) >= read_s);
        assert_eq!(warmup_s(&config), 19.0);
    }

    #[test]
    fn merge_offsets_reads_and_sorts_chunks() {
        let a = read(1.0, 800);
        let b = read(0.5, 800);
        let part = |r: TraceRead| ArrivalTrace {
            chunks: chunks_of(0, &r),
            reads: vec![r],
            sample_rate_hz: 4_000.0,
        };
        let merged = merge(vec![part(a), part(b)], 8);
        assert_eq!(merged.reads.len(), 2);
        assert_eq!(merged.reads[1].channel, 8);
        assert_eq!(merged.chunks[0].read, 1);
        assert!(merged.chunks.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }
}
