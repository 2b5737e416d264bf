//! Batch-classification worker sweep (Figure 21 companion): throughput of
//! `SessionScheduler::classify_batch` — whole reads in hand, one arrival per
//! read — at 1, 2, 4 and 8 worker threads over a simulated labelled dataset,
//! written to `BENCH_batch.json` for CI trend tracking (field-by-field
//! reference: `docs/benchmarks.md`).
//!
//! The classifier is the paper's multi-stage design (§4.6) on rolling
//! normalization: a permissive stage-0 test at 1000 samples ejects
//! obviously-non-target reads as soon as the 1000-sample calibration window
//! fills, and stage 1 re-examines survivors at the full 2000-sample prefix
//! with parameters re-estimated every 500 samples. Stage-0 rejects land at
//! 1000 samples — half the prefix — which is what moves the per-verdict
//! samples-to-decision distribution. A frozen-full-window single-stage
//! baseline is scored alongside to keep the accuracy cost of the shorter
//! window visible (see docs/benchmarks.md).
//!
//! Usage: `cargo run --release -p sf-bench --bin batch_scaling [--quick] [--out PATH]`
//!
//! `--quick` shrinks the dataset so the sweep finishes in seconds (used by the
//! CI bench-smoke job); the default size is meant for real measurements.

use sf_bench::{print_header, score_dataset};
use sf_hw::perf::AcceleratorModel;
use sf_metrics::ConfusionMatrix;
use sf_pore_model::{KmerModel, ReferenceSquiggle};
use sf_sched::{MicroBatchConfig, SessionScheduler};
use sf_sdtw::{
    calibrate_threshold, FilterConfig, KernelBackend, ReadClassifier, SquiggleFilter,
    StreamClassification,
};
use sf_shard::{pan_viral_panel, panel_classifier, PanelConfig};
use sf_sim::flowcell::{FlowCellConfig, FlowCellSimulator, RatePolicy};
use sf_sim::read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig};
use sf_sim::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
use sf_sim::{Dataset, DatasetBuilder};
use sf_squiggle::{NormalizerConfig, RawSquiggle};
use sf_telemetry::{HistogramSnapshot, Snapshot};
use std::fmt::Write as _;
use std::time::Instant;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The raw samples of each read: the whole-read arrivals `classify_batch`
/// takes.
fn samples(squiggles: &[RawSquiggle]) -> impl Iterator<Item = &[u16]> {
    squiggles.iter().map(RawSquiggle::samples)
}

struct SweepPoint {
    threads: usize,
    seconds: f64,
    reads_per_s: f64,
    speedup: f64,
    confusion: ConfusionMatrix,
    /// DP cells evaluated during the timed pass (0 with telemetry disabled).
    dp_cells: u64,
    /// `dp_cells / seconds` (0 with telemetry disabled).
    cells_per_s: f64,
}

/// One single-thread timed pass with the row-update backend pinned.
struct BackendPoint {
    backend: &'static str,
    seconds: f64,
    reads_per_s: f64,
    /// DP cells evaluated during the timed pass (0 with telemetry disabled).
    dp_cells: u64,
    /// `dp_cells / seconds` (0 with telemetry disabled).
    cells_per_s: f64,
}

/// One timed pass of a sharded catalog over the panel read set.
struct ShardPoint {
    shards: usize,
    seconds: f64,
    reads_per_s: f64,
    /// DP cells evaluated during the timed pass (0 with telemetry disabled).
    dp_cells: u64,
    cells_per_s: f64,
}

/// The `sharding` section: a pan-viral panel (4 catalog viruses + 5 Table 2
/// strains of the first) classified by sharded catalogs of growing width.
struct ShardingSection {
    targets: usize,
    genome_bp: usize,
    reads: usize,
    sweep: Vec<ShardPoint>,
}

/// Runs the sharded-catalog sweep. Thresholds are pinned at `f64::MAX` so
/// every read pays the full prefix against every shard — that makes
/// `dp_cells` scale exactly with catalog width (verdict-level accuracy of
/// the sharded path is pinned by `tests/panel_accuracy.rs`, not re-measured
/// here).
fn run_sharding(model: &KmerModel, quick: bool) -> ShardingSection {
    let panel_config = PanelConfig {
        genome_length: if quick { 1_000 } else { 2_000 },
        ..PanelConfig::default()
    };
    let panel = pan_viral_panel(&panel_config);
    let reads_per_target = if quick { 2 } else { 6 };
    let background_reads = if quick { 8 } else { 24 };

    let read_config = ReadSimulatorConfig {
        mean_length: 900.0,
        length_sigma: 0.3,
        min_length: 500,
        max_length: panel_config.genome_length,
    };
    let mut squiggler =
        SquiggleSimulator::new(model.clone(), SquiggleSimulatorConfig::default(), 99);
    let mut reads: Vec<RawSquiggle> = Vec::new();
    for (i, target) in panel.iter().enumerate() {
        let mut sim = ReadSimulator::new(
            &target.genome,
            ReadOrigin::Target,
            read_config,
            300 + i as u64,
        );
        for read in sim.simulate(reads_per_target) {
            reads.push(squiggler.synthesize_read(&read));
        }
    }
    let bg_genome = sf_genome::random::human_like_background(901, 100_000);
    let mut bg_sim = ReadSimulator::new(&bg_genome, ReadOrigin::Background, read_config, 902);
    for read in bg_sim.simulate(background_reads) {
        reads.push(squiggler.synthesize_read(&read));
    }

    let filter_config = FilterConfig::hardware(f64::MAX);
    let mut sweep = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let catalog = panel_classifier(model, &panel[..shards], filter_config);
        let tel_before = sf_telemetry::snapshot();
        let start = Instant::now();
        for read in &reads {
            let _ = catalog.classify_stream(read);
        }
        let seconds = start.elapsed().as_secs_f64();
        let dp_cells =
            sf_telemetry::snapshot().counter_delta(&tel_before, sf_sdtw::telemetry::SDTW_DP_CELLS);
        sweep.push(ShardPoint {
            shards,
            seconds,
            reads_per_s: reads.len() as f64 / seconds,
            dp_cells,
            cells_per_s: dp_cells as f64 / seconds,
        });
    }

    ShardingSection {
        targets: panel.len(),
        genome_bp: panel_config.genome_length,
        reads: reads.len(),
        sweep,
    }
}

/// Samples-to-decision summary for one verdict class.
struct DecisionSummary {
    count: usize,
    p50: usize,
    p95: usize,
    mean: f64,
}

fn summarize(mut samples: Vec<usize>) -> DecisionSummary {
    if samples.is_empty() {
        return DecisionSummary {
            count: 0,
            p50: 0,
            p95: 0,
            mean: 0.0,
        };
    }
    samples.sort_unstable();
    let percentile = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    DecisionSummary {
        count: samples.len(),
        p50: percentile(0.50),
        p95: percentile(0.95),
        mean: samples.iter().sum::<usize>() as f64 / samples.len() as f64,
    }
}

/// Per-verdict samples-to-decision distribution of one classified batch —
/// the early-exit gains the streaming sessions deliver.
struct DecisionStats {
    accept: DecisionSummary,
    reject: DecisionSummary,
    early_fraction: f64,
}

fn decision_stats(classifications: &[StreamClassification]) -> DecisionStats {
    let (mut accepts, mut rejects) = (Vec::new(), Vec::new());
    let mut early = 0usize;
    for c in classifications {
        if c.verdict.is_accept() {
            accepts.push(c.samples_consumed);
        } else {
            rejects.push(c.samples_consumed);
        }
        early += usize::from(c.decided_early);
    }
    DecisionStats {
        accept: summarize(accepts),
        reject: summarize(rejects),
        early_fraction: if classifications.is_empty() {
            0.0
        } else {
            early as f64 / classifications.len() as f64
        },
    }
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_batch.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out requires a path");
                    eprintln!("usage: batch_scaling [--quick] [--out PATH]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: batch_scaling [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    print_header(
        "Batch scaling",
        "SessionScheduler::classify_batch throughput vs worker threads",
    );
    let (genome_len, reads_per_class) = if quick { (3_000, 24) } else { (8_000, 100) };
    let genome = sf_genome::random::random_genome(41, genome_len);
    let dataset = DatasetBuilder::new("batch-sweep", genome, 41)
        .target_reads(reads_per_class)
        .background_reads(reads_per_class)
        .background_length(150_000)
        .build();
    let model = KmerModel::synthetic_r94(0);

    // Rolling normalization: a 1000-sample calibration window (equal to the
    // stage-0 prefix, so stage-0 decisions become available the moment the
    // window fills) re-estimated every 500 samples. The ASIC's own schedule
    // is window == interval == 2000; shortening both is what buys ejection
    // latency, at an accuracy cost the frozen baseline below keeps honest.
    let normalizer = NormalizerConfig::default()
        .with_calibration_window(1_000)
        .with_recalibration_interval(500);

    // Stage thresholds are TPR-anchored (losing target reads is the
    // permanent failure mode for Read Until), each calibrated in its own
    // cost domain: single-stage scoring at the stage's prefix under the
    // identical rolling normalizer reproduces exactly the costs the staged
    // filter sees at that boundary.
    let stage_threshold = |prefix: usize, min_tpr: f64| {
        let stage_config = FilterConfig {
            normalizer,
            ..FilterConfig::hardware(f64::MAX)
        }
        .with_prefix_samples(prefix);
        let (target_costs, background_costs) = score_dataset(&dataset, stage_config, 0);
        calibrate_threshold(&target_costs, &background_costs)
            .threshold_for_tpr(min_tpr)
            .map_or(f64::MAX, |p| p.threshold)
    };
    let staged_config = FilterConfig {
        normalizer,
        ..FilterConfig::two_stage(stage_threshold(1_000, 0.95), stage_threshold(2_000, 0.90))
            .with_prefix_samples(2_000)
    };
    let stages = staged_config.stages();
    let reference = ReferenceSquiggle::from_genome(&model, &dataset.target_genome);
    let filter = SquiggleFilter::new(&reference, staged_config);

    // Frozen-full-window single-stage baseline (the pre-rolling behaviour):
    // same dataset, default normalizer, best-F1 threshold. Costs only a
    // scoring pass; the delta quantifies what the staged rolling
    // configuration trades for its latency.
    let (frozen_t, frozen_b) = score_dataset(&dataset, FilterConfig::hardware(f64::MAX), 0);
    let frozen_point = calibrate_threshold(&frozen_t, &frozen_b).best_f1();

    let squiggles: Vec<RawSquiggle> = dataset.reads.iter().map(|r| r.squiggle.clone()).collect();
    let labels: Vec<bool> = dataset.reads.iter().map(|r| r.is_target()).collect();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "dataset: {} reads, genome {} bp, stages {}, machine parallelism {}",
        squiggles.len(),
        dataset.target_genome.len(),
        stages
            .iter()
            .map(|s| format!("{}@{:.0}", s.prefix_samples, s.threshold))
            .collect::<Vec<_>>()
            .join(" -> "),
        parallelism
    );
    println!();
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>10}",
        "threads", "seconds", "reads/s", "speedup", "accuracy"
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    let mut stats: Option<DecisionStats> = None;
    for &threads in &THREAD_SWEEP {
        let scheduler = SessionScheduler::new(MicroBatchConfig::default().with_workers(threads));
        // Warm-up pass (first touch of the reference is not what we measure),
        // then the timed pass. Runs in quick mode too: the threads=1 point is
        // measured first and would otherwise absorb cold-start costs, biasing
        // every later speedup_vs_1t upward.
        let _ = scheduler.classify_batch(&filter, samples(&squiggles[..squiggles.len().min(8)]));
        let tel_before = sf_telemetry::snapshot();
        let start = Instant::now();
        let classifications = scheduler.classify_batch(&filter, samples(&squiggles));
        let seconds = start.elapsed().as_secs_f64();
        let mut confusion = ConfusionMatrix::new();
        for (c, &label) in classifications.iter().zip(&labels) {
            confusion.record(label, c.verdict.is_accept());
        }
        let dp_cells =
            sf_telemetry::snapshot().counter_delta(&tel_before, sf_sdtw::telemetry::SDTW_DP_CELLS);
        let reads_per_s = squiggles.len() as f64 / seconds;
        let speedup = points
            .first()
            .map_or(1.0, |base| reads_per_s / base.reads_per_s);
        println!(
            "{:>8} {:>12.3} {:>14.2} {:>9.2}x {:>9.1}%",
            threads,
            seconds,
            reads_per_s,
            speedup,
            confusion.accuracy() * 100.0
        );
        points.push(SweepPoint {
            threads,
            seconds,
            reads_per_s,
            speedup,
            confusion,
            dp_cells,
            cells_per_s: dp_cells as f64 / seconds,
        });
        // Decisions are identical across thread counts; record once.
        if stats.is_none() {
            stats = Some(decision_stats(&classifications));
        }
    }

    let stats = stats.expect("at least one sweep point ran");
    let prefix_samples = staged_config.prefix_samples;
    println!();
    println!(
        "samples-to-decision: accept p50 {} / p95 {} ({} reads), reject p50 {} / p95 {} \
         ({} reads), {:.0}% decided early (prefix {})",
        stats.accept.p50,
        stats.accept.p95,
        stats.accept.count,
        stats.reject.p50,
        stats.reject.p95,
        stats.reject.count,
        stats.early_fraction * 100.0,
        prefix_samples,
    );
    if let (Some(point), Some(frozen)) = (points.first(), &frozen_point) {
        println!(
            "normalization: staged rolling (window {}/interval {}) tpr {:.2} fpr {:.2} vs \
             frozen single-stage window {} tpr {:.2} fpr {:.2}",
            normalizer.calibration_window,
            normalizer.recalibration_interval,
            point.confusion.true_positive_rate(),
            point.confusion.false_positive_rate(),
            NormalizerConfig::default().calibration_window,
            frozen.true_positive_rate,
            frozen.false_positive_rate,
        );
    }

    // Scalar-vs-vector single-thread comparison: the same staged filter with
    // the row-update backend pinned each way. The sweep above runs the
    // default Vector backend (the AVX2 row body when reference deletions are
    // off and the CPU has AVX2), so this pass is what isolates the kernel's
    // speedup and feeds the per-backend `cells_per_s` CI trend.
    let mut backend_points: Vec<BackendPoint> = Vec::new();
    for (name, backend) in [
        ("scalar", KernelBackend::Scalar),
        ("vector", KernelBackend::Vector),
    ] {
        let mut config = staged_config;
        config.sdtw = config.sdtw.with_backend(backend);
        let backend_filter = SquiggleFilter::new(&reference, config);
        let scheduler = SessionScheduler::new(MicroBatchConfig::default());
        let _ = scheduler.classify_batch(
            &backend_filter,
            samples(&squiggles[..squiggles.len().min(8)]),
        );
        let tel_before = sf_telemetry::snapshot();
        let start = Instant::now();
        let _ = scheduler.classify_batch(&backend_filter, samples(&squiggles));
        let seconds = start.elapsed().as_secs_f64();
        let dp_cells =
            sf_telemetry::snapshot().counter_delta(&tel_before, sf_sdtw::telemetry::SDTW_DP_CELLS);
        backend_points.push(BackendPoint {
            backend: name,
            seconds,
            reads_per_s: squiggles.len() as f64 / seconds,
            dp_cells,
            cells_per_s: dp_cells as f64 / seconds,
        });
    }
    println!();
    for p in &backend_points {
        println!(
            "backend {:>6}: {:>8.3} s, {:>10.2} reads/s, {:.3e} cells/s (1 thread)",
            p.backend, p.seconds, p.reads_per_s, p.cells_per_s
        );
    }
    if let [scalar, vector] = backend_points.as_slice() {
        let cells_ratio = if scalar.dp_cells > 0 {
            format!(", {:.2}x cells/s", vector.cells_per_s / scalar.cells_per_s)
        } else {
            String::new()
        };
        println!(
            "vector speedup vs scalar: {:.2}x reads/s{cells_ratio} (1 thread)",
            vector.reads_per_s / scalar.reads_per_s,
        );
    }

    // The sharded pan-viral catalog sweep: reads/s and DP cells as the
    // catalog widens.
    let sharding = run_sharding(&model, quick);
    println!();
    println!(
        "sharding: {}-target panel ({} bp refs), {} reads",
        sharding.targets, sharding.genome_bp, sharding.reads
    );
    for p in &sharding.sweep {
        println!(
            "  {:>2} shards: {:>8.3} s, {:>10.2} reads/s, {} dp cells",
            p.shards, p.seconds, p.reads_per_s, p.dp_cells
        );
    }

    // A small oracle-policy flow-cell run so the `flowcell.*` counters in the
    // telemetry section reflect a live simulation, closing the kernel-to-flow-
    // cell loop this bench reports on.
    let flowcell_config = FlowCellConfig {
        channels: 16,
        duration_s: 600.0,
        target_fraction: 0.05,
        ..Default::default()
    };
    let _ = FlowCellSimulator::new(flowcell_config, 7).run(Some(&RatePolicy::oracle(2_000)), 60.0);

    // Software vs modeled-ASIC throughput: the systolic array evaluates one
    // full reference row (reference_samples cells) per cycle, so its cell
    // rate is sample throughput × reference length at the paper's SARS-CoV-2
    // design point.
    let telemetry = sf_telemetry::snapshot();
    let asic = AcceleratorModel::default().sars_cov_2_design_point();
    let asic_cells_per_s = asic.total_throughput_samples_per_s * asic.reference_samples as f64;
    let software_cells_per_s = points.iter().map(|p| p.cells_per_s).fold(0.0f64, f64::max);
    if telemetry.enabled {
        println!();
        println!(
            "hardware model: software {:.3e} cells/s vs ASIC {:.3e} cells/s \
             ({} tiles) -> ratio {:.2e}",
            software_cells_per_s,
            asic_cells_per_s,
            asic.tiles,
            software_cells_per_s / asic_cells_per_s,
        );
        println!();
        println!("{}", telemetry.to_table());
    }

    let json = render_json(
        &dataset,
        &staged_config,
        parallelism,
        quick,
        &points,
        &backend_points,
        &sharding,
        &stats,
        frozen_point.as_ref(),
        &telemetry,
    );
    std::fs::write(&out_path, json).expect("write BENCH_batch.json");
    println!();
    println!("wrote {out_path}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    dataset: &Dataset,
    config: &FilterConfig,
    parallelism: usize,
    quick: bool,
    points: &[SweepPoint],
    backend_points: &[BackendPoint],
    sharding: &ShardingSection,
    stats: &DecisionStats,
    frozen_point: Option<&sf_sdtw::OperatingPoint>,
    telemetry: &Snapshot,
) -> String {
    let stages = config.stages();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"batch_scaling\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"dataset\": {{");
    let _ = writeln!(json, "    \"name\": \"{}\",", dataset.name);
    let _ = writeln!(json, "    \"reads\": {},", dataset.reads.len());
    let _ = writeln!(json, "    \"genome_bp\": {}", dataset.target_genome.len());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"config\": {{");
    let _ = writeln!(json, "    \"prefix_samples\": {},", config.prefix_samples);
    let _ = writeln!(json, "    \"stages\": [");
    for (i, stage) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{ \"prefix_samples\": {}, \"threshold\": {:.3} }}{comma}",
            stage.prefix_samples, stage.threshold
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"calibration_window\": {},",
        config.normalizer.calibration_window
    );
    let _ = writeln!(
        json,
        "    \"recalibration_interval\": {}",
        config.normalizer.recalibration_interval
    );
    let _ = writeln!(json, "  }},");
    if let Some(frozen) = frozen_point {
        let _ = writeln!(json, "  \"frozen_window_baseline\": {{");
        let _ = writeln!(json, "    \"threshold\": {:.3},", frozen.threshold);
        let _ = writeln!(json, "    \"tpr\": {:.4},", frozen.true_positive_rate);
        let _ = writeln!(json, "    \"fpr\": {:.4},", frozen.false_positive_rate);
        let _ = writeln!(json, "    \"f1\": {:.4}", frozen.f1);
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(
        json,
        "  \"machine\": {{ \"available_parallelism\": {parallelism} }},"
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"threads\": {}, \"seconds\": {:.6}, \"reads_per_s\": {:.3}, \
             \"speedup_vs_1t\": {:.3}, \"accuracy\": {:.4}, \"tpr\": {:.4}, \"fpr\": {:.4}, \
             \"dp_cells\": {}, \"cells_per_s\": {:.0} }}{comma}",
            p.threads,
            p.seconds,
            p.reads_per_s,
            p.speedup,
            p.confusion.accuracy(),
            p.confusion.true_positive_rate(),
            p.confusion.false_positive_rate(),
            p.dp_cells,
            p.cells_per_s,
        );
    }
    let _ = writeln!(json, "  ],");
    // Per-backend single-thread points: the scalar oracle vs the AVX2 row
    // update, same dataset and staged config as the sweep.
    let scalar_reads_per_s = backend_points
        .iter()
        .find(|p| p.backend == "scalar")
        .map_or(0.0, |p| p.reads_per_s);
    let _ = writeln!(json, "  \"backends\": [");
    for (i, p) in backend_points.iter().enumerate() {
        let comma = if i + 1 < backend_points.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{ \"backend\": \"{}\", \"threads\": 1, \"seconds\": {:.6}, \
             \"reads_per_s\": {:.3}, \"dp_cells\": {}, \"cells_per_s\": {:.0}, \
             \"speedup_vs_scalar\": {:.3} }}{comma}",
            p.backend,
            p.seconds,
            p.reads_per_s,
            p.dp_cells,
            p.cells_per_s,
            if scalar_reads_per_s > 0.0 {
                p.reads_per_s / scalar_reads_per_s
            } else {
                0.0
            },
        );
    }
    let _ = writeln!(json, "  ],");
    // The sharded pan-viral catalog sweep (docs/benchmarks.md, "Reference
    // sharding"). The telemetry-derived dp_cells/cells_per_s are 0 with
    // telemetry compiled out.
    let _ = writeln!(json, "  \"sharding\": {{");
    let _ = writeln!(json, "    \"targets\": {},", sharding.targets);
    let _ = writeln!(json, "    \"genome_bp\": {},", sharding.genome_bp);
    let _ = writeln!(json, "    \"reads\": {},", sharding.reads);
    let _ = writeln!(json, "    \"sweep\": [");
    for (i, p) in sharding.sweep.iter().enumerate() {
        let comma = if i + 1 < sharding.sweep.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "      {{ \"shards\": {}, \"seconds\": {:.6}, \"reads_per_s\": {:.3}, \
             \"dp_cells\": {}, \"cells_per_s\": {:.0} }}{comma}",
            p.shards, p.seconds, p.reads_per_s, p.dp_cells, p.cells_per_s,
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    render_telemetry(&mut json, telemetry, points);
    let _ = writeln!(json, "  \"samples_to_decision\": {{");
    for (name, summary, comma) in [
        ("accept", &stats.accept, ","),
        ("reject", &stats.reject, ","),
    ] {
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"mean\": {:.1} }}{comma}",
            summary.count, summary.p50, summary.p95, summary.mean
        );
    }
    let _ = writeln!(
        json,
        "    \"early_decided_fraction\": {:.4}",
        stats.early_fraction
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    json
}

/// Writes one `{ "count": .., "p50": .., "p95": .., "p99": .., "max": .. }`
/// latency summary (zeros when the histogram is absent or empty).
fn write_latency(json: &mut String, key: &str, hist: Option<&HistogramSnapshot>, comma: &str) {
    let (count, p50, p95, p99, max) = match hist {
        Some(h) if h.count > 0 => (
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max,
        ),
        _ => (0, 0, 0, 0, 0),
    };
    let _ = writeln!(
        json,
        "    \"{key}\": {{ \"count\": {count}, \"p50\": {p50}, \"p95\": {p95}, \
         \"p99\": {p99}, \"max\": {max} }}{comma}"
    );
}

/// The BENCH telemetry section (`docs/benchmarks.md`): per-stage time split,
/// chunk-latency quantiles, DP cell totals, event counters and the
/// software-vs-modeled-ASIC throughput ratio. With telemetry compiled out the
/// section collapses to `{ "enabled": false }` so schema checks can assert
/// the build mode.
fn render_telemetry(json: &mut String, snap: &Snapshot, points: &[SweepPoint]) {
    let _ = writeln!(json, "  \"telemetry\": {{");
    if !snap.enabled {
        let _ = writeln!(json, "    \"enabled\": false");
        let _ = writeln!(json, "  }},");
        return;
    }
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let _ = writeln!(json, "    \"enabled\": true,");
    let _ = writeln!(
        json,
        "    \"stage_ns\": {{ \"normalize\": {}, \"dp\": {}, \"decision\": {} }},",
        counter(sf_squiggle::telemetry::NORMALIZE_ESTIMATE_NS),
        counter(sf_sdtw::telemetry::SDTW_STAGE_DP_NS),
        counter(sf_sdtw::telemetry::SDTW_STAGE_DECISION_NS),
    );
    write_latency(
        json,
        "chunk_latency_ns",
        snap.histogram(sf_sdtw::telemetry::SDTW_CHUNK_PUSH_NS),
        ",",
    );
    // Peak sweep-point rate: the best sustained software throughput measured
    // in this run (each point's dp_cells delta over its timed pass).
    let software_cells_per_s = points.iter().map(|p| p.cells_per_s).fold(0.0f64, f64::max);
    let _ = writeln!(
        json,
        "    \"dp\": {{ \"cells\": {}, \"rows\": {}, \"software_cells_per_s\": {:.0} }},",
        counter(sf_sdtw::telemetry::SDTW_DP_CELLS),
        counter(sf_sdtw::telemetry::SDTW_DP_ROWS),
        software_cells_per_s,
    );
    let _ = writeln!(
        json,
        "    \"counts\": {{ \"early_rejects\": {}, \"stage_escalations\": {}, \
         \"calibrations\": {}, \"recalibrations\": {}, \"flowcell_ejects\": {}, \
         \"missed_eject_windows\": {} }},",
        counter(sf_sdtw::telemetry::SDTW_EARLY_REJECTS),
        counter(sf_sdtw::telemetry::SDTW_STAGE_ESCALATIONS),
        counter(sf_squiggle::telemetry::NORMALIZE_CALIBRATIONS),
        counter(sf_squiggle::telemetry::NORMALIZE_RECALIBRATIONS),
        counter(sf_sim::telemetry::FLOWCELL_EJECTS),
        counter(sf_sim::telemetry::FLOWCELL_MISSED_EJECT_WINDOWS),
    );
    let asic = AcceleratorModel::default().sars_cov_2_design_point();
    let asic_cells_per_s = asic.total_throughput_samples_per_s * asic.reference_samples as f64;
    let _ = writeln!(
        json,
        "    \"hardware_model\": {{ \"tiles\": {}, \"asic_cells_per_s\": {:.0}, \
         \"software_vs_asic_ratio\": {:.3e} }}",
        asic.tiles,
        asic_cells_per_s,
        software_cells_per_s / asic_cells_per_s,
    );
    let _ = writeln!(json, "  }},");
}
