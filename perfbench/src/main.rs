//! Paced flow-cell benchmark for the SquiggleFilter workspace.
//!
//! ```text
//! sf-perfbench --workload <paced-single|saturate-single|saturate-panel>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (reference build, calibration on held-out reads, trace synthesis
//! and the sequential oracle) happens before the clock starts.
//! `paced-single` then plays a simulated flow cell's chunks into
//! `SessionScheduler::run` at wall-clock pace; the `saturate-*` workloads
//! replay a trace through `run_service` unpaced. Every outcome is
//! checked against the oracle. With `--trace 0` the last stdout line is a
//! JSON object with the end-to-end metrics; with `--trace 1` a timed replay
//! (every classifier call wrapped) gives the per-crate ledger, and an
//! untimed replay of the same inputs gives the tracing overhead.

mod capacity;
mod paced;
mod probe;
mod setup;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::Mutex;

use sf_sdtw::{ReadClassifier, StreamClassification};
use sf_shard::ShardedClassifier;
use sf_telemetry::Snapshot;

use probe::{Ledger, LedgerTotals, Probe, Record, Role};
use setup::Setup;
use stats::{percentile, ratio, PoreTime, Quality};
use workload::{Catalog, Drive, Spec};

const USAGE: &str = "usage: sf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// A paced run is invalid when the generator sends this late (p95).
const MAX_GENERATOR_LAG_MS: f64 = 10.0;
/// The ledger must account for the kernel sessions' time within this share.
const LEDGER_TOLERANCE_PCT: f64 = 5.0;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sf-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sf-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one replay produced, in the form every report is computed from.
struct Evaluation {
    attempted: usize,
    /// Reads never resolved, or (paced) rejected after their last chunk
    /// was sent.
    failed: usize,
    /// Reads never resolved. Each one also fails the output check.
    unresolved: usize,
    /// Rejects that landed after the read's last chunk was sent.
    missed_windows: usize,
    /// Outcomes that differ from the oracle, duplicates and unattributable
    /// sessions.
    mismatches: usize,
    /// One group per replay pass: a paced run is one pass over all its
    /// decisions, a capacity run several. Timing metrics are medians over
    /// the passes.
    passes: Vec<Pass>,
    pore: Vec<PoreTime>,
    quality: Quality,
    reject_samples: Vec<f64>,
}

/// The timings of one replay pass.
#[derive(Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    wall_s: f64,
}

/// Median over passes of a per-pass statistic.
fn pass_median(passes: &[Pass], stat: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(stat).collect();
    percentile(&values, 0.5)
}

impl Evaluation {
    fn new() -> Self {
        Evaluation {
            attempted: 0,
            failed: 0,
            unresolved: 0,
            missed_windows: 0,
            mismatches: 0,
            passes: Vec::new(),
            pore: Vec::new(),
            quality: Quality::default(),
            reject_samples: Vec::new(),
        }
    }

    /// Reads decided over all passes.
    fn decided(&self) -> usize {
        self.passes.iter().map(|p| p.latencies_ms.len()).sum()
    }

    /// Books one read that never resolved.
    fn unresolved(&mut self) {
        self.unresolved += 1;
        self.failed += 1;
    }

    /// Books one resolved read into the current pass: `rejected_pore_s` is
    /// the pore time it got if rejected (the full read is sequenced when
    /// kept).
    fn resolve(
        &mut self,
        setup: &Setup,
        read: usize,
        outcome: &StreamClassification,
        latency_ms: f64,
        rejected_pore_s: f64,
        labels: &mut Vec<(bool, bool)>,
    ) {
        if *outcome != setup.oracle[read] {
            self.mismatches += 1;
        }
        let trace_read = &setup.trace.reads[read];
        let kept = outcome.verdict.is_accept();
        let full_s = trace_read.read_samples as f64 / setup.trace.sample_rate_hz;
        if let Some(pass) = self.passes.last_mut() {
            pass.latencies_ms.push(latency_ms);
        }
        self.pore.push(PoreTime {
            is_target: trace_read.is_target,
            full_s,
            sequenced_s: if kept {
                full_s
            } else {
                rejected_pore_s.clamp(0.0, full_s)
            },
        });
        labels.push((trace_read.is_target, kept));
        if !kept {
            self.reject_samples.push(outcome.samples_consumed as f64);
        }
    }
}

fn evaluate_paced(setup: &Setup, run: &paced::PacedRun) -> Evaluation {
    let mut eval = Evaluation::new();
    let mut labels = Vec::new();
    // One pass: the percentiles are taken over every decision of the run.
    eval.passes.push(Pass {
        wall_s: run.wall_s,
        ..Pass::default()
    });
    for (read, received) in run.received.iter().enumerate() {
        eval.attempted += 1;
        let Some(r) = received else {
            eval.unresolved();
            continue;
        };
        if !r.outcome.verdict.is_accept() && r.after_last_chunk {
            eval.missed_windows += 1;
            eval.failed += 1;
        }
        let due_s = stats::completing_chunk(&setup.chunk_ends[read], r.outcome.samples_consumed)
            .map_or(0.0, |k| setup.chunk_due[read][k]);
        eval.resolve(
            setup,
            read,
            &r.outcome,
            stats::decision_latency_ms(due_s, r.at_s),
            r.at_s - setup.trace.reads[read].start_s,
            &mut labels,
        );
    }
    eval.mismatches += run.duplicates;
    eval.quality = stats::quality(labels);
    eval
}

fn evaluate_capacity(setup: &Setup, run: &capacity::CapacityRun) -> Evaluation {
    let mut eval = Evaluation::new();
    let mut labels = Vec::new();
    // Unpaced, the service runs a full ingest queue ahead of the scheduler
    // and drains the trace's tail without pacing, so a reject landing after
    // a read's last chunk reflects trace order, not time: missed windows
    // are reported as a layer metric here, and only unresolved reads fail.
    for (replay, report) in run.replays.iter().zip(&run.reports) {
        eval.passes.push(Pass {
            wall_s: report.wall_s,
            ..Pass::default()
        });
        eval.mismatches += replay.unmatched;
        for (read, records) in replay.per_read.iter().enumerate() {
            eval.attempted += 1;
            let Some(record) = records.first() else {
                eval.unresolved();
                continue;
            };
            eval.mismatches += records.len() - 1;
            // Unpaced, a read has no due time: latency is the session's
            // residence in the scheduler, and a rejected read's pore time
            // is its decision prefix (no wall-clock delay applies).
            let residence_ms = record
                .finalized
                .saturating_duration_since(record.opened)
                .as_secs_f64()
                * 1e3;
            let prefix_s = record.outcome.samples_consumed as f64 / setup.trace.sample_rate_hz;
            eval.resolve(
                setup,
                read,
                &record.outcome,
                residence_ms,
                prefix_s,
                &mut labels,
            );
        }
    }
    eval.quality = stats::quality(labels);
    eval
}

/// The end-to-end metrics of an untraced replay.
fn end_to_end(setup: &Setup, eval: &Evaluation) -> Vec<Metric> {
    vec![
        metric("setup_s", setup.setup_s, "s"),
        metric(
            "decision_latency_p50_ms",
            pass_median(&eval.passes, |p| percentile(&p.latencies_ms, 0.5)),
            "ms",
        ),
        metric(
            "decision_latency_p95_ms",
            pass_median(&eval.passes, |p| percentile(&p.latencies_ms, 0.95)),
            "ms",
        ),
        metric("enrichment", stats::enrichment(&eval.pore), "x"),
        metric(
            "capacity_reads_per_s",
            pass_median(&eval.passes, |p| {
                ratio(p.latencies_ms.len() as f64, p.wall_s)
            }),
            "1/s",
        ),
        metric("accuracy", eval.quality.accuracy, "fraction"),
        metric("tpr", eval.quality.tpr, "fraction"),
    ]
}

/// One replay of the workload, with everything the layer metrics need.
enum Replay {
    Paced(paced::PacedRun),
    Capacity(capacity::CapacityRun),
}

impl Replay {
    fn evaluate(&self, setup: &Setup) -> Evaluation {
        match self {
            Replay::Paced(run) => evaluate_paced(setup, run),
            Replay::Capacity(run) => evaluate_capacity(setup, run),
        }
    }

    /// Scheduler-thread CPU seconds per decided read: what tracing inflates.
    fn busy_per_read(&self, eval: &Evaluation) -> f64 {
        let busy = match self {
            Replay::Paced(run) => run.thread.on_cpu_s,
            // Saturated, the scheduler never idles: wall time is busy time.
            Replay::Capacity(run) => run.wall_s,
        };
        ratio(busy, eval.decided() as f64)
    }
}

fn replay<C: ReadClassifier + Sync>(
    spec: &Spec,
    classifier: &C,
    records: &Mutex<Vec<Record>>,
    setup: &Setup,
    seconds: f64,
) -> Replay {
    match spec.drive {
        Drive::Paced => Replay::Paced(paced::run(classifier, &setup.trace)),
        Drive::Saturate { .. } => {
            Replay::Capacity(capacity::run(classifier, records, &setup.trace, seconds))
        }
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let spec = args.spec;
    // A traced run replays twice (timed, then untimed), each for half the
    // measurement time, so every run measures for about `seconds`.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Paced replays keep the captures of all but the delivery tail, so a
    // replay lasts about `seconds`. Capacity passes replay a fixed window
    // while they fit, so the oracle, which covers one pass, keeps the
    // set-up small enough to build three times.
    let window_s = match spec.drive {
        Drive::Paced => (seconds - setup::DELIVERY_TAIL_S).max(1.0),
        Drive::Saturate { window_s } => window_s,
    };
    let setup = setup::build(spec, args.seed, window_s)?;
    eprintln!(
        "sf-perfbench: {} seed {}: {} reads, {} chunks, thresholds {:?}, calibration tpr-fpr {:.3}, setup {:.2} s",
        spec.name,
        args.seed,
        setup.trace.reads.len(),
        setup.trace.chunks.len(),
        setup.calibrated.thresholds,
        setup.calibrated.separation,
        setup.setup_s
    );
    let classifier = setup.calibrated.catalog.classifier();
    let records = Mutex::new(Vec::new());
    let recording = Probe::new(classifier, Role::Outer).recording(&records);

    if !args.trace {
        let replay = replay(spec, &recording, &records, &setup, seconds);
        let eval = replay.evaluate(&setup);
        let mut problems = check(&eval);
        if let Replay::Paced(run) = &replay {
            problems.extend(check_generator(run));
        }
        return Ok(finish(&eval, end_to_end(&setup, &eval), problems));
    }

    // Traced replay first, so the process-wide scheduler histograms hold
    // only its arrivals; then an untimed replay of the same inputs.
    let ledger = if spec.paced() {
        Ledger::default()
    } else {
        Ledger::sampling_thread()
    };
    let before = sf_telemetry::snapshot();
    let (traced, totals) = match &setup.calibrated.catalog {
        Catalog::Single(filter) => {
            let outer = Probe::new(filter, Role::Outer)
                .timed(&ledger)
                .recording(&records);
            let traced = replay(spec, &outer, &records, &setup, seconds);
            (traced, ledger.totals())
        }
        Catalog::Panel(panel) => {
            let shards = ShardedClassifier::new(panel.shards().iter().map(|shard| {
                (
                    shard.name().to_string(),
                    Probe::new(shard.classifier(), Role::Inner).timed(&ledger),
                )
            }));
            let outer = Probe::new(&shards, Role::Outer)
                .timed(&ledger)
                .recording(&records);
            let traced = replay(spec, &outer, &records, &setup, seconds);
            (traced, ledger.totals())
        }
    };
    let after = sf_telemetry::snapshot();
    let traced_eval = traced.evaluate(&setup);
    let untraced = replay(spec, &recording, &records, &setup, seconds);
    let untraced_eval = untraced.evaluate(&setup);

    let overhead_pct = 100.0
        * (ratio(
            traced.busy_per_read(&traced_eval),
            untraced.busy_per_read(&untraced_eval),
        ) - 1.0);
    let layers = Layers {
        spec,
        setup: &setup,
        replay: &traced,
        eval: &traced_eval,
        totals: &totals,
        before: &before,
        after: &after,
    };
    let (metrics, unattributed_pct) = layers.metrics(overhead_pct);
    let mut problems = check(&traced_eval);
    problems.extend(check(&untraced_eval));
    if let Replay::Paced(run) = &traced {
        problems.extend(check_generator(run));
    }
    if unattributed_pct.abs() > LEDGER_TOLERANCE_PCT {
        problems.push(format!(
            "ledger does not reconcile: {unattributed_pct:.2}% of kernel-session time unattributed (tolerance {LEDGER_TOLERANCE_PCT}%)"
        ));
    }
    Ok(finish(&traced_eval, metrics, problems))
}

/// Output checks every replay must pass.
fn check(eval: &Evaluation) -> Vec<String> {
    let mut problems = Vec::new();
    if eval.mismatches > 0 {
        problems.push(format!(
            "{} outcomes differ from the sequential oracle or resolved more than once",
            eval.mismatches
        ));
    }
    if eval.unresolved > 0 {
        problems.push(format!("{} reads were never resolved", eval.unresolved));
    }
    if eval.decided() == 0 {
        problems.push("no read was decided".to_string());
    }
    problems
}

/// A paced run whose generator fell behind measured the generator.
fn check_generator(run: &paced::PacedRun) -> Option<String> {
    let lag = percentile(&run.lag_ms, 0.95);
    (lag > MAX_GENERATOR_LAG_MS)
        .then(|| format!("generator lag p95 {lag:.2} ms exceeds {MAX_GENERATOR_LAG_MS} ms"))
}

fn finish(eval: &Evaluation, metrics: Vec<Metric>, problems: Vec<String>) -> RunResult {
    for problem in &problems {
        eprintln!("sf-perfbench: check failed: {problem}");
    }
    RunResult {
        correct: problems.is_empty(),
        attempted: eval.attempted,
        failed: eval.failed,
        metrics,
    }
}

/// Inputs of the per-layer report of a traced replay.
struct Layers<'a> {
    spec: &'a Spec,
    setup: &'a Setup,
    replay: &'a Replay,
    eval: &'a Evaluation,
    totals: &'a LedgerTotals,
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Layers<'_> {
    fn delta(&self, name: &str) -> f64 {
        self.after.counter_delta(self.before, name) as f64
    }

    /// The per-layer metrics and the ledger's unattributed share (%).
    fn metrics(&self, overhead_pct: f64) -> (Vec<Metric>, f64) {
        let t = self.totals;
        let busy_s = t.busy_s();
        let (thread, generator) = match self.replay {
            Replay::Paced(run) => (
                run.thread,
                [
                    percentile(&run.lag_ms, 0.95),
                    run.chunks_sent as f64,
                    run.chunks_skipped as f64,
                    run.blocked_s * 1e3,
                    run.stalls as f64,
                    self.eval.missed_windows as f64,
                ],
            ),
            Replay::Capacity(run) => {
                let arrivals: f64 = run
                    .reports
                    .iter()
                    .map(|r| (r.scheduler.chunks_staged + r.scheduler.late_chunks) as f64)
                    .sum();
                let offered = (self.setup.trace.chunks.len() * run.reports.len()) as f64;
                (
                    t.thread.unwrap_or_default(),
                    [
                        // Unpaced: nothing is due, and the blocking send
                        // happens inside the service loop.
                        0.0,
                        arrivals,
                        (offered - arrivals).max(0.0),
                        0.0,
                        run.reports.iter().map(|r| r.ingest_stalls as f64).sum(),
                        run.reports
                            .iter()
                            .map(|r| r.missed_eject_windows as f64)
                            .sum(),
                    ],
                )
            }
        };
        let scheduler = match self.replay {
            Replay::Paced(run) => vec![run.scheduler],
            Replay::Capacity(run) => run.reports.iter().map(|r| r.scheduler).collect(),
        };
        let micro_batches: u64 = scheduler.iter().map(|s| s.micro_batches).sum();
        let batched: u64 = scheduler.iter().map(|s| s.batched_sessions).sum();
        let wait = self
            .after
            .histogram(sf_sched::telemetry::SCHED_CHUNK_QUEUE_WAIT_NS)
            .cloned()
            .unwrap_or_else(sf_telemetry::HistogramSnapshot::empty);

        let normalize_s = self.delta(sf_squiggle::telemetry::NORMALIZE_ESTIMATE_NS) * 1e-9;
        let dp_s = self.delta(sf_sdtw::telemetry::SDTW_STAGE_DP_NS) * 1e-9;
        let decision_s = self.delta(sf_sdtw::telemetry::SDTW_STAGE_DECISION_NS) * 1e-9;
        let dp_cells = self.delta(sf_sdtw::telemetry::SDTW_DP_CELLS);
        // Time inside the sDTW sessions themselves: the whole classifier
        // for a single filter, the shards' share for a panel.
        let kernel_s = if self.spec.panel {
            t.inner_advance_s + t.inner_finalize_s
        } else {
            t.outer_advance_s + t.outer_finalize_s
        };
        let unattributed_pct =
            100.0 * ratio(kernel_s - (normalize_s + dp_s + decision_s), kernel_s);
        let shard = |v: f64| if self.spec.panel { v } else { 0.0 };
        let metrics = vec![
            metric("gen.lag_p95_ms", generator[0], "ms"),
            metric("gen.chunks_sent", generator[1], "count"),
            metric("gen.chunks_skipped", generator[2], "count"),
            metric("ingest.blocked_ms", generator[3], "ms"),
            metric("ingest.stalls", generator[4], "count"),
            metric("ingest.missed_windows", generator[5], "count"),
            metric(
                "sched.queue_wait_p50_ms",
                wait.quantile(0.5) as f64 * 1e-6,
                "ms",
            ),
            metric(
                "sched.queue_wait_p95_ms",
                wait.quantile(0.95) as f64 * 1e-6,
                "ms",
            ),
            metric(
                "sched.batch_sessions_mean",
                ratio(batched as f64, micro_batches as f64),
                "sessions",
            ),
            metric("sched.micro_batches", micro_batches as f64, "count"),
            metric("sched.self_s", thread.on_cpu_s - busy_s, "s"),
            metric("sched.idle_s", thread.idle_s(), "s"),
            metric("sched.runqueue_s", thread.runqueue_s, "s"),
            metric("shard.fanout_s", shard(t.fanout_s()), "s"),
            metric("shard.merge_s", shard(t.merge_s()), "s"),
            metric(
                "shard.sessions_per_read",
                shard(ratio(
                    self.delta(sf_shard::telemetry::SHARD_FANOUT_SESSIONS),
                    t.sessions as f64,
                )),
                "sessions",
            ),
            metric("classify.busy_s", busy_s, "s"),
            metric("classify.advance_calls", t.advance_calls as f64, "count"),
            metric(
                "classify.samples_per_advance",
                ratio(t.advanced_samples as f64, t.advance_calls as f64),
                "samples",
            ),
            metric("sdtw.dp_cells", dp_cells, "count"),
            metric("sdtw.dp_s", dp_s, "s"),
            metric("sdtw.decision_s", decision_s, "s"),
            metric("sdtw.cells_per_s", ratio(dp_cells, dp_s), "1/s"),
            metric(
                "sdtw.early_rejects",
                self.delta(sf_sdtw::telemetry::SDTW_EARLY_REJECTS),
                "count",
            ),
            metric(
                "sdtw.reject_samples_mean",
                stats::mean(&self.eval.reject_samples),
                "samples",
            ),
            metric("normalize.s", normalize_s, "s"),
            metric(
                "normalize.calibrations",
                self.delta(sf_squiggle::telemetry::NORMALIZE_CALIBRATIONS),
                "count",
            ),
            metric("ledger.unattributed_pct", unattributed_pct, "%"),
            metric("trace.overhead_pct", overhead_pct, "%"),
        ];
        (metrics, unattributed_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::ThreadSpan;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "saturate-panel",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.spec.name, "saturate-panel");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "paced-single", "--trace", "2"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a", 1.5, "ms"), metric("b", f64::NAN, "s")],
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    /// A set-up of `reads` two-chunk reads, captured one second apart, each
    /// with the same oracle outcome.
    fn tiny_setup(reads: usize) -> Setup {
        use sf_genome::random::random_genome;
        use sf_pore_model::KmerModel;
        use sf_sdtw::{FilterConfig, FilterVerdict, SquiggleFilter};
        use sf_sim::{ArrivalTrace, TraceChunk, TraceRead};
        use sf_squiggle::RawSquiggle;

        let filter = SquiggleFilter::from_genome(
            &KmerModel::synthetic_r94(0),
            &random_genome(3, 600),
            FilterConfig::hardware(1e4),
        );
        let trace_reads: Vec<TraceRead> = (0..reads)
            .map(|i| TraceRead {
                channel: i,
                start_s: i as f64,
                is_target: false,
                squiggle: RawSquiggle::new(vec![500; 800], 4_000.0),
                read_samples: 800,
                read_bases: 88,
            })
            .collect();
        let chunks = (0..reads)
            .flat_map(|read| {
                [(0, 400), (400, 800)].map(|(start, end)| TraceChunk {
                    time_s: read as f64 + end as f64 / 4_000.0,
                    read,
                    start,
                    end,
                    last: end == 800,
                })
            })
            .collect();
        let outcome = StreamClassification {
            verdict: FilterVerdict::Reject,
            score: 1.0,
            result: None,
            samples_consumed: 800,
            decided_early: false,
            target: None,
        };
        Setup {
            calibrated: setup::Calibrated {
                catalog: Catalog::Single(filter),
                thresholds: vec![1e4],
                separation: 1.0,
            },
            trace: ArrivalTrace {
                reads: trace_reads,
                chunks,
                sample_rate_hz: 4_000.0,
            },
            chunk_ends: vec![vec![400, 800]; reads],
            chunk_due: (0..reads)
                .map(|r| vec![r as f64 + 0.1, r as f64 + 0.2])
                .collect(),
            oracle: vec![outcome; reads],
            setup_s: 1.0,
        }
    }

    /// A paced run that received the oracle outcome 100 ms after the
    /// deciding chunk was due for the reads in `resolved`, and nothing for
    /// the others.
    fn paced_run(setup: &Setup, resolved: &[usize]) -> paced::PacedRun {
        let received = (0..setup.oracle.len())
            .map(|read| {
                resolved.contains(&read).then(|| paced::Received {
                    outcome: setup.oracle[read],
                    at_s: read as f64 + 0.3,
                    after_last_chunk: false,
                })
            })
            .collect();
        paced::PacedRun {
            received,
            duplicates: 0,
            lag_ms: vec![0.0],
            chunks_sent: 2 * resolved.len() as u64,
            chunks_skipped: 0,
            stalls: 0,
            blocked_s: 0.0,
            scheduler: sf_sched::SchedulerReport::default(),
            thread: ThreadSpan::default(),
            wall_s: setup.oracle.len() as f64,
        }
    }

    #[test]
    fn paced_latency_runs_from_the_deciding_chunks_due_time() {
        let setup = tiny_setup(3);
        let eval = evaluate_paced(&setup, &paced_run(&setup, &[0, 1, 2]));
        assert_eq!((eval.attempted, eval.failed, eval.unresolved), (3, 0, 0));
        assert_eq!(eval.passes.len(), 1);
        // The decision took all 800 samples, so the second chunk (due
        // 0.2 s after capture) completed it; the outcome came at 0.3 s.
        for latency in &eval.passes[0].latencies_ms {
            assert!((latency - 100.0).abs() < 1e-6);
        }
        assert!(check(&eval).is_empty());
    }

    #[test]
    fn an_unresolved_read_fails_the_run() {
        let setup = tiny_setup(3);
        let eval = evaluate_paced(&setup, &paced_run(&setup, &[0, 2]));
        assert_eq!((eval.attempted, eval.failed, eval.unresolved), (3, 1, 1));
        assert_eq!(eval.mismatches, 0);
        let problems = check(&eval);
        assert!(problems.iter().any(|p| p.contains("never resolved")));
        let result = finish(&eval, Vec::new(), problems);
        assert!(!result.correct);
        assert_eq!(result.failed, 1);
    }

    #[test]
    fn ledger_arithmetic_splits_shard_time() {
        let totals = LedgerTotals {
            outer_start_s: 0.5,
            outer_advance_s: 10.0,
            outer_finalize_s: 1.0,
            inner_start_s: 0.4,
            inner_advance_s: 9.0,
            inner_finalize_s: 0.7,
            inner_total_s: 10.1,
            ..LedgerTotals::default()
        };
        assert!((totals.busy_s() - 11.5).abs() < 1e-12);
        assert!((totals.fanout_s() - 1.0).abs() < 1e-12);
        assert!((totals.merge_s() - 0.3).abs() < 1e-12);
        let span = ThreadSpan {
            on_cpu_s: 12.0,
            runqueue_s: 0.25,
            wall_s: 20.0,
        };
        // Scheduler self time is on-CPU time outside the classifier.
        assert!((span.on_cpu_s - totals.busy_s() - 0.5).abs() < 1e-12);
        assert!((span.idle_s() - 7.75).abs() < 1e-12);
    }
}
