//! Quickstart: program a SquiggleFilter for a target virus and classify a
//! handful of simulated reads.
//!
//! Run with `cargo run --release --example quickstart`.

use squigglefilter::prelude::*;
use squigglefilter::sdtw::calibrate_threshold;
use squigglefilter::sim::DatasetBuilder;

fn main() {
    // 1. A small labelled dataset: simulated SARS-CoV-2-like reads mixed with
    //    human-like background reads, each carrying its raw squiggle.
    let dataset = DatasetBuilder::covid(42)
        .target_reads(60)
        .background_reads(60)
        .background_length(200_000)
        .build();
    println!(
        "dataset: {} reads ({} target, {} background)",
        dataset.reads.len(),
        dataset.target_count(),
        dataset.background_count()
    );

    // 2. Program the filter for the target genome (the "reference squiggle").
    let model = KmerModel::synthetic_r94(0);
    let uncalibrated = SquiggleFilter::from_genome(
        &model,
        &dataset.target_genome,
        FilterConfig::hardware(f64::MAX),
    );

    // 3. Calibrate the cost threshold on a slice of the data.
    let (calibration, evaluation): (Vec<_>, Vec<_>) = dataset
        .reads
        .iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let mut target_costs = Vec::new();
    let mut background_costs = Vec::new();
    for (_, item) in &calibration {
        if let Some(result) = uncalibrated.score(&item.squiggle) {
            if item.is_target() {
                target_costs.push(result.cost);
            } else {
                background_costs.push(result.cost);
            }
        }
    }
    let best = calibrate_threshold(&target_costs, &background_costs)
        .best_f1()
        .expect("calibration data is non-empty");
    println!(
        "calibrated threshold {:.0} (TPR {:.2}, FPR {:.2})",
        best.threshold, best.true_positive_rate, best.false_positive_rate
    );

    // 4. Classify the held-out reads and report accuracy.
    let filter = SquiggleFilter::from_genome(
        &model,
        &dataset.target_genome,
        FilterConfig::hardware(best.threshold),
    );
    let mut matrix = ConfusionMatrix::new();
    for (_, item) in &evaluation {
        let decision = filter.classify(&item.squiggle);
        matrix.record(item.is_target(), decision.verdict.is_accept());
    }
    println!(
        "held-out accuracy: {:.1}%  (TPR {:.2}, FPR {:.2}, F1 {:.2})",
        matrix.accuracy() * 100.0,
        matrix.true_positive_rate(),
        matrix.false_positive_rate(),
        matrix.f1()
    );

    // 5. The kernel surface: `Vector` (the default) runs the AVX2 row update
    //    whenever reference deletions are off and the CPU has AVX2, and a
    //    Sakoe–Chiba band evaluates only a window of DP columns re-centered
    //    on the best alignment's track each row. Banding is a verdict-level
    //    approximation: costs shift (out-of-band paths are lost) but a clear
    //    target read still lands far below threshold, for a fraction of the
    //    DP work. `sdtw.*` telemetry counters account for the saving. The
    //    vector backend is the big software lever: the checked-in
    //    BENCH_batch.json (200 reads x 8 kb, single thread) measures 3.333
    //    reads/s scalar vs 33.436 reads/s vector — 10.0x.
    let mut banded_config = FilterConfig::hardware(best.threshold);
    banded_config.sdtw = banded_config
        .sdtw
        .with_band(Band::SakoeChiba { radius: 1_000 })
        .with_backend(KernelBackend::Vector);
    let banded = SquiggleFilter::from_genome(&model, &dataset.target_genome, banded_config);
    let clean = model.expected_raw_squiggle(
        &dataset.target_genome.subsequence(0, 200),
        10,
        &squigglefilter::pore_model::AdcModel::default(),
    );
    let before = squigglefilter::telemetry::snapshot();
    let banded_verdict = banded.classify(&clean).verdict;
    let after = squigglefilter::telemetry::snapshot();
    let full_verdict = filter.classify(&clean).verdict;
    let evaluated = after.counter_delta(&before, squigglefilter::sdtw::telemetry::SDTW_DP_CELLS);
    let skipped = after.counter_delta(
        &before,
        squigglefilter::sdtw::telemetry::SDTW_BAND_CELLS_SKIPPED,
    );
    println!(
        "banded kernel (radius 1000, vector backend): {banded_verdict:?} (full-band \
         {full_verdict:?}) on a clean target read, skipping {:.0}% of DP cells",
        skipped as f64 / (evaluated + skipped).max(1) as f64 * 100.0
    );

    // 6. The same filter, driven as a streaming Read Until classifier: raw
    //    chunks go in as they arrive from the pore, a three-way decision
    //    (Accept / Reject / Wait) comes back after every chunk, and most
    //    rejects resolve without waiting for more signal than necessary.
    let item = &dataset.reads[0];
    let mut session = filter.start_read();
    for chunk in item.squiggle.chunks(400) {
        if session.push_chunk(chunk).is_final() {
            break;
        }
    }
    let outcome = session.finalize();
    println!(
        "streamed one {} read: {:?} after {} samples (one-shot verdict: {:?})",
        if item.is_target() {
            "target"
        } else {
            "background"
        },
        outcome.verdict,
        outcome.samples_consumed,
        filter.classify(&item.squiggle).verdict,
    );

    // 7. Many reads at once, server-style: the micro-batched scheduler
    //    ingests interleaved (session, chunk) arrivals from any number of
    //    concurrent reads, coalesces each session's signal, and emits one
    //    outcome per read — bit-identical to streaming each read alone
    //    (see docs/scheduler.md and `--example scheduler_demo`).
    let scheduler = SessionScheduler::new(MicroBatchConfig::default());
    let (arrivals_tx, arrivals_rx) = std::sync::mpsc::channel();
    let (outcomes_tx, outcomes_rx) = std::sync::mpsc::channel();
    let in_flight = &evaluation[..8.min(evaluation.len())];
    let mut offset = 0usize;
    loop {
        let mut any = false;
        for (slot, (_, item)) in in_flight.iter().enumerate() {
            let samples = item.squiggle.samples();
            if offset >= samples.len() {
                continue;
            }
            any = true;
            let end = (offset + 400).min(samples.len());
            let id = SessionId(slot as u64);
            let _ = arrivals_tx.send(Arrival::chunk(id, samples[offset..end].to_vec()));
            if end == samples.len() {
                let _ = arrivals_tx.send(Arrival::end(id));
            }
        }
        if !any {
            break;
        }
        offset += 400;
    }
    drop(arrivals_tx);
    let report = scheduler.run(&filter, arrivals_rx, &outcomes_tx);
    drop(outcomes_tx);
    let accepted = outcomes_rx
        .iter()
        .filter(|o| o.classification.verdict.is_accept())
        .count();
    println!(
        "scheduler: {} interleaved reads in {} micro-batches (mean occupancy {:.1}), {} accepted",
        report.sessions_completed,
        report.micro_batches,
        report.mean_microbatch_sessions(),
        accepted
    );

    // 8. What would this cost on the accelerator?
    let perf = AcceleratorModel::default().sars_cov_2_design_point();
    println!(
        "accelerator: {:.3} ms/decision, {:.1} M samples/s per tile, {:.2} mm^2 / {:.2} W (5 tiles)",
        perf.latency_ms,
        perf.tile_throughput_samples_per_s / 1e6,
        perf.budget.area_mm2,
        perf.budget.power_w
    );
}
