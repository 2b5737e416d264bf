//! Telemetry integration tests: absolute DP accounting on both counting
//! paths, counter exactness under a multi-worker `SessionScheduler` batch
//! and verdict parity while the registry is being hammered concurrently.
//!
//! These tests only make sense with telemetry compiled in (the default);
//! under `--no-default-features` every counter reads 0 and the assertions
//! would be vacuous, so the whole file is gated out.
#![cfg(feature = "telemetry")]

use squigglefilter::prelude::*;
use squigglefilter::sched::telemetry::SCHED_EVICTIONS;
use squigglefilter::sdtw::telemetry::{SDTW_DP_CELLS, SDTW_DP_ROWS};
use squigglefilter::squiggle::RawSquiggle;
use squigglefilter::telemetry::snapshot;
use std::sync::Mutex;

/// The `sdtw.*`/`sched.*` counters are process-global, so tests measuring
/// deltas must not classify concurrently with each other.
fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_filter() -> SquiggleFilter {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(5, 800);
    SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(40_000.0))
}

fn synthetic_reads(n: usize) -> Vec<RawSquiggle> {
    (0..n)
        .map(|i| {
            let samples: Vec<u16> = (0..400)
                .map(|j| 350 + ((i * 131 + j * 17) % 300) as u16)
                .collect();
            RawSquiggle::new(samples, 4_000.0)
        })
        .collect()
}

#[test]
fn dp_cells_are_rows_times_reference_on_both_paths() {
    let _guard = registry_lock();
    // Threshold MAX: no early reject, so both paths run the whole prefix.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(5, 800);
    let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(f64::MAX));
    let read = model.expected_raw_squiggle(
        &genome.subsequence(100, 400),
        10,
        &squigglefilter::pore_model::AdcModel::default(),
    );
    let columns = filter.reference_samples() as u64;

    // One-shot `classify`: counted by the kernel's batch flush.
    let before = snapshot();
    let oneshot = filter.classify(&read);
    let after = snapshot();
    let rows = after.counter_delta(&before, SDTW_DP_ROWS);
    assert_eq!(rows, oneshot.samples_used as u64);
    assert_eq!(rows, filter.config().prefix_samples as u64);
    assert_eq!(after.counter_delta(&before, SDTW_DP_CELLS), rows * columns);

    // A streaming session fed 7-sample chunks: counted by its chunk spans.
    let before = snapshot();
    let mut session = filter.start_read();
    for chunk in read.samples().chunks(7) {
        if session.push_chunk(chunk).is_final() {
            break;
        }
    }
    let streamed = session.finalize();
    let after = snapshot();
    let rows = after.counter_delta(&before, SDTW_DP_ROWS);
    assert_eq!(rows, streamed.samples_consumed as u64);
    assert_eq!(rows, filter.config().prefix_samples as u64);
    assert_eq!(after.counter_delta(&before, SDTW_DP_CELLS), rows * columns);
}

#[test]
fn batch_pool_counts_exactly_like_sequential() {
    let _guard = registry_lock();
    let filter = small_filter();
    let reads = synthetic_reads(30);

    let before = snapshot();
    for read in &reads {
        let _ = filter.classify_stream(read);
    }
    let mid = snapshot();
    let sequential_cells = mid.counter_delta(&before, SDTW_DP_CELLS);
    assert!(
        sequential_cells > 0,
        "sequential pass evaluated no DP cells"
    );

    // The same reads through a 4-worker scheduler: relaxed atomics lose
    // nothing, so the cell count must match the sequential pass exactly and
    // every read must be evicted exactly once.
    let scheduler = SessionScheduler::new(MicroBatchConfig::default().with_workers(4));
    let _ = scheduler.classify_batch(&filter, reads.iter().map(RawSquiggle::samples));
    let after = snapshot();
    assert_eq!(after.counter_delta(&mid, SDTW_DP_CELLS), sequential_cells);
    assert_eq!(
        after.counter_delta(&mid, SCHED_EVICTIONS),
        reads.len() as u64
    );
}

#[test]
fn concurrent_metric_hammering_does_not_change_verdicts() {
    let _guard = registry_lock();
    let filter = small_filter();
    let reads = synthetic_reads(20);
    let want: Vec<FilterVerdict> = reads
        .iter()
        .map(|r| filter.classify_stream(r).verdict)
        .collect();

    // Classify again while other threads flood the same global registry the
    // sessions flush into: telemetry is observation only, so every verdict
    // (and score) must be bit-identical to the quiet run.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let got: Vec<StreamClassification> = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let hist = squigglefilter::telemetry::register_histogram("test.hammer_ns");
                let counter = squigglefilter::telemetry::register_counter("test.hammer");
                let mut v = 1u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    hist.record(v % 100_000);
                    counter.incr();
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            });
        }
        let out: Vec<StreamClassification> =
            reads.iter().map(|r| filter.classify_stream(r)).collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        out
    });
    for (c, want) in got.iter().zip(&want) {
        assert_eq!(c.verdict, *want);
    }
}
