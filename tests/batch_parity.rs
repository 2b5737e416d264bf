//! Integration parity test: whole-read batches classified through the
//! multi-worker `SessionScheduler` must produce exactly the outcomes of the
//! sequential streaming loop.

use squigglefilter::prelude::*;
use squigglefilter::sdtw::StreamClassification;
use squigglefilter::sim::Dataset;
use squigglefilter::squiggle::RawSquiggle;

/// 200 simulated reads (100 target / 100 background) over a 6 kb genome —
/// big enough to spread over every worker, small enough for debug CI.
fn dataset_200() -> Dataset {
    let genome = squigglefilter::genome::random::random_genome(2024, 6_000);
    DatasetBuilder::new("batch-parity", genome, 2024)
        .target_reads(100)
        .background_reads(100)
        .background_length(150_000)
        .build()
}

#[test]
fn batch_classifier_matches_sequential_loop() {
    let dataset = dataset_200();
    let model = KmerModel::synthetic_r94(0);
    let filter = SquiggleFilter::from_genome(
        &model,
        &dataset.target_genome,
        FilterConfig::hardware(60_000.0),
    );

    let squiggles: Vec<RawSquiggle> = dataset.reads.iter().map(|r| r.squiggle.clone()).collect();

    // The sequential reference path: one streaming session per read.
    let sequential: Vec<StreamClassification> = squiggles
        .iter()
        .map(|s| filter.classify_stream(s))
        .collect();

    // Two adversarial worker counts: more workers than this machine has
    // cores, and oversubscribed. (Each pass costs ~35 s of sDTW in debug CI,
    // so the list is kept minimal; sf-sched's unit tests cover more shapes
    // on a probe classifier.)
    for workers in [4, 8] {
        let scheduler = SessionScheduler::new(MicroBatchConfig::default().with_workers(workers));
        let got = scheduler.classify_batch(&filter, squiggles.iter().map(RawSquiggle::samples));
        assert_eq!(got.len(), sequential.len());
        for (i, (got, want)) in got.iter().zip(&sequential).enumerate() {
            assert_eq!(got.verdict, want.verdict, "read {i} (workers {workers})");
            assert_eq!(got.result, want.result, "read {i} (workers {workers})");
            assert_eq!(
                got.samples_consumed, want.samples_consumed,
                "read {i} (workers {workers})"
            );
        }
    }
}

#[test]
fn batch_classifier_is_deterministic_across_runs() {
    let dataset = dataset_200();
    let model = KmerModel::synthetic_r94(0);
    let filter = SquiggleFilter::from_genome(
        &model,
        &dataset.target_genome,
        FilterConfig::hardware(60_000.0),
    );
    // Determinism does not need the full 200 reads; a 60-read slice keeps the
    // two extra classification passes cheap in debug CI.
    let squiggles: Vec<RawSquiggle> = dataset
        .reads
        .iter()
        .take(60)
        .map(|r| r.squiggle.clone())
        .collect();

    let scheduler = SessionScheduler::new(MicroBatchConfig::default().with_workers(4));
    let verdicts = || -> Vec<FilterVerdict> {
        scheduler
            .classify_batch(&filter, squiggles.iter().map(RawSquiggle::samples))
            .into_iter()
            .map(|c| c.verdict)
            .collect()
    };
    let first = verdicts();
    let second = verdicts();
    assert_eq!(first, second);
}
