//! Scheduler/sequential parity: driving N interleaved sessions through the
//! micro-batched `SessionScheduler` must be bit-identical, per read, to a
//! sequential `push_chunk`/`finalize` drive of the same chunk stream — for
//! every chunk size, rolling recalibration on drifting baselines
//! included — and no session may outlive its decision.

use squigglefilter::pore_model::AdcModel;
use squigglefilter::prelude::*;
use std::sync::mpsc;

/// The ideal 10-samples-per-base squiggle for a fragment.
fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
    model.expected_raw_squiggle(fragment, 10, &AdcModel::default())
}

fn test_reads(model: &KmerModel, genome: &Sequence) -> Vec<RawSquiggle> {
    vec![
        // A matching read longer than the prefix.
        noiseless_squiggle(model, &genome.subsequence(400, 1_100)),
        // A background read.
        noiseless_squiggle(
            model,
            &squigglefilter::genome::random::random_genome(77, 700),
        ),
        // A short read that ends before the calibration window fills.
        noiseless_squiggle(model, &genome.subsequence(0, 120)),
        // Obvious junk: a square wave across the ADC range.
        RawSquiggle::new(
            (0..4_000)
                .map(|i| if i % 2 == 0 { 120 } else { 880 })
                .collect(),
            4_000.0,
        ),
        // A second matching read from elsewhere in the genome.
        noiseless_squiggle(model, &genome.subsequence(1_200, 2_000)),
        // A second background read.
        noiseless_squiggle(
            model,
            &squigglefilter::genome::random::random_genome(78, 600),
        ),
    ]
}

/// Round-robins `chunk_size`-sized chunks of every read into the scheduler
/// (the interleaved arrival order a flow cell produces) and returns the
/// per-read classifications, plus the run report.
fn scheduler_outcomes<C: ReadClassifier + Sync>(
    classifier: &C,
    reads: &[RawSquiggle],
    chunk_size: usize,
    config: MicroBatchConfig,
) -> (Vec<StreamClassification>, SchedulerReport) {
    let scheduler = SessionScheduler::new(config);
    let (ingest_tx, ingest_rx) = mpsc::channel();
    let mut offset = 0usize;
    loop {
        let mut any = false;
        for (i, read) in reads.iter().enumerate() {
            let samples = read.samples();
            if offset >= samples.len() {
                continue;
            }
            any = true;
            let end = (offset + chunk_size).min(samples.len());
            let id = SessionId(i as u64);
            ingest_tx
                .send(Arrival::chunk(id, samples[offset..end].to_vec()))
                .expect("ingest open");
            if end == samples.len() {
                ingest_tx.send(Arrival::end(id)).expect("ingest open");
            }
        }
        if !any {
            break;
        }
        offset += chunk_size;
    }
    drop(ingest_tx);
    let (done_tx, done_rx) = mpsc::channel();
    let report = scheduler.run(classifier, ingest_rx, &done_tx);
    drop(done_tx);
    let mut out = vec![None; reads.len()];
    while let Ok(outcome) = done_rx.try_recv() {
        let slot = &mut out[outcome.id.0 as usize];
        assert!(slot.is_none(), "duplicate outcome for {:?}", outcome.id);
        *slot = Some(outcome.classification);
    }
    let classifications = out
        .into_iter()
        .map(|o| o.expect("every session resolved"))
        .collect();
    (classifications, report)
}

/// The sequential reference: one session, same chunk stream, stop pushing at
/// the first final decision (the scheduler's eviction does the same).
fn sequential_outcome<C: ReadClassifier>(
    classifier: &C,
    read: &RawSquiggle,
    chunk_size: usize,
) -> StreamClassification {
    let mut session = classifier.start_read();
    for chunk in read.samples().chunks(chunk_size) {
        if session.push_chunk(chunk).is_final() {
            break;
        }
    }
    session.finalize()
}

#[test]
fn interleaved_scheduling_is_bit_identical_to_sequential_streaming() {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    // threshold = MAX: the early-reject bound can never fire, so the
    // full classification (score and alignment result included) must
    // match exactly at every chunk size and worker count.
    let config = FilterConfig::hardware(f64::MAX);
    let filter = SquiggleFilter::from_genome(&model, &genome, config);
    let reads = test_reads(&model, &genome);
    for chunk_size in [1usize, 7, 512] {
        for workers in [1usize, 3] {
            let batch = MicroBatchConfig::default().with_workers(workers);
            let (got, report) = scheduler_outcomes(&filter, &reads, chunk_size, batch);
            assert_eq!(report.sessions_completed as usize, reads.len());
            for (r, read) in reads.iter().enumerate() {
                let want = sequential_outcome(&filter, read, chunk_size);
                assert_eq!(
                    got[r], want,
                    "read {r}, chunk {chunk_size}, workers {workers}"
                );
            }
        }
    }
}

/// Adds a linear upward baseline drift (1 ADC count every 64 samples) to a
/// squiggle — the pore-bias wander that rolling recalibration absorbs.
fn with_drift(squiggle: &RawSquiggle) -> RawSquiggle {
    RawSquiggle::new(
        squiggle
            .samples()
            .iter()
            .enumerate()
            .map(|(i, &s)| s.saturating_add((i / 64) as u16))
            .collect(),
        4_000.0,
    )
}

#[test]
fn early_exits_and_recalibration_drift_stay_bit_identical_under_scheduling() {
    // Rolling re-estimation (window 1000, re-estimated every 500 samples)
    // plus a calibrated threshold: decisions fire mid-read, sessions are
    // evicted mid-stream, and parameters drift while later chunks arrive —
    // and every per-read outcome must still match the sequential drive.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    let normalizer = squigglefilter::squiggle::normalize::NormalizerConfig::default()
        .with_calibration_window(1_000)
        .with_recalibration_interval(500);
    // Bonus-free kernel: the early-reject bound is exact (see
    // tests/streaming_parity.rs for the rationale).
    let probe_config = FilterConfig {
        normalizer,
        sdtw: SdtwConfig::hardware_without_bonus(),
        ..FilterConfig::hardware(f64::MAX)
    };
    let probe = SquiggleFilter::from_genome(&model, &genome, probe_config);
    let reads: Vec<RawSquiggle> = test_reads(&model, &genome).iter().map(with_drift).collect();
    let t = probe.score(&reads[0]).expect("target scores").cost;
    let b = probe.score(&reads[1]).expect("background scores").cost;
    assert!(t < b, "target {t} vs background {b}");
    let filter =
        SquiggleFilter::from_genome(&model, &genome, probe_config.with_threshold((t + b) / 2.0));
    // The junk read must genuinely early-exit so the eviction path is on
    // the tested surface.
    assert!(filter.classify_stream(&reads[3]).decided_early);
    for chunk_size in [1usize, 7, 512] {
        for workers in [1usize, 3] {
            let batch = MicroBatchConfig::default().with_workers(workers);
            let (got, _) = scheduler_outcomes(&filter, &reads, chunk_size, batch);
            for (r, read) in reads.iter().enumerate() {
                let want = sequential_outcome(&filter, read, chunk_size);
                assert_eq!(
                    got[r], want,
                    "read {r}, chunk {chunk_size}, workers {workers}"
                );
            }
        }
    }
}

#[test]
fn no_session_outlives_its_decision() {
    // The square-wave junk read rejects early; the feed keeps sending its
    // remaining chunks. Eviction must pin samples_consumed at the decision
    // point and drop everything after it as late arrivals.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    let normalizer = squigglefilter::squiggle::normalize::NormalizerConfig::default()
        .with_calibration_window(500)
        .with_recalibration_interval(250);
    let probe_config = FilterConfig {
        normalizer,
        sdtw: SdtwConfig::hardware_without_bonus(),
        ..FilterConfig::hardware(f64::MAX)
    };
    let reads = test_reads(&model, &genome);
    let probe = SquiggleFilter::from_genome(&model, &genome, probe_config);
    let t = probe.score(&reads[0]).expect("target scores").cost;
    let b = probe.score(&reads[1]).expect("background scores").cost;
    let filter =
        SquiggleFilter::from_genome(&model, &genome, probe_config.with_threshold((t + b) / 2.0));
    let junk = &reads[3];
    let reference = filter.classify_stream(junk);
    assert!(reference.decided_early, "junk read must early-reject");

    // max_sessions = 1: every staged chunk triggers a drain, so the decision
    // fires mid-stream while the rest of the read is still in the queue.
    let batch = MicroBatchConfig::default().with_max_sessions(1);
    let (got, report) = scheduler_outcomes(&filter, std::slice::from_ref(junk), 64, batch);
    // The session was evicted at its decision: consumption stops there even
    // though every chunk of the read was sent...
    assert_eq!(got[0].samples_consumed, reference.samples_consumed);
    assert!(got[0].samples_consumed < junk.len());
    // ...and the post-decision chunks were dropped, not staged.
    assert!(report.late_chunks > 0, "expected post-decision arrivals");
    assert_eq!(report.sessions_opened, 1);
    assert_eq!(report.sessions_completed, 1);
}
