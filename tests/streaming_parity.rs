//! Streaming/one-shot parity: chunked streaming classification must be
//! bit-identical to the one-shot `classify` on the same prefix, for every
//! chunk size — and chunk boundaries must never influence when a decision
//! fires.

use squigglefilter::pore_model::AdcModel;
use squigglefilter::prelude::*;
use squigglefilter::sdtw::Stage;
use squigglefilter::squiggle::normalize::NormalizerConfig;

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
    ]
}

#[test]
fn chunked_streaming_is_bit_identical_to_one_shot() {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    // threshold = MAX: the early-reject bound can never fire, so results
    // (not just verdicts) must match exactly at every chunk size.
    let config = FilterConfig::hardware(f64::MAX);
    let filter = SquiggleFilter::from_genome(&model, &genome, config);
    for (r, read) in test_reads(&model, &genome).iter().enumerate() {
        let want = filter.classify(&read.prefix(config.prefix_samples));
        for chunk_size in [1usize, 7, 512] {
            let mut session = filter.start_read();
            for chunk in read.samples().chunks(chunk_size) {
                let _ = session.push_chunk(chunk);
            }
            let got = session.finalize();
            assert_eq!(got.verdict, want.verdict, "read {r}, chunk {chunk_size}");
            assert_eq!(
                got.result,
                Some(want.result),
                "read {r}, chunk {chunk_size}"
            );
            assert_eq!(got.score, want.result.cost);
        }
    }
}

#[test]
fn early_exit_verdicts_match_one_shot_and_are_chunk_invariant() {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    // A short calibration window so early rejects are reachable, and a
    // threshold calibrated between a matching and a background read.
    let normalizer = squigglefilter::squiggle::normalize::NormalizerConfig {
        calibration_window: 500,
        ..Default::default()
    };
    // Bonus-free kernel: the early-reject slack is then zero, so the bound
    // is exact (the with-bonus bound is exercised by the sf-sdtw unit
    // tests).
    let probe_config = FilterConfig {
        normalizer,
        sdtw: SdtwConfig::hardware_without_bonus(),
        ..FilterConfig::hardware(f64::MAX)
    };
    let probe = SquiggleFilter::from_genome(&model, &genome, probe_config);
    let reads = test_reads(&model, &genome);
    let t = probe.score(&reads[0]).expect("target scores").cost;
    let b = probe.score(&reads[1]).expect("background scores").cost;
    assert!(t < b, "target {t} vs background {b}");
    let filter =
        SquiggleFilter::from_genome(&model, &genome, probe_config.with_threshold((t + b) / 2.0));
    for (r, read) in reads.iter().enumerate() {
        // The early-reject bound is sound: streamed verdicts match the
        // one-shot verdict on the same prefix...
        let want = filter.classify(&read.prefix(probe_config.prefix_samples));
        let reference = filter.classify_stream(read);
        assert_eq!(reference.verdict, want.verdict, "read {r}");
        // ...and the decision point is independent of chunking.
        for chunk_size in [1usize, 7, 512] {
            let mut session = filter.start_read();
            for chunk in read.samples().chunks(chunk_size) {
                if session.push_chunk(chunk).is_final() {
                    break;
                }
            }
            let got = session.finalize();
            assert_eq!(
                got.verdict, reference.verdict,
                "read {r}, chunk {chunk_size}"
            );
            assert_eq!(
                got.samples_consumed, reference.samples_consumed,
                "read {r}, chunk {chunk_size}"
            );
            assert_eq!(got.decided_early, reference.decided_early);
        }
    }
    // The junk read must actually demonstrate an early eject.
    let junk = filter.classify_stream(&reads[3]);
    assert_eq!(junk.verdict, FilterVerdict::Reject);
    assert!(junk.decided_early);
    assert!(
        junk.samples_consumed < probe_config.prefix_samples,
        "consumed {}",
        junk.samples_consumed
    );
}

/// Adds a linear upward baseline drift (1 ADC count every 64 samples, ~31
/// counts over a 2000-sample prefix) to a squiggle — the pore-bias wander
/// that rolling recalibration absorbs.
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
fn rolling_recalibration_stays_bit_identical_on_drifting_baselines() {
    // Rolling re-estimation fires mid-prefix (window 500, re-estimated every
    // 250 samples < prefix 2000): chunked streaming must still be
    // bit-identical to the one-shot path on the same prefix, for every chunk
    // size and a two-stage filter, even while the parameters drift.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    let normalizer = squigglefilter::squiggle::normalize::NormalizerConfig::default()
        .with_calibration_window(500)
        .with_recalibration_interval(250);
    // threshold = MAX: the early-reject bound can never fire, so results
    // (not just verdicts) must match exactly at every chunk size.
    let config = FilterConfig {
        normalizer,
        ..FilterConfig::hardware(f64::MAX)
    };
    let filter = SquiggleFilter::from_genome(&model, &genome, config);
    for (r, read) in test_reads(&model, &genome).iter().enumerate() {
        let read = with_drift(read);
        let want = filter.classify(&read.prefix(config.prefix_samples));
        for chunk_size in [1usize, 7, 512] {
            let mut session = filter.start_read();
            for chunk in read.samples().chunks(chunk_size) {
                let _ = session.push_chunk(chunk);
            }
            let got = session.finalize();
            assert_eq!(got.verdict, want.verdict, "read {r}, chunk {chunk_size}");
            assert_eq!(
                got.result,
                Some(want.result),
                "read {r}, chunk {chunk_size}"
            );
        }
    }
    // Two stages (1000, then the 2000-sample prefix) carry one DP row across
    // the boundary. Each stage's threshold sits between a kept and a
    // rejected read's cost at that stage's prefix (junk at stage 0,
    // background at stage 1), so stage-0 rejects and escalations both run.
    let reference = ReferenceSquiggle::from_genome(&model, &genome);
    let staged = |early_stage: Option<Stage>, prefix_samples, threshold| {
        SquiggleFilter::new(
            &reference,
            FilterConfig {
                prefix_samples,
                threshold,
                normalizer,
                early_stage,
                ..FilterConfig::two_stage(f64::MAX, f64::MAX)
            },
        )
    };
    let stage = |prefix_samples, threshold| Stage {
        prefix_samples,
        threshold,
    };
    let reads: Vec<RawSquiggle> = test_reads(&model, &genome).iter().map(with_drift).collect();
    let midpoint = |prefix_samples, kept: &RawSquiggle, rejected: &RawSquiggle| {
        let probe = staged(None, prefix_samples, f64::MAX);
        (probe.classify(kept).result.cost + probe.classify(rejected).result.cost) / 2.0
    };
    let early = midpoint(1_000, &reads[0], &reads[3]);
    let late = midpoint(2_000, &reads[0], &reads[1]);
    let filter = staged(Some(stage(1_000, early)), 2_000, late);
    let outcomes: Vec<_> = reads.iter().map(|read| filter.classify(read)).collect();
    assert!(outcomes
        .iter()
        .any(|o| o.deciding_stage == 0 && o.verdict == FilterVerdict::Reject));
    assert!(outcomes.iter().any(|o| o.deciding_stage == 1));
    for (r, (read, want)) in reads.iter().zip(&outcomes).enumerate() {
        for chunk_size in [1usize, 7, 512] {
            let mut session = filter.start_read();
            for chunk in read.samples().chunks(chunk_size) {
                let _ = session.push_chunk(chunk);
            }
            let got = session.finalize();
            assert_eq!(
                got.verdict, want.verdict,
                "staged, read {r}, chunk {chunk_size}"
            );
            assert_eq!(
                got.result,
                Some(want.result),
                "staged, read {r}, chunk {chunk_size}"
            );
        }
    }
}

#[test]
fn single_stage_filter_is_a_one_stage_staged_filter() {
    // A single-stage filter is one stage of the staged engine: adding an
    // early stage that never rejects (threshold MAX at 1000 samples) to an
    // Int8 filter with early exit off must change nothing but which stage
    // reports an accept. Every read here is longer than 1000 samples, so the
    // early stage is reached and escalates; one-shot fields (except
    // `deciding_stage`) and streamed outcomes at every chunk size must match
    // under the default and the drifting w500/r250 normalizer.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    let reference = ReferenceSquiggle::from_genome(&model, &genome);
    let reads: Vec<RawSquiggle> = test_reads(&model, &genome).iter().map(with_drift).collect();
    assert!(reads.iter().all(|read| read.len() > 1_000));
    let drifting = NormalizerConfig::default()
        .with_calibration_window(500)
        .with_recalibration_interval(250);
    for normalizer in [NormalizerConfig::default(), drifting] {
        let probe_config = FilterConfig {
            normalizer,
            ..FilterConfig::hardware(f64::MAX)
        }
        .with_early_exit_interval(0);
        let probe = SquiggleFilter::new(&reference, probe_config);
        let t = probe.score(&reads[0]).expect("target scores").cost;
        let b = probe.score(&reads[1]).expect("background scores").cost;
        let single_config = probe_config.with_threshold((t + b) / 2.0);
        let single = SquiggleFilter::new(&reference, single_config);
        let staged = SquiggleFilter::new(
            &reference,
            FilterConfig {
                early_stage: Some(Stage {
                    prefix_samples: 1_000,
                    threshold: f64::MAX,
                }),
                ..single_config
            },
        );
        for (r, read) in reads.iter().enumerate() {
            let (one, many) = (single.classify(read), staged.classify(read));
            assert_eq!(one.verdict, many.verdict, "read {r}, {normalizer:?}");
            assert_eq!(
                one.samples_used, many.samples_used,
                "read {r}, {normalizer:?}"
            );
            assert_eq!(one.result, many.result, "read {r}, {normalizer:?}");
            for chunk_size in [1usize, 7, 512] {
                let stream = |classifier: &dyn ReadClassifier| {
                    let mut session = classifier.start_read();
                    for chunk in read.samples().chunks(chunk_size) {
                        if session.push_chunk(chunk).is_final() {
                            break;
                        }
                    }
                    session.finalize()
                };
                assert_eq!(
                    stream(&single),
                    stream(&staged),
                    "read {r}, chunk {chunk_size}, {normalizer:?}"
                );
            }
        }
    }
}

#[test]
fn staged_early_exit_rejects_before_the_stage_prefix_and_matches_one_shot() {
    // Two stages with the streaming early-reject bound on (interval at its
    // default): the bound is tested against the current stage's threshold,
    // so an obvious junk read is ejected before even the early stage's
    // 1000-sample prefix, and every verdict still matches the one-shot
    // staged `classify`, at one chunk-invariant decision point.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    let normalizer = NormalizerConfig {
        calibration_window: 500,
        ..Default::default()
    };
    let early_prefix = 1_000;
    // Bonus-free kernel: the early-reject bound is exact (see
    // early_exit_verdicts_match_one_shot_and_are_chunk_invariant).
    let probe_config = FilterConfig {
        normalizer,
        sdtw: SdtwConfig::hardware_without_bonus(),
        ..FilterConfig::hardware(f64::MAX)
    };
    let reads = test_reads(&model, &genome);
    let cost = |prefix_samples: usize, read: &RawSquiggle| {
        let probe = SquiggleFilter::from_genome(
            &model,
            &genome,
            probe_config.with_prefix_samples(prefix_samples),
        );
        probe.score(read).expect("read scores").cost
    };
    // Stage 0 sits between the target and the junk read at 1000
    // samples; the final stage between the target and the background
    // read at the full prefix.
    let (t_early, junk_early) = (cost(early_prefix, &reads[0]), cost(early_prefix, &reads[3]));
    assert!(t_early < junk_early, "{t_early} vs {junk_early}");
    let (t, b) = (
        cost(probe_config.prefix_samples, &reads[0]),
        cost(probe_config.prefix_samples, &reads[1]),
    );
    assert!(t < b, "target {t} vs background {b}");
    let config = FilterConfig {
        early_stage: Some(Stage {
            prefix_samples: early_prefix,
            threshold: (t_early + junk_early) / 2.0,
        }),
        ..probe_config.with_threshold((t + b) / 2.0)
    };
    assert_eq!(
        config.early_exit_interval,
        FilterConfig::DEFAULT_EARLY_EXIT_INTERVAL
    );
    let filter = SquiggleFilter::from_genome(&model, &genome, config);
    for (r, read) in reads.iter().enumerate() {
        let want = filter.classify(read);
        let reference = filter.classify_stream(read);
        assert_eq!(reference.verdict, want.verdict, "read {r}");
        for chunk_size in [1usize, 7, 512] {
            let mut session = filter.start_read();
            for chunk in read.samples().chunks(chunk_size) {
                if session.push_chunk(chunk).is_final() {
                    break;
                }
            }
            let got = session.finalize();
            assert_eq!(got.verdict, want.verdict, "read {r}, chunk {chunk_size}");
            assert_eq!(
                got.samples_consumed, reference.samples_consumed,
                "read {r}, chunk {chunk_size}"
            );
            assert_eq!(got.decided_early, reference.decided_early);
        }
    }
    // The junk read is ejected early, before stage 0's own prefix.
    let junk = filter.classify_stream(&reads[3]);
    assert_eq!(junk.verdict, FilterVerdict::Reject);
    assert!(junk.decided_early);
    assert!(
        junk.samples_consumed < early_prefix,
        "consumed {}",
        junk.samples_consumed
    );
}

#[test]
fn rolling_recalibration_decides_before_the_prefix() {
    // With recalibration_interval below prefix_samples, the sound early
    // reject fires mid-prefix on a drifting baseline — the ejection-latency
    // win rolling re-estimation exists for.
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    // A 1000-sample window re-estimated every 500: short enough that
    // decisions fire mid-prefix, long enough that the estimate keeps the
    // target/background cost separation (a 500-sample window collapses it).
    let normalizer = squigglefilter::squiggle::normalize::NormalizerConfig::default()
        .with_calibration_window(1_000)
        .with_recalibration_interval(500);
    // Bonus-free kernel: the early-reject bound is exact (see
    // early_exit_verdicts_match_one_shot_and_are_chunk_invariant).
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
    // The drifting square wave decides well before the 2000-sample
    // prefix — and the early verdict matches the one-shot path.
    let junk = filter.classify_stream(&reads[3]);
    assert_eq!(junk.verdict, FilterVerdict::Reject);
    assert!(junk.decided_early);
    assert!(
        junk.samples_consumed < probe_config.prefix_samples,
        "consumed {}",
        junk.samples_consumed
    );
    assert_eq!(
        filter
            .classify(&reads[3].prefix(probe_config.prefix_samples))
            .verdict,
        FilterVerdict::Reject,
        "early reject must match one-shot"
    );
    // And the decision point is chunk-invariant.
    for chunk_size in [1usize, 7, 512] {
        let mut session = filter.start_read();
        for chunk in reads[3].samples().chunks(chunk_size) {
            if session.push_chunk(chunk).is_final() {
                break;
            }
        }
        let got = session.finalize();
        assert_eq!(got.samples_consumed, junk.samples_consumed);
    }
}

#[test]
fn batch_classifier_accepts_filter_and_multistage_through_the_trait() {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    let reads = test_reads(&model, &genome);

    let scheduler = SessionScheduler::new(MicroBatchConfig::default().with_workers(2));
    let single = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(30_000.0));
    let single_out = scheduler.classify_batch(&single, reads.iter().map(RawSquiggle::samples));

    let reference = ReferenceSquiggle::from_genome(&model, &genome);
    let staged = SquiggleFilter::new(&reference, FilterConfig::two_stage(25_000.0, 60_000.0));
    let staged_out = scheduler.classify_batch(&staged, reads.iter().map(RawSquiggle::samples));

    assert_eq!(single_out.len(), reads.len());
    assert_eq!(staged_out.len(), reads.len());
    for (i, read) in reads.iter().enumerate() {
        let want = single.classify_stream(read);
        assert_eq!(single_out[i].verdict, want.verdict, "single, read {i}");
        assert_eq!(single_out[i].result, want.result, "single, read {i}");
        let want = staged.classify_stream(read);
        assert_eq!(staged_out[i].verdict, want.verdict, "staged, read {i}");
        assert_eq!(staged_out[i].result, want.result, "staged, read {i}");
    }
}
