//! Multi-stage sDTW filtering (paper §4.6).
//!
//! Waiting for a long read prefix makes classification more accurate but
//! wastes sequencing time on non-target reads. A two-stage filter gets the
//! best of both: an early stage with a short prefix and a *permissive*
//! threshold ejects the obviously-non-target reads after only ~1000 samples,
//! and the final stage re-examines the survivors with a longer prefix and a
//! more aggressive threshold. Intermediate DP state is carried between
//! stages so nothing is recomputed — exactly what the accelerator does by
//! spilling the last PE's costs to DRAM.
//!
//! This module holds the [`Stage`] type. A filter gains its early stage
//! through [`FilterConfig::early_stage`](crate::FilterConfig::early_stage)
//! ([`FilterConfig::two_stage`](crate::FilterConfig::two_stage) is the
//! paper's example); the staged filter and its
//! [`FilterSession`](crate::FilterSession) live in [`crate::filter`].

/// One filtering stage: examine `prefix_samples` of the read and reject it if
/// the alignment cost exceeds `threshold`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Stage {
    /// Cumulative number of samples examined by the end of this stage.
    pub prefix_samples: usize,
    /// Cost threshold for this stage (total alignment cost).
    pub threshold: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ClassifierSession, Decision, ReadClassifier};
    use crate::filter::{FilterConfig, FilterVerdict, SquiggleFilter};
    use sf_genome::random::random_genome;
    use sf_genome::Sequence;
    use sf_pore_model::{KmerModel, ReferenceSquiggle};
    use sf_squiggle::RawSquiggle;

    fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
        model.expected_raw_squiggle(fragment, 10, &sf_pore_model::AdcModel::default())
    }

    fn setup() -> (KmerModel, Sequence, ReferenceSquiggle) {
        let model = KmerModel::synthetic_r94(0);
        let genome = random_genome(21, 3_000);
        let reference = ReferenceSquiggle::from_genome(&model, &genome);
        (model, genome, reference)
    }

    /// Midpoint between a target and a background read's costs when both are
    /// scored by a single-stage filter at `prefix_samples` — i.e. calibrated
    /// in the exact cost domain that stage will see.
    fn midpoint_threshold(
        reference: &ReferenceSquiggle,
        target: &RawSquiggle,
        background: &RawSquiggle,
        prefix_samples: usize,
    ) -> f64 {
        let probe = SquiggleFilter::new(
            reference,
            FilterConfig::hardware(f64::MAX).with_prefix_samples(prefix_samples),
        );
        let t_cost = probe.classify(target).result.cost;
        let b_cost = probe.classify(background).result.cost;
        assert!(t_cost < b_cost, "target {t_cost} vs background {b_cost}");
        (t_cost + b_cost) / 2.0
    }

    #[test]
    fn obvious_background_is_rejected_at_stage_zero() {
        let (model, genome, reference) = setup();
        let target = noiseless_squiggle(&model, &genome.subsequence(0, 1_000));
        // An obviously-non-target read: a square wave swinging across the ADC
        // range matches nothing in any reference.
        let background = RawSquiggle::new(
            (0..10_000)
                .map(|i| if i % 2 == 0 { 120 } else { 880 })
                .collect(),
            4_000.0,
        );
        // Stage 0 gets a threshold calibrated at its own 1000-sample prefix;
        // the final stage is permissive here because absolute int8 costs move
        // with the 2000-sample normalization window (threshold *accuracy*
        // across stages is covered by the end-to-end integration test) — this
        // test pins the staging mechanics themselves.
        let early = midpoint_threshold(&reference, &target, &background, 1_000);
        let filter = SquiggleFilter::new(&reference, FilterConfig::two_stage(early, f64::MAX));

        let rejected = filter.classify(&background);
        assert_eq!(rejected.verdict, FilterVerdict::Reject);
        assert_eq!(rejected.deciding_stage, 0);
        assert_eq!(rejected.samples_used, 1_000);

        let accepted = filter.classify(&target);
        assert_eq!(accepted.verdict, FilterVerdict::Accept);
        assert_eq!(accepted.deciding_stage, 1);
        assert!(
            accepted.samples_used > 1_000,
            "survivors are examined further"
        );
    }

    #[test]
    fn borderline_reads_survive_to_a_later_stage() {
        let (model, _genome, reference) = setup();
        let background = noiseless_squiggle(&model, &random_genome(78, 1_000));
        let single = SquiggleFilter::new(
            &reference,
            FilterConfig::hardware(f64::MAX).with_prefix_samples(1_000),
        );
        let b_cost = single.score(&background).unwrap().cost;
        // Stage 0 is permissive (well above the background cost, with margin
        // for the slightly different normalization window), stage 1 rejects
        // everything.
        let config = FilterConfig::two_stage(b_cost + 5_000.0, f64::NEG_INFINITY);
        let filter = SquiggleFilter::new(&reference, config);
        let outcome = filter.classify(&background);
        assert_eq!(outcome.verdict, FilterVerdict::Reject);
        assert_eq!(outcome.deciding_stage, 1);
        assert!(outcome.samples_used > 1_000);
    }

    #[test]
    fn short_read_decides_on_available_samples() {
        let (_, _, reference) = setup();
        let filter = SquiggleFilter::new(&reference, FilterConfig::two_stage(f64::MAX, f64::MAX));
        // Only 1500 samples available, less than the stage-1 prefix of 5000.
        let read = RawSquiggle::new(vec![480; 1_500], 4_000.0);
        let outcome = filter.classify(&read);
        assert!(outcome.verdict.is_accept());
        assert_eq!(outcome.samples_used, 1_500);
    }

    #[test]
    fn empty_read_is_accepted() {
        let (_, _, reference) = setup();
        let filter = SquiggleFilter::new(&reference, FilterConfig::two_stage(1.0, 1.0));
        let outcome = filter.classify(&RawSquiggle::new(Vec::new(), 4_000.0));
        assert!(outcome.verdict.is_accept());
        assert_eq!(outcome.samples_used, 0);
    }

    #[test]
    fn staged_result_matches_single_stage_at_same_prefix() {
        // Because state is carried over, the cost at the final stage must be
        // identical to a single-stage filter examining the same prefix.
        let (model, genome, reference) = setup();
        let target = noiseless_squiggle(&model, &genome.subsequence(500, 1_500));
        let staged = SquiggleFilter::new(&reference, FilterConfig::two_stage(f64::MAX, f64::MAX));
        let outcome = staged.classify(&target);

        let single = SquiggleFilter::new(
            &reference,
            FilterConfig::hardware(f64::MAX).with_prefix_samples(5_000),
        );
        let expected = single.score(&target).unwrap();
        assert_eq!(outcome.result.cost, expected.cost);
        assert_eq!(outcome.result.end_position, expected.end_position);
    }

    #[test]
    fn short_read_stage_decision_never_reports_more_samples_than_received() {
        // 1500 samples: past the stage-0 prefix (1000) but short of the
        // 2000-sample calibration window. The stage-0 reject resolves in
        // finalize and must report the read's actual length, not the window.
        let (_, _, reference) = setup();
        let filter = SquiggleFilter::new(
            &reference,
            FilterConfig::two_stage(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        let read = RawSquiggle::new(vec![480; 1_500], 4_000.0);
        let outcome = filter.classify_stream(&read);
        assert_eq!(outcome.verdict, FilterVerdict::Reject);
        assert_eq!(outcome.samples_consumed, 1_500);
        assert!(!outcome.decided_early);
    }

    #[test]
    fn read_ending_exactly_at_a_stage_boundary_matches_classify() {
        // A read of exactly 1000 samples that passes stage 0: `classify`
        // treats stage 0 as the last stage (consumed == query length) and
        // accepts; the streaming session must not judge it against the
        // never-reached stage 1 (whose threshold here rejects everything).
        let (_, _, reference) = setup();
        let filter = SquiggleFilter::new(
            &reference,
            FilterConfig::two_stage(f64::MAX, f64::NEG_INFINITY),
        );
        let read = RawSquiggle::new(vec![480; 1_000], 4_000.0);
        let want = filter.classify(&read);
        assert_eq!(want.verdict, FilterVerdict::Accept);
        assert_eq!(want.deciding_stage, 0);
        for chunk_size in [1usize, 250, 1_000] {
            let mut session = filter.session();
            for chunk in read.samples().chunks(chunk_size) {
                let _ = session.push_chunk(chunk);
            }
            let got = session.finalize();
            assert_eq!(got.verdict, want.verdict, "chunk {chunk_size}");
            assert_eq!(got.result, Some(want.result), "chunk {chunk_size}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_stages_panic() {
        let (_, _, reference) = setup();
        let config = FilterConfig {
            early_stage: Some(Stage {
                prefix_samples: 2_000,
                threshold: 1.0,
            }),
            ..FilterConfig::two_stage(1.0, 1.0).with_prefix_samples(1_000)
        };
        let _ = SquiggleFilter::new(&reference, config);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_prefix_early_stage_panics() {
        // A zero-sample stage decides on nothing: one-shot would accept on
        // no samples, while a session never reaches its prefix.
        let (_, _, reference) = setup();
        let config = FilterConfig {
            early_stage: Some(Stage {
                prefix_samples: 0,
                threshold: 1.0,
            }),
            ..FilterConfig::two_stage(1.0, 1.0)
        };
        let _ = SquiggleFilter::new(&reference, config);
    }

    #[test]
    fn streaming_session_matches_one_shot_classify() {
        let (model, genome, reference) = setup();
        let target = noiseless_squiggle(&model, &genome.subsequence(0, 1_000));
        let background = RawSquiggle::new(
            (0..10_000)
                .map(|i| if i % 2 == 0 { 120 } else { 880 })
                .collect(),
            4_000.0,
        );
        let early = midpoint_threshold(&reference, &target, &background, 1_000);
        let filter = SquiggleFilter::new(&reference, FilterConfig::two_stage(early, f64::MAX));
        for squiggle in [&target, &background] {
            let want = filter.classify(squiggle);
            for chunk_size in [1usize, 333, 4_096] {
                let mut session = filter.session();
                for chunk in squiggle.samples().chunks(chunk_size) {
                    let _ = session.push_chunk(chunk);
                }
                let got = session.finalize();
                assert_eq!(got.verdict, want.verdict, "chunk {chunk_size}");
                assert_eq!(got.result, Some(want.result), "chunk {chunk_size}");
                // Streaming reports raw-signal arrival time: the deciding
                // stage's prefix, but never before the 2000-sample
                // calibration window.
                assert_eq!(got.samples_consumed, want.samples_used.max(2_000));
            }
        }
        // The background read is ejected by stage 0 (DP position 1000); the
        // decision becomes available once the 2000-sample normalization
        // window has streamed in — still well before the 5000-sample final
        // stage.
        let ejected = filter.classify_stream(&background);
        assert_eq!(ejected.verdict, FilterVerdict::Reject);
        assert!(ejected.decided_early);
        assert_eq!(ejected.result.unwrap().query_samples, 1_000);
        assert_eq!(ejected.samples_consumed, 2_000);
    }

    #[test]
    fn streaming_short_and_empty_reads_match_classify() {
        let (_, _, reference) = setup();
        let filter = SquiggleFilter::new(&reference, FilterConfig::two_stage(f64::MAX, f64::MAX));
        let short = RawSquiggle::new(vec![480; 1_500], 4_000.0);
        let want = filter.classify(&short);
        let got = filter.classify_stream(&short);
        assert_eq!(got.verdict, want.verdict);
        assert_eq!(got.samples_consumed, want.samples_used);
        assert_eq!(got.result, Some(want.result));

        let mut empty = filter.session();
        assert_eq!(empty.push_chunk(&[]), Decision::Wait);
        let outcome = empty.finalize();
        assert_eq!(outcome.verdict, FilterVerdict::Accept);
        assert_eq!(outcome.samples_consumed, 0);
    }
}
