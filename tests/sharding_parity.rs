//! Sharding parity: the multi-target fan-out must never change what a
//! single-reference classifier would have said.
//!
//! Pinned here: a 1-shard catalog is *bit-identical* (whole-struct
//! `StreamClassification` equality) to the single-reference path; growing
//! the catalog (1 → 2 → 8 shards) never changes a verdict or the winning
//! target; the merge is a pure order-invariant function of the per-shard
//! outcomes; streaming ≡ one-shot at every chunk size; and
//! sharded sessions under the micro-batched `SessionScheduler` match the
//! sequential drive, read for read.

use squigglefilter::pore_model::AdcModel;
use squigglefilter::prelude::*;
use squigglefilter::sdtw::{SdtwConfig, TargetId};
use squigglefilter::shard::merge_outcomes;
use std::sync::mpsc;

/// The ideal 10-samples-per-base squiggle for a fragment.
fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
    model.expected_raw_squiggle(fragment, 10, &AdcModel::default())
}

/// Eight distinct reference genomes; index 0 is "the" target of most reads.
fn reference_set(count: usize) -> Vec<Sequence> {
    (0..count)
        .map(|i| squigglefilter::genome::random::random_genome(90 + i as u64, 2_000))
        .collect()
}

/// A read mix covering every decision path: matching, background, short,
/// and junk that early-rejects under a calibrated threshold.
fn test_reads(model: &KmerModel, genome: &Sequence) -> Vec<RawSquiggle> {
    vec![
        noiseless_squiggle(model, &genome.subsequence(400, 1_100)),
        noiseless_squiggle(
            model,
            &squigglefilter::genome::random::random_genome(77, 700),
        ),
        noiseless_squiggle(model, &genome.subsequence(0, 120)),
        RawSquiggle::new(
            (0..4_000)
                .map(|i| if i % 2 == 0 { 120 } else { 880 })
                .collect(),
            4_000.0,
        ),
        noiseless_squiggle(model, &genome.subsequence(1_200, 1_900)),
    ]
}

/// A filter config with a threshold calibrated between the target and
/// background read costs, so accepts, rejects and early exits all fire.
fn calibrated_config(model: &KmerModel, genome: &Sequence) -> FilterConfig {
    let probe_config = FilterConfig {
        sdtw: SdtwConfig::hardware_without_bonus(),
        ..FilterConfig::hardware(f64::MAX)
    };
    let probe = SquiggleFilter::from_genome(model, genome, probe_config);
    let reads = test_reads(model, genome);
    let t = probe.score(&reads[0]).expect("target scores").cost;
    let b = probe.score(&reads[1]).expect("background scores").cost;
    assert!(t < b, "target {t} vs background {b}");
    probe_config.with_threshold((t + b) / 2.0)
}

/// A catalog over the given genomes, every shard sharing one config.
fn sharded(
    model: &KmerModel,
    genomes: &[Sequence],
    config: FilterConfig,
) -> ShardedClassifier<SquiggleFilter> {
    ShardedClassifier::new(genomes.iter().enumerate().map(|(i, genome)| {
        (
            format!("target-{i}"),
            SquiggleFilter::from_genome(model, genome, config),
        )
    }))
}

#[test]
fn one_shard_catalog_is_bit_identical_to_the_single_reference_path() {
    let model = KmerModel::synthetic_r94(0);
    let genomes = reference_set(1);
    // Both regimes: no threshold (full alignments resolve) and a
    // calibrated threshold (early rejects fire mid-read).
    let configs = [
        FilterConfig::hardware(f64::MAX),
        calibrated_config(&model, &genomes[0]),
    ];
    for config in configs {
        let single = SquiggleFilter::from_genome(&model, &genomes[0], config);
        let catalog = sharded(&model, &genomes, config);
        for (r, read) in test_reads(&model, &genomes[0]).iter().enumerate() {
            let want = single.classify_stream(read);
            let got = catalog.classify_stream(read);
            // Whole-struct equality: score, alignment result, sample
            // count and early flag all match bit for bit — the only
            // difference is the stamped winning target.
            assert_eq!(
                got,
                StreamClassification {
                    target: Some(TargetId(0)),
                    ..want
                },
                "read {r}"
            );
        }
    }
}

#[test]
fn growing_the_catalog_changes_neither_verdict_nor_winner() {
    let model = KmerModel::synthetic_r94(0);
    let genomes = reference_set(8);
    let config = calibrated_config(&model, &genomes[0]);
    let reads = test_reads(&model, &genomes[0]);
    let baseline: Vec<StreamClassification> = {
        let catalog = sharded(&model, &genomes[..1], config);
        reads.iter().map(|r| catalog.classify_stream(r)).collect()
    };
    for shard_count in [2usize, 8] {
        let catalog = sharded(&model, &genomes[..shard_count], config);
        for (r, read) in reads.iter().enumerate() {
            let got = catalog.classify_stream(read);
            assert_eq!(
                got.verdict, baseline[r].verdict,
                "read {r}, {shard_count} shards"
            );
            if got.verdict.is_accept() {
                // Accepted reads keep attributing to the true target no
                // matter how many decoy references join the catalog.
                assert_eq!(
                    got.target,
                    Some(TargetId(0)),
                    "read {r}, {shard_count} shards"
                );
            }
        }
    }
}

#[test]
fn merge_is_invariant_under_input_permutation() {
    let model = KmerModel::synthetic_r94(0);
    let genomes = reference_set(8);
    let config = calibrated_config(&model, &genomes[0]);
    let filters: Vec<SquiggleFilter> = genomes
        .iter()
        .map(|g| SquiggleFilter::from_genome(&model, g, config))
        .collect();
    for read in test_reads(&model, &genomes[0]) {
        let outcomes: Vec<(TargetId, StreamClassification)> = filters
            .iter()
            .enumerate()
            .map(|(i, f)| (TargetId(i as u32), f.classify_stream(&read)))
            .collect();
        let want = merge_outcomes(&outcomes);
        // Rotations, the reversal, and a deterministic shuffle all merge to
        // the identical struct: the merge sees a multiset, not a sequence.
        for rotation in 0..outcomes.len() {
            let mut permuted = outcomes.clone();
            permuted.rotate_left(rotation);
            assert_eq!(merge_outcomes(&permuted), want, "rotation {rotation}");
        }
        let mut reversed = outcomes.clone();
        reversed.reverse();
        assert_eq!(merge_outcomes(&reversed), want, "reversal");
        let mut shuffled = outcomes.clone();
        shuffled.sort_by_key(|(id, _)| (id.0 * 5) % 8);
        assert_eq!(merge_outcomes(&shuffled), want, "stride shuffle");
    }
}

#[test]
fn merge_breaks_score_ties_order_independently() {
    // Exact ties are real on panels with near-identical strains: the merge
    // must resolve them by TargetId, which travels with its outcome.
    let tied = StreamClassification {
        verdict: FilterVerdict::Accept,
        score: 42.0,
        result: None,
        samples_consumed: 1_000,
        decided_early: false,
        target: None,
    };
    let outcomes = vec![
        (TargetId(3), tied),
        (TargetId(1), tied),
        (TargetId(2), tied),
    ];
    let want = merge_outcomes(&outcomes);
    assert_eq!(want.target, Some(TargetId(1)));
    let mut reversed = outcomes.clone();
    reversed.reverse();
    assert_eq!(merge_outcomes(&reversed), want);
}

#[test]
fn catalog_order_changes_neither_verdict_nor_winning_name() {
    let model = KmerModel::synthetic_r94(0);
    let genomes = reference_set(4);
    let config = calibrated_config(&model, &genomes[0]);
    let forward = sharded(&model, &genomes, config);
    let reversed: Vec<Sequence> = genomes.iter().rev().cloned().collect();
    let backward = ShardedClassifier::new(reversed.iter().enumerate().map(|(i, genome)| {
        (
            format!("target-{}", genomes.len() - 1 - i),
            SquiggleFilter::from_genome(&model, genome, config),
        )
    }));
    for (r, read) in test_reads(&model, &genomes[0]).iter().enumerate() {
        let a = forward.classify_stream(read);
        let b = backward.classify_stream(read);
        assert_eq!(a.verdict, b.verdict, "read {r}");
        assert_eq!(a.score, b.score, "read {r}");
        let name_a = forward
            .target_name(a.target.expect("stamped"))
            .expect("in catalog");
        let name_b = backward
            .target_name(b.target.expect("stamped"))
            .expect("in catalog");
        assert_eq!(name_a, name_b, "read {r}");
    }
}

#[test]
fn sharded_streaming_is_bit_identical_to_one_shot() {
    let model = KmerModel::synthetic_r94(0);
    let genomes = reference_set(3);
    let config = calibrated_config(&model, &genomes[0]);
    let catalog = sharded(&model, &genomes, config);
    for (r, read) in test_reads(&model, &genomes[0]).iter().enumerate() {
        let want = catalog.classify_stream(read);
        for chunk_size in [1usize, 7, 512] {
            let mut session = catalog.session();
            for chunk in read.samples().chunks(chunk_size) {
                if session.push_chunk(chunk).is_final() {
                    break;
                }
            }
            assert_eq!(session.finalize(), want, "read {r}, chunk {chunk_size}");
        }
    }
}

/// Round-robins `chunk_size`-sized chunks of every read into the scheduler
/// and returns the per-read classifications (same harness as
/// `tests/scheduler_parity.rs`).
fn scheduler_outcomes<C: ReadClassifier + Sync>(
    classifier: &C,
    reads: &[RawSquiggle],
    chunk_size: usize,
    config: MicroBatchConfig,
) -> Vec<StreamClassification> {
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
    assert_eq!(report.sessions_completed as usize, reads.len());
    let mut out = vec![None; reads.len()];
    while let Ok(outcome) = done_rx.try_recv() {
        let slot = &mut out[outcome.id.0 as usize];
        assert!(slot.is_none(), "duplicate outcome for {:?}", outcome.id);
        *slot = Some(outcome.classification);
    }
    out.into_iter()
        .map(|o| o.expect("every session resolved"))
        .collect()
}

/// The sequential reference: one session, same chunk stream, stop at the
/// first final decision (the scheduler's eviction does the same).
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
fn sharded_sessions_under_the_scheduler_match_the_sequential_drive() {
    let model = KmerModel::synthetic_r94(0);
    let genomes = reference_set(3);
    let config = calibrated_config(&model, &genomes[0]);
    let catalog = sharded(&model, &genomes, config);
    let reads = test_reads(&model, &genomes[0]);
    for chunk_size in [7usize, 512] {
        for workers in [1usize, 3] {
            let batch = MicroBatchConfig::default().with_workers(workers);
            let got = scheduler_outcomes(&catalog, &reads, chunk_size, batch);
            for (r, read) in reads.iter().enumerate() {
                let want = sequential_outcome(&catalog, read, chunk_size);
                assert_eq!(
                    got[r], want,
                    "read {r}, chunk {chunk_size}, workers {workers}"
                );
            }
        }
    }
}
