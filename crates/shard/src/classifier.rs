//! The sharded multi-target classifier: per-reference fan-out with an
//! order-invariant best-of merge.
//!
//! A [`ShardedClassifier`] holds one single-reference classifier per target
//! (a [`sf_sdtw::SquiggleFilter`], with or without an early stage, in the
//! intended use), fans every read across the shards — batch and streaming
//! paths both, since the fan-out itself implements [`ReadClassifier`] — and
//! merges the per-shard outcomes into one best-of [`StreamClassification`]
//! carrying the winning [`TargetId`].
//!
//! # Merge semantics
//!
//! The merge treats [`StreamClassification::score`] as a *cost* (lower is
//! better — the sDTW filters' convention):
//!
//! * The merged **verdict** is Accept iff any shard accepted. Reject
//!   means the read matched *no* target — exactly the depletion semantics a
//!   pan-target panel wants.
//! * The **winner** is the lowest-cost shard among the accepting shards (or
//!   among all shards when everything rejected), ties broken by the
//!   smaller [`TargetId`]. The merged classification is the winner's, with
//!   [`StreamClassification::target`] stamped.
//! * The merged **samples_consumed** is the maximum over the shards: the
//!   read can only be ejected once every shard has had its say, so that is
//!   what the decision cost in sequencing time.
//!
//! Three invariants are pinned by `tests/sharding_parity.rs`:
//!
//! * a 1-shard catalog is **bit-identical** to the single-reference path
//!   (whole-struct equality, with `target = Some(TargetId(0))`),
//! * [`merge_outcomes`] is a pure function of the `(id, outcome)` multiset —
//!   permuting its input never changes the result,
//! * streaming ≡ one-shot at every chunk size, and sharded sessions behave
//!   identically under the `sf-sched` micro-batched scheduler.

use crate::telemetry::metrics;
use sf_sdtw::{ClassifierSession, Decision, ReadClassifier, StreamClassification, TargetId};

/// One target reference in the catalog: a display name and the
/// single-reference classifier programmed for it.
#[derive(Debug, Clone)]
pub struct Shard<C> {
    name: String,
    classifier: C,
}

impl<C> Shard<C> {
    /// The target's display name (e.g. the virus or strain label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The single-reference classifier bound to this target.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }
}

/// A multi-target classifier: one shard per reference, merged best-of
/// decisions.
///
/// # Examples
///
/// ```
/// use sf_shard::ShardedClassifier;
/// use sf_sdtw::{FilterConfig, ReadClassifier, SquiggleFilter, TargetId};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::random_genome;
/// use sf_squiggle::RawSquiggle;
///
/// let model = KmerModel::synthetic_r94(0);
/// let catalog: Vec<_> = (0..3)
///     .map(|i| {
///         let genome = random_genome(20 + i, 1_500);
///         let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(f64::MAX));
///         (format!("virus-{i}"), filter)
///     })
///     .collect();
/// let sharded = ShardedClassifier::new(catalog);
/// assert_eq!(sharded.shard_count(), 3);
///
/// let outcome = sharded.classify_stream(&RawSquiggle::new(vec![500u16; 2_500], 4_000.0));
/// let winner = outcome.target.expect("sharded outcomes carry a target");
/// assert!(winner.index() < 3);
/// assert!(sharded.target_name(winner).is_some_and(|name| name.starts_with("virus-")));
/// assert_eq!(sharded.target_name(TargetId(3)), None);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedClassifier<C> {
    shards: Vec<Shard<C>>,
}

impl<C> ShardedClassifier<C> {
    /// Builds a catalog from `(name, classifier)` pairs. The position of a
    /// pair is its [`TargetId`].
    pub fn new<I>(shards: I) -> Self
    where
        I: IntoIterator<Item = (String, C)>,
    {
        let shards: Vec<Shard<C>> = shards
            .into_iter()
            .map(|(name, classifier)| Shard { name, classifier })
            .collect();
        assert!(!shards.is_empty(), "a catalog needs at least one target");
        ShardedClassifier { shards }
    }

    /// Number of target references in the catalog.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in [`TargetId`] order.
    pub fn shards(&self) -> &[Shard<C>] {
        &self.shards
    }

    /// The display name of a target, or `None` for an id outside this
    /// catalog.
    pub fn target_name(&self, target: TargetId) -> Option<&str> {
        self.shards
            .get(target.index())
            .map(|shard| shard.name.as_str())
    }
}

impl<C: ReadClassifier> ShardedClassifier<C> {
    /// Opens a streaming session fanning one read across every shard (the
    /// concrete type behind [`ReadClassifier::start_read`]).
    pub fn session(&self) -> ShardedSession<'_> {
        metrics().fanout_sessions.add(self.shards.len() as u64);
        ShardedSession {
            shards: self
                .shards
                .iter()
                .map(|shard| ShardSlot {
                    session: shard.classifier.start_read(),
                    outcome: None,
                })
                .collect(),
            decision: Decision::Wait,
            merged: None,
        }
    }
}

impl<C: ReadClassifier> ReadClassifier for ShardedClassifier<C> {
    fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
        Box::new(self.session())
    }

    fn max_decision_samples(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.classifier.max_decision_samples())
            .max()
            .unwrap_or(0)
    }
}

/// Merges per-shard outcomes into the best-of classification.
///
/// A pure function of the `(id, outcome)` multiset: permuting `outcomes`
/// never changes the result (ties on score resolve to the smaller
/// [`TargetId`], which travels with its outcome). See the module docs for
/// the verdict/winner/samples semantics.
///
/// # Panics
///
/// Panics on an empty slice — a merged decision needs at least one shard.
pub fn merge_outcomes(outcomes: &[(TargetId, StreamClassification)]) -> StreamClassification {
    assert!(!outcomes.is_empty(), "cannot merge zero shard outcomes");
    let any_accept = outcomes.iter().any(|(_, c)| c.verdict.is_accept());
    let (winner_id, winner) = outcomes
        .iter()
        .filter(|(_, c)| c.verdict.is_accept() == any_accept)
        .min_by(|(ida, a), (idb, b)| a.score.total_cmp(&b.score).then(ida.cmp(idb)))
        // The filter keeps at least one element: every outcome when nothing
        // accepted, the accepting ones otherwise.
        // sf-lint: allow(panic) -- filter is non-empty by the any_accept choice
        .expect("non-empty candidate pool");
    let samples_consumed = outcomes
        .iter()
        .map(|(_, c)| c.samples_consumed)
        .max()
        // sf-lint: allow(panic) -- guarded by the non-empty assert above
        .expect("non-empty outcomes");
    StreamClassification {
        target: Some(*winner_id),
        samples_consumed,
        ..*winner
    }
}

/// One shard's in-flight state inside a [`ShardedSession`].
struct ShardSlot<'a> {
    session: Box<dyn ClassifierSession + 'a>,
    /// Latched the moment the shard's decision turns final (the session is
    /// finalized then and never pushed again).
    outcome: Option<StreamClassification>,
}

impl ShardSlot<'_> {
    fn is_final(&self) -> bool {
        self.outcome.is_some()
    }

    fn samples_consumed(&self) -> usize {
        match &self.outcome {
            Some(outcome) => outcome.samples_consumed,
            None => self.session.samples_consumed(),
        }
    }
}

/// An in-progress sharded classification of one read.
///
/// Every chunk is forwarded to every shard whose decision is still open;
/// the merged decision turns final once *all* shards are final.
pub struct ShardedSession<'a> {
    shards: Vec<ShardSlot<'a>>,
    decision: Decision,
    merged: Option<StreamClassification>,
}

impl std::fmt::Debug for ShardedSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.shards.len())
            .field("decision", &self.decision)
            .field("merged", &self.merged)
            .finish()
    }
}

impl ShardedSession<'_> {
    /// Latches the merged classification. Every shard must be final.
    fn latch_merge(&mut self) {
        let outcomes: Vec<(TargetId, StreamClassification)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                (
                    TargetId(i as u32),
                    // sf-lint: allow(panic) -- callers finalize every shard first
                    slot.outcome.expect("shard is final"),
                )
            })
            .collect();
        let merged = merge_outcomes(&outcomes);
        self.decision = merged.verdict.into();
        self.merged = Some(merged);
        metrics().reads.add(1);
    }
}

impl ClassifierSession for ShardedSession<'_> {
    fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
        if self.decision.is_final() {
            return self.decision;
        }
        for slot in &mut self.shards {
            if !slot.is_final() && slot.session.push_chunk(chunk).is_final() {
                slot.outcome = Some(slot.session.finalize());
            }
        }
        if self.shards.iter().all(ShardSlot::is_final) {
            self.latch_merge();
        }
        self.decision
    }

    fn decision(&self) -> Decision {
        self.decision
    }

    fn samples_consumed(&self) -> usize {
        if let Some(merged) = &self.merged {
            return merged.samples_consumed;
        }
        self.shards
            .iter()
            .map(ShardSlot::samples_consumed)
            .max()
            .unwrap_or(0)
    }

    fn finalize(&mut self) -> StreamClassification {
        if let Some(merged) = self.merged {
            return merged;
        }
        for slot in &mut self.shards {
            if !slot.is_final() {
                slot.outcome = Some(slot.session.finalize());
            }
        }
        self.latch_merge();
        // sf-lint: allow(panic) -- latch_merge always sets the merged outcome
        self.merged.expect("merge latched")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_genome::random::random_genome;
    use sf_genome::Sequence;
    use sf_pore_model::{AdcModel, KmerModel};
    use sf_sdtw::{FilterConfig, FilterVerdict, SquiggleFilter};
    use sf_squiggle::RawSquiggle;

    fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
        model.expected_raw_squiggle(fragment, 10, &AdcModel::default())
    }

    fn catalog(model: &KmerModel, genomes: &[Sequence]) -> ShardedClassifier<SquiggleFilter> {
        ShardedClassifier::new(genomes.iter().enumerate().map(|(i, genome)| {
            (
                format!("target-{i}"),
                SquiggleFilter::from_genome(model, genome, FilterConfig::hardware(f64::MAX)),
            )
        }))
    }

    #[test]
    fn winner_is_the_true_target() {
        let model = KmerModel::synthetic_r94(0);
        let genomes: Vec<Sequence> = (0..4).map(|i| random_genome(30 + i, 2_000)).collect();
        let sharded = catalog(&model, &genomes);
        for (i, genome) in genomes.iter().enumerate() {
            let read = noiseless_squiggle(&model, &genome.subsequence(300, 900));
            let outcome = sharded.classify_stream(&read);
            assert_eq!(outcome.target, Some(TargetId(i as u32)), "read {i}");
            assert_eq!(
                sharded.target_name(TargetId(i as u32)),
                Some(format!("target-{i}").as_str())
            );
        }
    }

    #[test]
    fn target_name_is_none_outside_the_catalog() {
        let model = KmerModel::synthetic_r94(0);
        let genomes: Vec<Sequence> = (0..2).map(|i| random_genome(40 + i, 1_000)).collect();
        let sharded = catalog(&model, &genomes);
        assert_eq!(sharded.target_name(TargetId(1)), Some("target-1"));
        assert_eq!(sharded.target_name(TargetId(2)), None);
        assert_eq!(sharded.target_name(TargetId(u32::MAX)), None);
    }

    #[test]
    fn merged_decision_fires_exactly_when_every_shard_is_final() {
        // Shards decide at different prefixes, so the merged decision must
        // wait for the slowest one; a read shorter than the widest prefix
        // must stay open until finalize.
        let model = KmerModel::synthetic_r94(0);
        let genomes: Vec<Sequence> = (0..3).map(|i| random_genome(50 + i, 2_000)).collect();
        let prefixes = [600, 1_000, 1_600];
        let sharded = ShardedClassifier::new(genomes.iter().zip(prefixes).enumerate().map(
            |(i, (genome, prefix_samples))| {
                let config = FilterConfig {
                    prefix_samples,
                    ..FilterConfig::hardware(f64::MAX)
                };
                (
                    format!("target-{i}"),
                    SquiggleFilter::from_genome(&model, genome, config),
                )
            },
        ));
        let reads = [
            noiseless_squiggle(&model, &genomes[1].subsequence(200, 500)),
            noiseless_squiggle(&model, &genomes[0].subsequence(100, 220)),
        ];
        for (r, read) in reads.iter().enumerate() {
            for chunk_size in [1usize, 400] {
                let mut merged = sharded.session();
                let mut singles: Vec<_> = sharded
                    .shards()
                    .iter()
                    .map(|shard| shard.classifier().start_read())
                    .collect();
                let mut saw_partial = false;
                for (c, chunk) in read.samples().chunks(chunk_size).enumerate() {
                    let decision = merged.push_chunk(chunk);
                    for single in &mut singles {
                        if !single.decision().is_final() {
                            let _ = single.push_chunk(chunk);
                        }
                    }
                    let finals = singles.iter().filter(|s| s.decision().is_final()).count();
                    let all_final = finals == singles.len();
                    saw_partial |= finals > 0 && !all_final;
                    let widest = singles.iter().map(|s| s.samples_consumed()).max();
                    let at = format!("read {r}, chunk size {chunk_size}, chunk {c}");
                    assert_eq!(decision, merged.decision(), "{at}");
                    assert_eq!(decision.is_final(), all_final, "{at}");
                    assert_eq!(Some(merged.samples_consumed()), widest, "{at}");
                }
                // The shards' prefixes differ, so some chunk must leave the
                // catalog split between decided and open shards.
                assert!(saw_partial, "read {r}, chunk size {chunk_size}");
            }
        }
    }

    #[test]
    fn merged_samples_consumed_is_the_shard_maximum() {
        let model = KmerModel::synthetic_r94(0);
        let genomes: Vec<Sequence> = (0..2).map(|i| random_genome(35 + i, 2_000)).collect();
        let sharded = catalog(&model, &genomes);
        let read = noiseless_squiggle(&model, &genomes[0].subsequence(0, 800));
        let merged = sharded.classify_stream(&read);
        let per_shard: Vec<usize> = sharded
            .shards()
            .iter()
            .map(|s| s.classifier().classify_stream(&read).samples_consumed)
            .collect();
        assert_eq!(
            merged.samples_consumed,
            per_shard.iter().copied().max().unwrap()
        );
    }

    #[test]
    fn merge_prefers_accepts_then_lowest_cost_then_smallest_id() {
        let base = StreamClassification {
            verdict: FilterVerdict::Reject,
            score: 10.0,
            result: None,
            samples_consumed: 100,
            decided_early: false,
            target: None,
        };
        let accept = |score: f64| StreamClassification {
            verdict: FilterVerdict::Accept,
            score,
            ..base
        };
        // An accept beats a lower-cost reject.
        let merged = merge_outcomes(&[
            (TargetId(0), StreamClassification { score: 1.0, ..base }),
            (TargetId(1), accept(5.0)),
        ]);
        assert_eq!(merged.verdict, FilterVerdict::Accept);
        assert_eq!(merged.target, Some(TargetId(1)));
        // Among accepts, the lowest cost wins; ties go to the smaller id.
        let merged = merge_outcomes(&[
            (TargetId(2), accept(3.0)),
            (TargetId(1), accept(3.0)),
            (TargetId(0), accept(4.0)),
        ]);
        assert_eq!(merged.target, Some(TargetId(1)));
        assert_eq!(merged.score, 3.0);
        // All rejects: still a winner (the closest miss), verdict Reject.
        let merged = merge_outcomes(&[
            (TargetId(0), StreamClassification { score: 9.0, ..base }),
            (TargetId(1), StreamClassification { score: 2.0, ..base }),
        ]);
        assert_eq!(merged.verdict, FilterVerdict::Reject);
        assert_eq!(merged.target, Some(TargetId(1)));
    }

    #[test]
    fn empty_read_finalizes_like_the_single_path() {
        let model = KmerModel::synthetic_r94(0);
        let genomes = vec![random_genome(44, 1_500)];
        let sharded = catalog(&model, &genomes);
        let mut session = sharded.session();
        let merged = session.finalize();
        let single = sharded.shards()[0]
            .classifier()
            .classify_stream(&RawSquiggle::new(Vec::new(), 4_000.0));
        assert_eq!(
            merged,
            StreamClassification {
                target: Some(TargetId(0)),
                ..single
            }
        );
    }
}
