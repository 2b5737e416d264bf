//! Streaming chunk-wise read classification — the Read Until decision loop.
//!
//! The whole point of SquiggleFilter is that the eject-or-keep decision is
//! made *online*, while raw-signal chunks are still streaming off the pore.
//! This module defines the interface every classifier in the workspace speaks:
//!
//! * [`ReadClassifier::start_read`] opens a [`ClassifierSession`] for one read,
//! * [`ClassifierSession::push_chunk`] feeds the next chunk of raw ADC samples
//!   and returns a three-way [`Decision`]: [`Decision::Accept`],
//!   [`Decision::Reject`], or [`Decision::Wait`] (more signal needed),
//! * [`ClassifierSession::finalize`] resolves a still-waiting session (e.g.
//!   when the read ends early) into a [`StreamClassification`] whose
//!   [`FilterVerdict`] is the binary resolved form.
//!
//! Implementors: [`crate::SquiggleFilter`] (sDTW with a sound early-reject
//! bound, and stage escalation as chunks accumulate when it has an early
//! stage) and `sf_align::MapperClassifier` (the basecall-and-map baseline).
//! Consumers, all generic over any `ReadClassifier`:
//! `sf_sched::SessionScheduler` (interleaved chunk arrivals and whole-read
//! batches), `sf_readuntil::run_service` (the Read Until service loop that
//! drives the scheduler from a flow-cell arrival trace) and
//! `sf_shard::ShardedClassifier` (one session per reference shard, merged
//! into one decision). `sf_sim::RatePolicy::from_session_stats` summarizes
//! the resulting [`StreamClassification`]s into a flow-cell policy.

use crate::filter::FilterVerdict;
use crate::result::SdtwResult;
use sf_squiggle::RawSquiggle;

/// Chunk-wise Read Until decision for an in-progress read.
///
/// Unlike the binary [`FilterVerdict`], a streaming decision has a third
/// state: the classifier may not have seen enough signal yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[must_use = "an unobserved Reject never reaches the sequencer; match on the decision or check is_final()"]
pub enum Decision {
    /// The read matches the target: keep sequencing it.
    Accept,
    /// The read does not match: instruct the sequencer to eject it.
    Reject,
    /// Not enough signal yet — push more chunks (or finalize).
    Wait,
}

impl Decision {
    /// `true` once the session has committed to [`Decision::Accept`] or
    /// [`Decision::Reject`]; pushing further chunks is then a no-op.
    pub fn is_final(self) -> bool {
        self != Decision::Wait
    }

    /// The resolved verdict, or `None` while the session is still waiting.
    pub fn verdict(self) -> Option<FilterVerdict> {
        match self {
            Decision::Accept => Some(FilterVerdict::Accept),
            Decision::Reject => Some(FilterVerdict::Reject),
            Decision::Wait => None,
        }
    }
}

impl From<FilterVerdict> for Decision {
    fn from(verdict: FilterVerdict) -> Self {
        match verdict {
            FilterVerdict::Accept => Decision::Accept,
            FilterVerdict::Reject => Decision::Reject,
        }
    }
}

/// A point-in-time snapshot of an in-progress session: the current decision
/// and how many raw samples the session has consumed to reach it.
///
/// This is the surface a session-agnostic driver (the `sf-sched` micro-batch
/// scheduler) needs to steer thousands of `Box<dyn ClassifierSession>`s
/// generically: after every [`ClassifierSession::advance`] it inspects the
/// returned state to decide whether the session keeps waiting for signal or
/// is finalized and evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[must_use]
pub struct SessionState {
    /// The session's current three-way decision.
    pub decision: Decision,
    /// Raw samples consumed so far (clamped to the classifier's budget).
    pub samples_consumed: usize,
}

impl SessionState {
    /// `true` once the session has committed to Accept or Reject.
    pub fn is_final(&self) -> bool {
        self.decision.is_final()
    }
}

/// Identifies one target reference within a sharded multi-target catalog.
///
/// Single-reference classifiers have no catalog and leave
/// [`StreamClassification::target`] as `None`; a sharded classifier stamps
/// the index of the winning shard (its position in the catalog) so callers
/// can recover *which* target a read matched, not just that it matched.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TargetId(pub u32);

impl TargetId {
    /// The shard index as a usize, for indexing a target catalog.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The resolved outcome of a finished streaming session.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[must_use]
pub struct StreamClassification {
    /// The binary resolved verdict ([`Decision::Wait`] never survives
    /// [`ClassifierSession::finalize`]).
    pub verdict: FilterVerdict,
    /// Classifier-specific decision score: the sDTW alignment cost for the
    /// filter implementations, the chain score for the mapper baseline.
    pub score: f64,
    /// Alignment detail at decision time, when the classifier is sDTW-based.
    pub result: Option<SdtwResult>,
    /// Raw samples the classifier consumed before deciding — what determines
    /// how much sequencing time the decision cost.
    pub samples_consumed: usize,
    /// `true` when the decision fired before the classifier's sample budget
    /// ([`ReadClassifier::max_decision_samples`]) was exhausted.
    pub decided_early: bool,
    /// The winning target in a sharded multi-target catalog, `None` for
    /// single-reference classifiers.
    pub target: Option<TargetId>,
}

/// An in-progress streaming classification of one read.
///
/// Sessions are cheap to create (one per read) and hold the classifier's
/// incremental state: buffered calibration samples, rolling normalization
/// parameters, a partially-filled DP row, or a growing basecall buffer.
/// After a final decision further chunks are ignored and
/// [`ClassifierSession::push_chunk`] keeps returning the same decision.
///
/// # Examples
///
/// The Read Until loop in miniature — push chunks until the session commits,
/// then finalize:
///
/// ```
/// use sf_sdtw::{ClassifierSession, Decision, FilterConfig, ReadClassifier, SquiggleFilter};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::random_genome;
///
/// let model = KmerModel::synthetic_r94(0);
/// let genome = random_genome(5, 1_200);
/// let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(f64::MAX));
///
/// let mut session = filter.start_read();
/// assert_eq!(session.decision(), Decision::Wait);
/// let read = vec![480u16; 2_500];
/// for chunk in read.chunks(400) {
///     if session.push_chunk(chunk).is_final() {
///         break; // a real driver would tell the sequencer here
///     }
/// }
/// let outcome = session.finalize();
/// assert!(outcome.samples_consumed <= filter.max_decision_samples());
/// ```
pub trait ClassifierSession {
    /// Feeds the next chunk of raw ADC samples, returning the current
    /// decision. Chunk boundaries never affect the outcome: any chunking of
    /// the same sample stream yields the same decisions at the same sample
    /// counts.
    fn push_chunk(&mut self, chunk: &[u16]) -> Decision;

    /// The current decision without pushing any samples.
    fn decision(&self) -> Decision;

    /// Raw samples consumed so far (clamped to the classifier's budget).
    fn samples_consumed(&self) -> usize;

    /// Resolves the session into a final classification. If the decision is
    /// still [`Decision::Wait`] (the read ended before the sample budget was
    /// reached) the classifier decides on whatever it has seen, matching the
    /// one-shot path on the same prefix. The session is spent afterwards.
    fn finalize(&mut self) -> StreamClassification;

    /// The current [`SessionState`] without pushing any samples.
    fn state(&self) -> SessionState {
        SessionState {
            decision: self.decision(),
            samples_consumed: self.samples_consumed(),
        }
    }

    /// Feeds `samples` (any coalesced run of pending chunks) and returns the
    /// resulting [`SessionState`] snapshot. Exactly equivalent to
    /// [`ClassifierSession::push_chunk`] followed by
    /// [`ClassifierSession::state`]: chunk-boundary invariance means a driver
    /// may coalesce any number of per-poll chunks into one `advance` call
    /// without changing the decision or the sample count it fires at.
    fn advance(&mut self, samples: &[u16]) -> SessionState {
        let decision = self.push_chunk(samples);
        SessionState {
            decision,
            samples_consumed: self.samples_consumed(),
        }
    }
}

/// A classifier that makes chunk-wise Accept/Reject/Wait decisions on
/// streaming raw signal.
///
/// The trait is object-safe: code that must be classifier-agnostic at
/// runtime takes a `&dyn ReadClassifier` (as `examples/read_until_stream.rs`
/// does).
///
/// # Examples
///
/// Streaming a whole squiggle through a fresh session is equivalent to any
/// chunked feeding of the same samples — [`ReadClassifier::classify_stream`]
/// is exactly that loop:
///
/// ```
/// use sf_sdtw::{FilterConfig, ReadClassifier, SquiggleFilter};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::random_genome;
/// use sf_squiggle::RawSquiggle;
///
/// let model = KmerModel::synthetic_r94(0);
/// let genome = random_genome(5, 1_200);
/// let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(f64::MAX));
///
/// let read = RawSquiggle::new(vec![480u16; 2_500], 4_000.0);
/// let whole = filter.classify_stream(&read);
///
/// let mut session = filter.start_read();
/// for chunk in read.samples().chunks(7) {
///     let _ = session.push_chunk(chunk);
/// }
/// let chunked = session.finalize();
/// assert_eq!(whole.verdict, chunked.verdict);
/// assert_eq!(whole.result, chunked.result);
/// ```
pub trait ReadClassifier {
    /// Opens a streaming session for one read.
    fn start_read(&self) -> Box<dyn ClassifierSession + '_>;

    /// Upper bound on the raw samples a session consumes before committing to
    /// a decision (the decision prefix). Drivers use it to size signal
    /// buffers and to convert decisions into sequencing time.
    fn max_decision_samples(&self) -> usize;

    /// Convenience: streams an entire squiggle through a fresh session and
    /// finalizes it. Equivalent to any chunked feeding of the same samples.
    fn classify_stream(&self, squiggle: &RawSquiggle) -> StreamClassification {
        let mut session = self.start_read();
        let _ = session.push_chunk(squiggle.samples());
        session.finalize()
    }
}

impl<T: ReadClassifier + ?Sized> ReadClassifier for &T {
    fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
        (**self).start_read()
    }

    fn max_decision_samples(&self) -> usize {
        (**self).max_decision_samples()
    }
}

// Scaffolding of the sDTW streaming session, defined in
// `sf_squiggle::normalize` where it also backs the batch normalization entry
// points. The feed buffers raw samples until the normalizer's calibration
// window fills, estimates the normalization parameters, re-estimates them
// over the trailing window every `NormalizerConfig::recalibration_interval`
// samples, and drains normalized samples through the session's per-sample
// sink (which returns `true` to stop after a final decision). One shared
// state machine is what keeps the staged session (`crate::FilterSession`,
// behind every `SquiggleFilter`) and the one-shot `classify` loop
// bit-identical in how they normalize, the property the streaming/one-shot
// parity tests pin down even when parameters drift mid-read.
pub(crate) use sf_squiggle::normalize::CalibratingFeed;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_finality_and_verdicts() {
        assert!(Decision::Accept.is_final());
        assert!(Decision::Reject.is_final());
        assert!(!Decision::Wait.is_final());
        assert_eq!(Decision::Accept.verdict(), Some(FilterVerdict::Accept));
        assert_eq!(Decision::Reject.verdict(), Some(FilterVerdict::Reject));
        assert_eq!(Decision::Wait.verdict(), None);
    }

    #[test]
    fn verdict_round_trips_through_decision() {
        for verdict in [FilterVerdict::Accept, FilterVerdict::Reject] {
            assert_eq!(Decision::from(verdict).verdict(), Some(verdict));
        }
    }

    /// Minimal session: rejects once `budget` samples have been seen.
    struct CountingSession {
        seen: usize,
        budget: usize,
    }

    impl ClassifierSession for CountingSession {
        fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
            if !self.decision().is_final() {
                self.seen = (self.seen + chunk.len()).min(self.budget);
            }
            self.decision()
        }

        fn decision(&self) -> Decision {
            if self.seen >= self.budget {
                Decision::Reject
            } else {
                Decision::Wait
            }
        }

        fn samples_consumed(&self) -> usize {
            self.seen
        }

        fn finalize(&mut self) -> StreamClassification {
            StreamClassification {
                verdict: FilterVerdict::Reject,
                score: 0.0,
                result: None,
                samples_consumed: self.seen,
                decided_early: false,
                target: None,
            }
        }
    }

    #[test]
    fn default_state_and_advance_mirror_push_chunk() {
        let mut session = CountingSession {
            seen: 0,
            budget: 10,
        };
        assert_eq!(
            session.state(),
            SessionState {
                decision: Decision::Wait,
                samples_consumed: 0
            }
        );
        let state = session.advance(&[1, 2, 3, 4]);
        assert_eq!(state.decision, Decision::Wait);
        assert_eq!(state.samples_consumed, 4);
        assert!(!state.is_final());
        // Coalescing two pending chunks into one advance is the same as two
        // pushes — the scheduler's licence to micro-batch.
        let state = session.advance(&[0; 7]);
        assert_eq!(state.decision, Decision::Reject);
        assert_eq!(state.samples_consumed, 10);
        assert!(state.is_final());
        assert_eq!(session.state(), state);
    }
}
