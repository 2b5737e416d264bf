//! The basecall-and-map baseline behind the streaming [`ReadClassifier`]
//! trait.
//!
//! The conventional Read Until pipeline (paper §2.3, Figure 5) streams raw
//! signal chunks to a basecaller and maps the growing basecalled prefix
//! against the target genome with minimap2; the read is kept as soon as a
//! mapping is found and ejected when enough signal has been examined without
//! one. [`MapperClassifier`] reproduces that loop with the workspace's HMM
//! basecaller and minimizer mapper, speaking the exact interface the sDTW
//! filters speak — so the flow-cell simulator, the scheduler and the
//! runtime model can drive either pipeline interchangeably.

use crate::mapper::{Mapper, MapperConfig};
use sf_basecall::{Basecaller, BasecallerConfig};
use sf_genome::Sequence;
use sf_pore_model::{AdcModel, KmerModel};
use sf_sdtw::{ClassifierSession, Decision, ReadClassifier, StreamClassification};

/// Configuration of the basecall-and-map streaming baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperClassifierConfig {
    /// Mapper (seed-chain) parameters.
    pub mapper: MapperConfig,
    /// HMM basecaller parameters.
    pub basecaller: BasecallerConfig,
    /// ADC calibration used to recover picoamperes from raw codes.
    pub adc: AdcModel,
    /// A mapping attempt runs every time this many more raw samples have
    /// accumulated (Guppy processes reads in 2000-sample chunks).
    pub attempt_interval_samples: usize,
    /// Give up and eject after this many raw samples without a mapping.
    pub max_samples: usize,
    /// Skip mapping attempts while the basecalled prefix is shorter than
    /// this (too few bases to seed a chain).
    pub min_basecall_bases: usize,
}

impl Default for MapperClassifierConfig {
    fn default() -> Self {
        MapperClassifierConfig {
            mapper: MapperConfig::default(),
            basecaller: BasecallerConfig::default(),
            adc: AdcModel::default(),
            attempt_interval_samples: 2_000,
            max_samples: 6_000,
            min_basecall_bases: 50,
        }
    }
}

/// The basecall-and-map baseline classifier: a [`Basecaller`] feeding a
/// minimizer [`Mapper`], bound to one target reference.
///
/// # Examples
///
/// ```
/// use sf_align::{MapperClassifier, MapperClassifierConfig};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::random_genome;
/// use sf_sdtw::ReadClassifier;
///
/// let model = KmerModel::synthetic_r94(0);
/// let genome = random_genome(1, 20_000);
/// let classifier =
///     MapperClassifier::new(&genome, model, MapperClassifierConfig::default());
/// assert_eq!(classifier.max_decision_samples(), 6_000);
/// let mut session = classifier.start_read();
/// ```
#[derive(Debug, Clone)]
pub struct MapperClassifier {
    mapper: Mapper,
    basecaller: Basecaller,
    config: MapperClassifierConfig,
}

impl MapperClassifier {
    /// Builds the baseline for a target reference genome under a pore model.
    pub fn new(reference: &Sequence, model: KmerModel, config: MapperClassifierConfig) -> Self {
        MapperClassifier {
            mapper: Mapper::new(reference, config.mapper),
            basecaller: Basecaller::new(model, config.basecaller),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MapperClassifierConfig {
        &self.config
    }

    /// The underlying mapper.
    pub fn mapper(&self) -> &Mapper {
        &self.mapper
    }

    /// Opens a streaming session (the concrete type behind
    /// [`ReadClassifier::start_read`]).
    pub fn session(&self) -> MapperSession<'_> {
        MapperSession {
            owner: self,
            buffer: Vec::new(),
            // `.max(1)`: a zero interval must not stall the attempt schedule
            // (push_chunk advances `next_attempt` by this interval).
            next_attempt: self
                .config
                .attempt_interval_samples
                .max(1)
                .min(self.config.max_samples),
            decision: Decision::Wait,
            decided_early: false,
            score: 0.0,
            last_miss: None,
        }
    }

    /// Basecalls a raw-signal prefix and tries to map it.
    fn attempt(&self, raw: &[u16]) -> Attempt {
        let picoamps = self.config.adc.to_picoamps_all(raw);
        let called = self.basecaller.basecall(&picoamps);
        if called.len() < self.config.min_basecall_bases {
            return Attempt::Insufficient;
        }
        match self.mapper.map(&called) {
            Some(mapping) => Attempt::Mapped(mapping.score),
            None => Attempt::Unmapped,
        }
    }
}

/// Outcome of one basecall-and-map attempt.
enum Attempt {
    /// Too few basecalled bases to seed a chain — no evidence either way.
    Insufficient,
    /// Basecalled plenty, but nothing mapped to the target.
    Unmapped,
    /// Mapped to the target with this chain score.
    Mapped(f64),
}

impl ReadClassifier for MapperClassifier {
    fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
        Box::new(self.session())
    }

    fn max_decision_samples(&self) -> usize {
        self.config.max_samples
    }
}

/// A streaming basecall-and-map classification of one read.
///
/// Raw samples accumulate in a buffer; at every attempt boundary the whole
/// prefix is re-basecalled and mapped (as the real pipeline re-examines the
/// growing read). A mapping is an immediate [`Decision::Accept`]; exhausting
/// `max_samples` without one is a [`Decision::Reject`]. Attempt boundaries
/// are fixed sample counts, so chunking never changes the outcome.
#[derive(Debug, Clone)]
pub struct MapperSession<'a> {
    owner: &'a MapperClassifier,
    buffer: Vec<u16>,
    next_attempt: usize,
    decision: Decision,
    decided_early: bool,
    score: f64,
    /// Buffer length and insufficiency of the last non-mapping attempt, so
    /// finalize() never re-basecalls an unchanged buffer.
    last_miss: Option<(usize, bool)>,
}

impl ClassifierSession for MapperSession<'_> {
    fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
        let config = self.owner.config;
        let mut rest = chunk;
        while !rest.is_empty() && !self.decision.is_final() {
            let stop = self.next_attempt.min(config.max_samples);
            let need = stop - self.buffer.len();
            let take = rest.len().min(need);
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() < stop {
                break;
            }
            match self.owner.attempt(&self.buffer) {
                Attempt::Mapped(score) => {
                    self.decision = Decision::Accept;
                    self.decided_early = stop < config.max_samples;
                    self.score = score;
                }
                // At the full budget, an unbasecallable read is junk signal:
                // eject it like an unmapped one.
                outcome @ (Attempt::Unmapped | Attempt::Insufficient) => {
                    self.last_miss =
                        Some((self.buffer.len(), matches!(outcome, Attempt::Insufficient)));
                    if stop == config.max_samples {
                        // At the full budget, an unbasecallable read is junk
                        // signal: eject it like an unmapped one.
                        self.decision = Decision::Reject;
                    } else {
                        self.next_attempt = stop + config.attempt_interval_samples.max(1);
                    }
                }
            }
        }
        self.decision
    }

    fn decision(&self) -> Decision {
        self.decision
    }

    fn samples_consumed(&self) -> usize {
        self.buffer.len()
    }

    fn finalize(&mut self) -> StreamClassification {
        if !self.decision.is_final() {
            if self.buffer.is_empty() {
                // No signal, no evidence to eject — the safe default, as in
                // the sDTW filters.
                self.decision = Decision::Accept;
            } else {
                // A read ending exactly at an attempt boundary was already
                // basecalled and mapped there — reuse that outcome instead of
                // repeating the work on an identical buffer.
                let outcome = match self.last_miss {
                    Some((len, insufficient)) if len == self.buffer.len() => {
                        if insufficient {
                            Attempt::Insufficient
                        } else {
                            Attempt::Unmapped
                        }
                    }
                    _ => self.owner.attempt(&self.buffer),
                };
                match outcome {
                    Attempt::Mapped(score) => {
                        self.decision = Decision::Accept;
                        self.score = score;
                    }
                    Attempt::Unmapped => self.decision = Decision::Reject,
                    // The read ended before enough bases could be basecalled:
                    // no evidence either way, so keep it — same default the
                    // sDTW filters apply to reads with no signal.
                    Attempt::Insufficient => self.decision = Decision::Accept,
                }
            }
        }
        StreamClassification {
            // sf-lint: allow(panic) -- only reached after the decision latch is set above
            verdict: self.decision.verdict().expect("decision is final"),
            score: self.score,
            result: None,
            samples_consumed: self.buffer.len(),
            decided_early: self.decided_early,
            target: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_genome::random::{human_like_background, random_genome};
    use sf_sdtw::FilterVerdict;
    use sf_squiggle::RawSquiggle;

    /// The ideal 10-samples-per-base squiggle for a fragment.
    fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
        model.expected_raw_squiggle(fragment, 10, &AdcModel::default())
    }

    fn classifier() -> (MapperClassifier, KmerModel, Sequence) {
        let model = KmerModel::synthetic_r94(0);
        let genome = random_genome(11, 20_000);
        let classifier =
            MapperClassifier::new(&genome, model.clone(), MapperClassifierConfig::default());
        (classifier, model, genome)
    }

    #[test]
    fn target_read_is_accepted_at_the_first_attempt() {
        let (classifier, model, genome) = classifier();
        let squiggle = noiseless_squiggle(&model, &genome.subsequence(4_000, 5_000));
        let outcome = classifier.classify_stream(&squiggle);
        assert_eq!(outcome.verdict, FilterVerdict::Accept);
        assert!(
            outcome.decided_early,
            "target should map before 6000 samples"
        );
        assert_eq!(outcome.samples_consumed, 2_000);
        assert!(outcome.score > 0.0);
    }

    #[test]
    fn background_read_is_rejected_at_the_sample_budget() {
        let (classifier, model, _) = classifier();
        let background = noiseless_squiggle(&model, &human_like_background(9, 1_000));
        let outcome = classifier.classify_stream(&background);
        assert_eq!(outcome.verdict, FilterVerdict::Reject);
        assert_eq!(outcome.samples_consumed, 6_000);
        assert!(!outcome.decided_early);
    }

    #[test]
    fn chunking_does_not_change_the_outcome() {
        let (classifier, model, genome) = classifier();
        let squiggle = noiseless_squiggle(&model, &genome.subsequence(10_000, 11_000));
        let want = classifier.classify_stream(&squiggle);
        for chunk_size in [101usize, 2_000, 10_000] {
            let mut session = classifier.session();
            for chunk in squiggle.samples().chunks(chunk_size) {
                let _ = session.push_chunk(chunk);
            }
            let got = session.finalize();
            assert_eq!(got.verdict, want.verdict, "chunk {chunk_size}");
            assert_eq!(got.samples_consumed, want.samples_consumed);
            assert_eq!(got.decided_early, want.decided_early);
        }
    }

    #[test]
    fn short_reads_finalize_on_available_signal() {
        let (classifier, model, genome) = classifier();
        // 750 samples: ends before the first 2000-sample attempt boundary.
        let squiggle = noiseless_squiggle(&model, &genome.subsequence(0, 80));
        let mut session = classifier.session();
        assert_eq!(session.push_chunk(squiggle.samples()), Decision::Wait);
        let outcome = session.finalize();
        assert_eq!(outcome.verdict, FilterVerdict::Accept);
        assert_eq!(outcome.samples_consumed, squiggle.len());
    }

    #[test]
    fn empty_read_is_accepted() {
        let (classifier, _, _) = classifier();
        let mut session = classifier.session();
        let outcome = session.finalize();
        assert_eq!(outcome.verdict, FilterVerdict::Accept);
        assert_eq!(outcome.samples_consumed, 0);
    }

    #[test]
    fn unbasecallable_short_read_is_kept_not_ejected() {
        // 100 samples can never basecall min_basecall_bases bases: that is
        // absence of evidence, not evidence of a non-target read — the same
        // keep-by-default the sDTW filters apply.
        let (classifier, _, _) = classifier();
        let mut session = classifier.session();
        assert_eq!(session.push_chunk(&[500u16; 100]), Decision::Wait);
        let outcome = session.finalize();
        assert_eq!(outcome.verdict, FilterVerdict::Accept);
        assert_eq!(outcome.samples_consumed, 100);
    }
}
