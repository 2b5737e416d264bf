//! Seeded random genome generation.
//!
//! The paper evaluates on real lambda phage, SARS-CoV-2 and human reads. This
//! reproduction replaces those datasets with simulated genomes; the
//! generators here are deterministic given a seed so that every experiment
//! is reproducible.

use crate::base::Base;
use crate::sequence::Sequence;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for random genome generation.
///
/// # Examples
///
/// ```
/// use sf_genome::random::GenomeGenerator;
///
/// let genome = GenomeGenerator::new(7).gc_content(0.38).generate(1_000);
/// assert_eq!(genome.len(), 1_000);
/// // Roughly the requested GC content.
/// assert!((genome.gc_content() - 0.38).abs() < 0.08);
/// ```
#[derive(Debug, Clone)]
pub struct GenomeGenerator {
    seed: u64,
    gc_content: f64,
    /// Probability per position of starting a short tandem repeat,
    /// which makes the simulated genomes less uniformly random (real genomes
    /// contain repetitive stretches that stress the aligner and filter).
    repeat_probability: f64,
    /// Length of each repeated unit when a repeat is emitted.
    repeat_unit: usize,
    /// Number of copies of the repeated unit.
    repeat_copies: usize,
}

impl GenomeGenerator {
    /// Creates a generator with the given seed and default parameters
    /// (GC content 0.5, sparse short repeats).
    pub fn new(seed: u64) -> Self {
        GenomeGenerator {
            seed,
            gc_content: 0.5,
            repeat_probability: 0.0005,
            repeat_unit: 6,
            repeat_copies: 4,
        }
    }

    /// Sets the target GC content in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `gc` is not within `[0, 1]`.
    pub fn gc_content(mut self, gc: f64) -> Self {
        assert!((0.0..=1.0).contains(&gc), "gc content must be in [0, 1]");
        self.gc_content = gc;
        self
    }

    /// Sets the per-position probability of emitting a tandem repeat.
    pub fn repeat_probability(mut self, p: f64) -> Self {
        self.repeat_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the repeat unit length and copy count.
    pub fn repeat_shape(mut self, unit: usize, copies: usize) -> Self {
        self.repeat_unit = unit.max(1);
        self.repeat_copies = copies.max(1);
        self
    }

    /// Generates a genome of exactly `length` bases.
    pub fn generate(&self, length: usize) -> Sequence {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut seq = Sequence::with_capacity(length);
        while seq.len() < length {
            if self.repeat_probability > 0.0 && rng.random_bool(self.repeat_probability) {
                // Emit a short tandem repeat.
                let unit: Vec<Base> = (0..self.repeat_unit)
                    .map(|_| self.sample_base(&mut rng))
                    .collect();
                for _ in 0..self.repeat_copies {
                    for &b in &unit {
                        if seq.len() < length {
                            seq.push(b);
                        }
                    }
                }
            } else {
                seq.push(self.sample_base(&mut rng));
            }
        }
        seq
    }

    fn sample_base(&self, rng: &mut StdRng) -> Base {
        if rng.random_bool(self.gc_content) {
            if rng.random_bool(0.5) {
                Base::G
            } else {
                Base::C
            }
        } else if rng.random_bool(0.5) {
            Base::A
        } else {
            Base::T
        }
    }
}

/// Convenience constructor: a random genome with default parameters.
///
/// Equivalent to `GenomeGenerator::new(seed).generate(length)`.
pub fn random_genome(seed: u64, length: usize) -> Sequence {
    GenomeGenerator::new(seed).generate(length)
}

/// Generates a SARS-CoV-2-like reference: ~29.9 kb, GC content ≈ 0.38.
pub fn covid_like_genome(seed: u64) -> Sequence {
    GenomeGenerator::new(seed)
        .gc_content(0.38)
        .generate(crate::catalog::SARS_COV_2_LENGTH)
}

/// Generates a lambda-phage-like reference: ~48.5 kb, GC content ≈ 0.50.
pub fn lambda_like_genome(seed: u64) -> Sequence {
    GenomeGenerator::new(seed)
        .gc_content(0.50)
        .generate(crate::catalog::LAMBDA_PHAGE_LENGTH)
}

/// Generates a human-like background contig of the requested length
/// (GC ≈ 0.41, more repeats than the viral genomes).
pub fn human_like_background(seed: u64, length: usize) -> Sequence {
    GenomeGenerator::new(seed)
        .gc_content(0.41)
        .repeat_probability(0.002)
        .repeat_shape(4, 8)
        .generate(length)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = random_genome(42, 5_000);
        let b = random_genome(42, 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_genome(1, 2_000);
        let b = random_genome(2, 2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn exact_length() {
        for len in [0, 1, 17, 1000, 4096] {
            assert_eq!(random_genome(3, len).len(), len);
        }
    }

    #[test]
    fn gc_content_tracks_target() {
        let low = GenomeGenerator::new(5).gc_content(0.2).generate(20_000);
        let high = GenomeGenerator::new(5).gc_content(0.8).generate(20_000);
        assert!(
            (low.gc_content() - 0.2).abs() < 0.03,
            "got {}",
            low.gc_content()
        );
        assert!(
            (high.gc_content() - 0.8).abs() < 0.03,
            "got {}",
            high.gc_content()
        );
    }

    #[test]
    #[should_panic(expected = "gc content")]
    fn invalid_gc_panics() {
        let _ = GenomeGenerator::new(0).gc_content(1.5);
    }

    #[test]
    fn named_genomes_have_catalog_lengths() {
        assert_eq!(
            covid_like_genome(1).len(),
            crate::catalog::SARS_COV_2_LENGTH
        );
        assert_eq!(
            lambda_like_genome(1).len(),
            crate::catalog::LAMBDA_PHAGE_LENGTH
        );
    }

    #[test]
    fn repeats_increase_self_similarity() {
        // A genome with aggressive repeats should contain more duplicate
        // 8-mers than a repeat-free genome of the same length.
        let with = GenomeGenerator::new(9)
            .repeat_probability(0.02)
            .repeat_shape(5, 10)
            .generate(20_000);
        let without = GenomeGenerator::new(9)
            .repeat_probability(0.0)
            .generate(20_000);
        let distinct = |s: &Sequence| {
            let mut set = std::collections::HashSet::new();
            for rank in s.kmer_ranks(8) {
                set.insert(rank);
            }
            set.len()
        };
        assert!(distinct(&with) < distinct(&without));
    }
}
