//! Nanopore k-mer current models.
//!
//! As DNA translocates through a nanopore the measured ionic current is
//! determined by the ~6 bases closest to the pore's constriction. ONT publish
//! a lookup table giving the expected current (in picoamperes) for each of the
//! 4^6 possible 6-mers; SquiggleFilter uses that table to convert a reference
//! genome into its expected signal ("reference squiggle").
//!
//! The real table is proprietary-distribution (though freely downloadable), so
//! this module can either load a table from the simple TSV format used by
//! ONT's `kmer_models` repository or synthesize a statistically similar table
//! deterministically from a seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sf_genome::{Base, Sequence};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Expected signal statistics for one k-mer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KmerLevel {
    /// Mean current in picoamperes.
    pub mean_pa: f32,
    /// Standard deviation of the current in picoamperes.
    pub sd_pa: f32,
}

/// A k-mer → expected-current lookup table.
///
/// # Examples
///
/// ```
/// use sf_pore_model::KmerModel;
/// use sf_genome::Sequence;
///
/// let model = KmerModel::synthetic_r94(42);
/// assert_eq!(model.k(), 6);
/// assert_eq!(model.len(), 4096);
///
/// let seq: Sequence = "ACGTACGTAC".parse().unwrap();
/// let expected = model.expected_signal(&seq);
/// // One expected current per k-mer position.
/// assert_eq!(expected.len(), seq.len() - 6 + 1);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KmerModel {
    k: usize,
    levels: Vec<KmerLevel>,
}

/// Errors from parsing a k-mer model TSV file.
#[derive(Debug)]
pub enum KmerModelError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line did not have the expected `kmer<TAB>mean<TAB>sd` shape.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The table did not contain exactly 4^k entries.
    WrongSize {
        /// 4^k entries expected for the model's k.
        expected: usize,
        /// Entries actually present.
        found: usize,
    },
}

impl fmt::Display for KmerModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KmerModelError::Io(e) => write!(f, "i/o error while reading k-mer model: {e}"),
            KmerModelError::Malformed { line, reason } => {
                write!(f, "malformed k-mer model line {line}: {reason}")
            }
            KmerModelError::WrongSize { expected, found } => {
                write!(f, "k-mer model has {found} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for KmerModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KmerModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KmerModelError {
    fn from(value: io::Error) -> Self {
        KmerModelError::Io(value)
    }
}

impl KmerModel {
    /// Builds a model from an explicit level table.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != 4^k` or `k == 0`.
    pub fn from_levels(k: usize, levels: Vec<KmerLevel>) -> Self {
        assert!(k > 0, "k must be positive");
        assert_eq!(
            levels.len(),
            1usize << (2 * k),
            "level table must have 4^k entries"
        );
        KmerModel { k, levels }
    }

    /// Synthesizes a 6-mer model statistically similar to the ONT R9.4.1 DNA
    /// model: per-base positional contributions (the central bases dominate)
    /// plus seeded per-k-mer jitter, with means spanning roughly 60–130 pA and
    /// per-k-mer standard deviations of 1.5–3 pA.
    pub fn synthetic_r94(seed: u64) -> Self {
        Self::synthetic(6, seed)
    }

    /// Synthesizes a model for an arbitrary `k` (1 ≤ k ≤ 10).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or greater than 10 (the table would not fit in
    /// memory comfortably).
    pub fn synthetic(k: usize, seed: u64) -> Self {
        assert!((1..=10).contains(&k), "k must be between 1 and 10");
        let mut rng = StdRng::seed_from_u64(seed);
        let count = 1usize << (2 * k);
        // Positional weights peaking at the centre of the k-mer, mimicking the
        // pore's sensitivity profile.
        let weights: Vec<f32> = (0..k)
            .map(|i| {
                let centre = (k as f32 - 1.0) / 2.0;
                let d = (i as f32 - centre).abs();
                8.0 / (1.0 + d)
            })
            .collect();
        // Per-base current offsets (pA) — chosen so different bases separate.
        let base_offset = [-1.0f32, -0.35, 0.4, 1.0];
        let mut levels = Vec::with_capacity(count);
        for rank in 0..count {
            let mut mean = 90.0f32;
            for (pos, weight) in weights.iter().enumerate() {
                let shift = 2 * (k - 1 - pos);
                let code = (rank >> shift) & 0b11;
                mean += weight * base_offset[code];
            }
            // Seeded jitter decorrelates k-mers sharing most of their bases a
            // little, as in the real table.
            mean += (rng.random::<f32>() - 0.5) * 6.0;
            let sd = 1.5 + rng.random::<f32>() * 1.5;
            levels.push(KmerLevel {
                mean_pa: mean,
                sd_pa: sd,
            });
        }
        KmerModel { k, levels }
    }

    /// The k-mer length of the model.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries (always `4^k`).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Returns `true` if the table is empty (never true for a valid model).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Looks up the level for a packed k-mer rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= 4^k`.
    pub fn level(&self, rank: usize) -> KmerLevel {
        self.levels[rank]
    }

    /// Looks up the level for an explicit k-mer.
    ///
    /// Returns `None` when `kmer.len() != k`.
    pub fn level_for(&self, kmer: &[Base]) -> Option<KmerLevel> {
        if kmer.len() != self.k {
            return None;
        }
        let rank = kmer
            .iter()
            .fold(0usize, |acc, b| (acc << 2) | b.code() as usize);
        Some(self.levels[rank])
    }

    /// Mean of all k-mer means (pA).
    pub fn mean_current(&self) -> f32 {
        let sum: f32 = self.levels.iter().map(|l| l.mean_pa).sum();
        sum / self.levels.len() as f32
    }

    /// Standard deviation of the k-mer means (pA).
    pub fn current_sd(&self) -> f32 {
        let mean = self.mean_current();
        let var: f32 = self
            .levels
            .iter()
            .map(|l| (l.mean_pa - mean).powi(2))
            .sum::<f32>()
            / self.levels.len() as f32;
        var.sqrt()
    }

    /// Converts a sequence into its expected current profile: one value per
    /// k-mer position (length `seq.len() - k + 1`), in picoamperes.
    ///
    /// Returns an empty vector when the sequence is shorter than `k`.
    pub fn expected_signal(&self, seq: &Sequence) -> Vec<f32> {
        seq.kmer_ranks(self.k)
            .map(|rank| self.levels[rank].mean_pa)
            .collect()
    }

    /// Synthesizes the *ideal* raw squiggle for a fragment: the expected
    /// current of each k-mer, held for `samples_per_base` samples and
    /// digitized with `adc` — the noiseless signal a perfect pore would
    /// report. Used as the canonical clean-read fixture throughout the
    /// workspace (`sf_sim::SquiggleSimulator` adds the realistic noise).
    pub fn expected_raw_squiggle(
        &self,
        fragment: &Sequence,
        samples_per_base: usize,
        adc: &crate::AdcModel,
    ) -> sf_squiggle::RawSquiggle {
        let samples: Vec<u16> = self
            .expected_signal(fragment)
            .iter()
            .flat_map(|&pa| std::iter::repeat_n(adc.to_raw(pa), samples_per_base))
            .collect();
        sf_squiggle::RawSquiggle::new(samples, sf_squiggle::DEFAULT_SAMPLE_RATE_HZ)
    }

    /// Converts a sequence into its expected current profile normalized to
    /// zero mean and unit standard deviation *over the model table* (so the
    /// same scaling applies to every genome, matching how the accelerator
    /// stores a pre-scaled reference).
    pub fn expected_signal_normalized(&self, seq: &Sequence) -> Vec<f32> {
        let mean = self.mean_current();
        let sd = self.current_sd().max(f32::EPSILON);
        seq.kmer_ranks(self.k)
            .map(|rank| (self.levels[rank].mean_pa - mean) / sd)
            .collect()
    }

    /// Serializes the model in the ONT TSV format: a header line followed by
    /// `kmer<TAB>level_mean<TAB>level_stdv` rows.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_tsv<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "kmer\tlevel_mean\tlevel_stdv")?;
        for (rank, level) in self.levels.iter().enumerate() {
            let kmer = rank_to_string(rank, self.k);
            writeln!(writer, "{kmer}\t{:.4}\t{:.4}", level.mean_pa, level.sd_pa)?;
        }
        Ok(())
    }

    /// Parses a model from the ONT TSV format.
    ///
    /// A `&mut` reference may be passed for `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`KmerModelError`] if the table is malformed or incomplete.
    pub fn read_tsv<R: BufRead>(reader: R) -> Result<Self, KmerModelError> {
        let mut k = 0usize;
        let mut entries: Vec<(usize, KmerLevel)> = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line_no = idx + 1;
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("kmer") {
                continue;
            }
            let mut fields = trimmed.split_whitespace();
            let kmer = fields.next().ok_or_else(|| KmerModelError::Malformed {
                line: line_no,
                reason: "missing k-mer column".into(),
            })?;
            let mean: f32 = fields.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                KmerModelError::Malformed {
                    line: line_no,
                    reason: "missing or invalid mean column".into(),
                }
            })?;
            let sd: f32 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(2.0);
            if k == 0 {
                k = kmer.len();
            } else if kmer.len() != k {
                return Err(KmerModelError::Malformed {
                    line: line_no,
                    reason: format!("k-mer length {} differs from {}", kmer.len(), k),
                });
            }
            let mut rank = 0usize;
            for ch in kmer.chars() {
                let base = Base::try_from(ch).map_err(|e| KmerModelError::Malformed {
                    line: line_no,
                    reason: e.to_string(),
                })?;
                rank = (rank << 2) | base.code() as usize;
            }
            entries.push((
                rank,
                KmerLevel {
                    mean_pa: mean,
                    sd_pa: sd,
                },
            ));
        }
        let expected = 1usize << (2 * k.max(1));
        if k == 0 || entries.len() != expected {
            return Err(KmerModelError::WrongSize {
                expected,
                found: entries.len(),
            });
        }
        let mut levels = vec![
            KmerLevel {
                mean_pa: 0.0,
                sd_pa: 0.0
            };
            expected
        ];
        for (rank, level) in entries {
            levels[rank] = level;
        }
        Ok(KmerModel { k, levels })
    }
}

/// Renders a packed rank back into its k-mer string (used for TSV output).
fn rank_to_string(rank: usize, k: usize) -> String {
    (0..k)
        .map(|i| {
            let shift = 2 * (k - 1 - i);
            Base::from_code(((rank >> shift) & 0b11) as u8).to_char()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn synthetic_model_has_full_table() {
        let model = KmerModel::synthetic_r94(1);
        assert_eq!(model.k(), 6);
        assert_eq!(model.len(), 4096);
        assert!(!model.is_empty());
    }

    #[test]
    fn synthetic_model_is_deterministic() {
        assert_eq!(KmerModel::synthetic_r94(7), KmerModel::synthetic_r94(7));
        assert_ne!(KmerModel::synthetic_r94(7), KmerModel::synthetic_r94(8));
    }

    #[test]
    fn synthetic_means_are_plausible_currents() {
        let model = KmerModel::synthetic_r94(3);
        for rank in 0..model.len() {
            let level = model.level(rank);
            assert!(level.mean_pa > 40.0 && level.mean_pa < 160.0);
            assert!(level.sd_pa >= 1.5 && level.sd_pa <= 3.0);
        }
        // Homopolymer extremes should separate: AAAAAA is the lowest-ish,
        // TTTTTT the highest-ish.
        let aaa = model.level(0).mean_pa;
        let ttt = model.level(4095).mean_pa;
        assert!(ttt - aaa > 20.0, "expected spread, got {aaa} vs {ttt}");
    }

    #[test]
    fn expected_signal_lengths() {
        let model = KmerModel::synthetic_r94(2);
        let seq = Sequence::from_str("ACGTACGTACGT").unwrap();
        assert_eq!(model.expected_signal(&seq).len(), 12 - 6 + 1);
        let short = Sequence::from_str("ACG").unwrap();
        assert!(model.expected_signal(&short).is_empty());
    }

    #[test]
    fn normalized_signal_is_standardized() {
        let model = KmerModel::synthetic_r94(2);
        let genome = sf_genome::random::random_genome(5, 20_000);
        let signal = model.expected_signal_normalized(&genome);
        let mean: f32 = signal.iter().sum::<f32>() / signal.len() as f32;
        let sd: f32 =
            (signal.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / signal.len() as f32).sqrt();
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.15, "sd {sd}");
    }

    #[test]
    fn level_for_rejects_wrong_length() {
        let model = KmerModel::synthetic_r94(2);
        assert!(model.level_for(&[Base::A; 5]).is_none());
        assert!(model.level_for(&[Base::A; 6]).is_some());
    }

    #[test]
    fn level_for_matches_rank_lookup() {
        let model = KmerModel::synthetic_r94(2);
        let kmer = [Base::A, Base::C, Base::G, Base::T, Base::A, Base::C];
        let rank = kmer
            .iter()
            .fold(0usize, |acc, b| (acc << 2) | b.code() as usize);
        assert_eq!(model.level_for(&kmer), Some(model.level(rank)));
    }

    #[test]
    fn tsv_round_trip() {
        let model = KmerModel::synthetic(3, 11);
        let mut buf = Vec::new();
        model.write_tsv(&mut buf).unwrap();
        let parsed = KmerModel::read_tsv(buf.as_slice()).unwrap();
        assert_eq!(parsed.k(), 3);
        assert_eq!(parsed.len(), 64);
        for rank in 0..64 {
            assert!((parsed.level(rank).mean_pa - model.level(rank).mean_pa).abs() < 0.001);
        }
    }

    #[test]
    fn tsv_missing_entries_is_error() {
        let text = "kmer\tlevel_mean\tlevel_stdv\nAA\t90.0\t2.0\n";
        let err = KmerModel::read_tsv(text.as_bytes()).unwrap_err();
        assert!(matches!(err, KmerModelError::WrongSize { .. }));
    }

    #[test]
    fn tsv_malformed_line_is_error() {
        let text = "AAA\tnot_a_number\t2.0\n";
        let err = KmerModel::read_tsv(text.as_bytes()).unwrap_err();
        assert!(matches!(err, KmerModelError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rank_to_string_round_trip() {
        assert_eq!(rank_to_string(0, 3), "AAA");
        assert_eq!(rank_to_string(63, 3), "TTT");
        assert_eq!(rank_to_string(0b000110, 3), "ACG");
    }

    #[test]
    #[should_panic(expected = "4^k")]
    fn from_levels_validates_size() {
        let _ = KmerModel::from_levels(
            2,
            vec![
                KmerLevel {
                    mean_pa: 1.0,
                    sd_pa: 1.0
                };
                3
            ],
        );
    }
}
