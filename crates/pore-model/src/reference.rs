//! Reference squiggle construction (paper §4.1).
//!
//! SquiggleFilter pre-computes the expected current profile of the target
//! virus's genome once, normalizes it, and stores it in each accelerator
//! tile's reference buffer. Queries are then warped against this profile.
//!
//! The filter scans both the forward strand and the reverse-complement strand
//! (a read may come from either), which is why a classification takes roughly
//! `2R` cycles in the accelerator.

use crate::kmer::KmerModel;
use sf_genome::Sequence;
use sf_squiggle::normalize::quantize;

/// The pre-computed, normalized expected signal of a reference genome.
///
/// Values are stored both as `f32` (software filter) and quantized to the
/// signed 8-bit fixed-point domain used by the accelerator's reference buffer
/// — by [`sf_squiggle::normalize::quantize`], the one quantizer queries go
/// through too, so reference and queries share one format.
///
/// # Examples
///
/// ```
/// use sf_pore_model::{KmerModel, ReferenceSquiggle};
/// use sf_genome::random::covid_like_genome;
///
/// let model = KmerModel::synthetic_r94(0);
/// let genome = covid_like_genome(1);
/// let reference = ReferenceSquiggle::from_genome(&model, &genome);
///
/// // Forward + reverse strand profiles.
/// assert_eq!(reference.total_samples(), reference.forward().len() * 2);
/// assert!(reference.forward().len() <= genome.len());
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReferenceSquiggle {
    forward: Vec<f32>,
    reverse: Vec<f32>,
    forward_quantized: Vec<i8>,
    reverse_quantized: Vec<i8>,
    genome_length: usize,
    k: usize,
}

impl ReferenceSquiggle {
    /// Builds the reference squiggle for `genome` under `model`.
    ///
    /// Both the forward strand and the reverse complement are converted so a
    /// read from either strand can match.
    pub fn from_genome(model: &KmerModel, genome: &Sequence) -> Self {
        let forward = model.expected_signal_normalized(genome);
        let reverse = model.expected_signal_normalized(&genome.reverse_complement());
        let forward_quantized = forward.iter().copied().map(quantize).collect();
        let reverse_quantized = reverse.iter().copied().map(quantize).collect();
        ReferenceSquiggle {
            forward,
            reverse,
            forward_quantized,
            reverse_quantized,
            genome_length: genome.len(),
            k: model.k(),
        }
    }

    /// Normalized expected signal of the forward strand.
    pub fn forward(&self) -> &[f32] {
        &self.forward
    }

    /// Normalized expected signal of the reverse-complement strand.
    pub fn reverse(&self) -> &[f32] {
        &self.reverse
    }

    /// Quantized (int8) forward-strand signal, as stored in the reference
    /// buffer of an accelerator tile.
    pub fn forward_quantized(&self) -> &[i8] {
        &self.forward_quantized
    }

    /// Quantized (int8) reverse-strand signal.
    pub fn reverse_quantized(&self) -> &[i8] {
        &self.reverse_quantized
    }

    /// Length of the genome the reference was built from.
    pub fn genome_length(&self) -> usize {
        self.genome_length
    }

    /// k-mer length of the underlying pore model.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of reference samples the filter scans per classification
    /// (forward + reverse strands). This is the `R` term in the paper's
    /// `~2R cycles` latency expression... already doubled.
    pub fn total_samples(&self) -> usize {
        self.forward.len() + self.reverse.len()
    }

    /// Size in bytes of the quantized reference as stored in a tile's
    /// reference buffer (one byte per sample).
    pub fn buffer_bytes(&self) -> usize {
        self.forward_quantized.len() + self.reverse_quantized.len()
    }

    /// Concatenated forward + reverse normalized signal. The accelerator
    /// streams exactly this: the forward profile, then the reverse profile.
    pub fn concatenated(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total_samples());
        out.extend_from_slice(&self.forward);
        out.extend_from_slice(&self.reverse);
        out
    }

    /// Concatenated quantized signal (forward then reverse).
    pub fn concatenated_quantized(&self) -> Vec<i8> {
        let mut out = Vec::with_capacity(self.total_samples());
        out.extend_from_slice(&self.forward_quantized);
        out.extend_from_slice(&self.reverse_quantized);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_genome::random::{lambda_like_genome, random_genome};
    use sf_squiggle::normalize::dequantize;

    #[test]
    fn forward_and_reverse_have_equal_length() {
        let model = KmerModel::synthetic_r94(0);
        let genome = random_genome(1, 5_000);
        let reference = ReferenceSquiggle::from_genome(&model, &genome);
        assert_eq!(reference.forward().len(), reference.reverse().len());
        assert_eq!(reference.forward().len(), 5_000 - 6 + 1);
        assert_eq!(reference.genome_length(), 5_000);
        assert_eq!(reference.k(), 6);
    }

    #[test]
    fn quantized_matches_float_reference() {
        let model = KmerModel::synthetic_r94(0);
        let genome = random_genome(2, 2_000);
        let reference = ReferenceSquiggle::from_genome(&model, &genome);
        for (f, q) in reference
            .forward()
            .iter()
            .zip(reference.forward_quantized())
        {
            assert!((dequantize(*q) - f).abs() < 0.04);
        }
    }

    #[test]
    fn buffer_fits_paper_reference_buffer() {
        // The paper provisions a 100 KB reference buffer per tile and states
        // SARS-CoV-2 uses ~60,000 samples (forward + reverse strands).
        let model = KmerModel::synthetic_r94(0);
        let genome = sf_genome::random::covid_like_genome(3);
        let reference = ReferenceSquiggle::from_genome(&model, &genome);
        assert!(reference.total_samples() > 55_000 && reference.total_samples() < 60_000);
        assert!(
            reference.buffer_bytes() <= 100 * 1024,
            "exceeds 100 KB buffer"
        );
    }

    #[test]
    fn lambda_reference_is_larger_than_covid() {
        let model = KmerModel::synthetic_r94(0);
        let covid =
            ReferenceSquiggle::from_genome(&model, &sf_genome::random::covid_like_genome(1));
        let lambda = ReferenceSquiggle::from_genome(&model, &lambda_like_genome(1));
        assert!(lambda.total_samples() > covid.total_samples());
    }

    #[test]
    fn concatenated_layout() {
        let model = KmerModel::synthetic_r94(0);
        let genome = random_genome(4, 1_000);
        let reference = ReferenceSquiggle::from_genome(&model, &genome);
        let cat = reference.concatenated();
        assert_eq!(cat.len(), reference.total_samples());
        assert_eq!(&cat[..reference.forward().len()], reference.forward());
        assert_eq!(&cat[reference.forward().len()..], reference.reverse());
        assert_eq!(reference.concatenated_quantized().len(), cat.len());
    }
}
