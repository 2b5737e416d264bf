//! A SquiggleFilter tile: query buffers, normalizer, reference buffer and a
//! 2000-PE systolic array (paper §5.1, Figure 13).

use crate::normalizer_hw::HardwareNormalizer;
use crate::systolic::{SystolicArray, SystolicRun};
use sf_sdtw::config::SdtwConfig;
use sf_sdtw::{FilterVerdict, SdtwResult};

/// Number of PEs per tile in the synthesized design.
pub const PES_PER_TILE: usize = 2_000;
/// Clock frequency of the synthesized design in Hz (paper §5: 2.5 GHz).
pub const CLOCK_HZ: f64 = 2.5e9;
/// Size of each tile's reference buffer in bytes (one byte per reference
/// sample).
pub const REFERENCE_BUFFER_BYTES: usize = 100 * 1024;
/// Size of each ping-pong query buffer in samples (10-bit samples).
pub const QUERY_BUFFER_SAMPLES: usize = 2_000;

/// Cycles a tile needs to classify a `query_samples`-sample read prefix
/// against a `reference_samples`-sample reference: the prefix must be
/// streamed through the array followed by the whole reference (paper: "read
/// prefix length plus the reference genome length").
pub fn classification_cycles(query_samples: usize, reference_samples: usize) -> u64 {
    (query_samples + reference_samples) as u64
}

/// Classification latency in seconds at [`CLOCK_HZ`] (see
/// [`classification_cycles`]).
pub fn classification_latency_s(query_samples: usize, reference_samples: usize) -> f64 {
    classification_cycles(query_samples, reference_samples) as f64 / CLOCK_HZ
}

/// Sustained single-tile throughput in query samples per second at
/// [`CLOCK_HZ`]: every [`classification_cycles`] the tile retires one
/// `query_samples` prefix.
pub fn throughput_samples_per_s(query_samples: usize, reference_samples: usize) -> f64 {
    query_samples as f64 * CLOCK_HZ / classification_cycles(query_samples, reference_samples) as f64
}

/// Configuration of one tile.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TileConfig {
    /// sDTW kernel configuration programmed into the PEs.
    pub sdtw: SdtwConfig,
    /// Classification threshold compared against the final PE's cost.
    pub threshold: i32,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            sdtw: SdtwConfig::hardware(),
            threshold: i32::MAX,
        }
    }
}

/// Outcome of classifying one read on a tile.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TileClassification {
    /// Keep or eject.
    pub verdict: FilterVerdict,
    /// The systolic-array run (costs, cycles).
    pub run: SystolicRun,
    /// End-to-end latency in seconds at [`CLOCK_HZ`].
    pub latency_s: f64,
}

/// One accelerator tile.
///
/// # Examples
///
/// ```
/// use sf_hw::{Tile, TileConfig};
///
/// let reference: Vec<i8> = (0..10_000).map(|i| ((i * 37) % 251) as i8).collect();
/// let tile = Tile::new(TileConfig::default(), reference);
/// let raw: Vec<u16> = (0..2_000).map(|i| 470 + ((i * 13) % 80) as u16).collect();
/// let result = tile.classify_raw(&raw);
/// assert!(result.latency_s < 0.001);
/// ```
#[derive(Debug, Clone)]
pub struct Tile {
    config: TileConfig,
    array: SystolicArray,
    normalizer: HardwareNormalizer,
    reference: Vec<i8>,
}

impl Tile {
    /// Creates a tile with the given quantized reference squiggle loaded into
    /// its reference buffer.
    ///
    /// # Panics
    ///
    /// Panics if the reference is empty or exceeds the reference buffer.
    pub fn new(config: TileConfig, reference: Vec<i8>) -> Self {
        assert!(!reference.is_empty(), "reference must not be empty");
        assert!(
            reference.len() <= REFERENCE_BUFFER_BYTES,
            "reference ({} samples) exceeds the {}-byte reference buffer",
            reference.len(),
            REFERENCE_BUFFER_BYTES
        );
        Tile {
            array: SystolicArray::new(config.sdtw, PES_PER_TILE),
            normalizer: HardwareNormalizer::new(QUERY_BUFFER_SAMPLES),
            config,
            reference,
        }
    }

    /// The tile configuration.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// Number of reference samples loaded.
    pub fn reference_len(&self) -> usize {
        self.reference.len()
    }

    /// Classification latency in seconds for a `query_samples`-sample prefix
    /// against this tile's reference.
    pub fn classification_latency_s(&self, query_samples: usize) -> f64 {
        classification_latency_s(query_samples, self.reference.len())
    }

    /// Sustained classification throughput in query samples per second for
    /// `query_samples`-sample prefixes against this tile's reference.
    pub fn throughput_samples_per_s(&self, query_samples: usize) -> f64 {
        throughput_samples_per_s(query_samples, self.reference.len())
    }

    /// Classifies a raw (10-bit ADC) read prefix: normalize on the tile's
    /// normalizer, run the systolic array, compare against the threshold.
    pub fn classify_raw(&self, raw: &[u16]) -> TileClassification {
        let query = self.normalizer.normalize(raw);
        self.classify_quantized(&query)
    }

    /// Classifies an already-normalized, quantized query.
    ///
    /// An empty query is accepted without running the array, on no samples
    /// and in no cycles, like the software filter's empty read (no evidence
    /// to eject).
    pub fn classify_quantized(&self, query: &[i8]) -> TileClassification {
        if query.is_empty() {
            return TileClassification {
                verdict: FilterVerdict::Accept,
                run: SystolicRun {
                    best: SdtwResult {
                        cost: 0.0,
                        end_position: 0,
                        query_samples: 0,
                    },
                    cycles: 0,
                    last_row: Vec::new(),
                    active_pes: 0,
                },
                latency_s: 0.0,
            };
        }
        let run = self.array.classify(query, &self.reference);
        let verdict = if run.best.cost <= self.config.threshold as f64 {
            FilterVerdict::Accept
        } else {
            FilterVerdict::Reject
        };
        let latency_s = self.classification_latency_s(run.active_pes);
        TileClassification {
            verdict,
            run,
            latency_s,
        }
    }

    /// DRAM bandwidth needed when the tile is configured for multi-stage
    /// filtering and spills the final PE's cost every cycle (bytes/second).
    /// Each spilled entry is a 4-byte cost.
    pub fn multistage_dram_bandwidth_bytes_per_s(&self) -> f64 {
        4.0 * CLOCK_HZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_reference(len: usize) -> Vec<i8> {
        let mut x: u32 = 5;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((x >> 24) as i32 - 128) as i8
            })
            .collect()
    }

    #[test]
    fn latency_matches_paper_for_sars_cov_2() {
        // SARS-CoV-2: ~60,000 reference samples, 2000-sample prefix, 2.5 GHz:
        // (2000 + 60000) / 2.5e9 = 0.0248 ms ≈ the paper's 0.027 ms.
        let tile = Tile::new(TileConfig::default(), small_reference(60_000));
        let latency_ms = tile.classification_latency_s(2_000) * 1e3;
        assert!(
            (0.02..0.03).contains(&latency_ms),
            "latency {latency_ms} ms"
        );
        // Throughput ≈ 80 M samples/s, same order as the paper's 74.63 M.
        let throughput = tile.throughput_samples_per_s(2_000);
        assert!(
            (60.0e6..100.0e6).contains(&throughput),
            "throughput {throughput}"
        );
    }

    #[test]
    fn lambda_is_slower_than_covid() {
        let covid = Tile::new(TileConfig::default(), small_reference(60_000));
        let lambda = Tile::new(TileConfig::default(), small_reference(97_000));
        assert!(lambda.classification_latency_s(2_000) > covid.classification_latency_s(2_000));
        assert!(lambda.throughput_samples_per_s(2_000) < covid.throughput_samples_per_s(2_000));
        // Lambda latency ≈ 0.04 ms (paper: 0.043 ms).
        let ms = lambda.classification_latency_s(2_000) * 1e3;
        assert!((0.035..0.05).contains(&ms), "lambda latency {ms} ms");
    }

    #[test]
    fn classify_separates_matching_and_random_reads() {
        let reference = small_reference(3_000);
        // A query that is an exact slice of the reference (already quantized).
        let matching: Vec<i8> = reference[500..900].to_vec();
        let random: Vec<i8> = small_reference(400)
            .iter()
            .map(|&x| x.wrapping_add(63))
            .collect();
        let tile = Tile::new(TileConfig::default(), reference);
        let cost_match = tile.classify_quantized(&matching).run.best.cost;
        let cost_random = tile.classify_quantized(&random).run.best.cost;
        assert!(cost_match < cost_random, "{cost_match} vs {cost_random}");
    }

    #[test]
    fn threshold_controls_verdict() {
        let reference = small_reference(2_000);
        let query: Vec<i8> = reference[100..300].to_vec();
        let mut config = TileConfig::default();
        let permissive = Tile::new(config, reference.clone());
        let cost = permissive.classify_quantized(&query).run.best.cost;
        config.threshold = (cost - 1.0) as i32;
        let strict = Tile::new(config, reference);
        assert_eq!(
            strict.classify_quantized(&query).verdict,
            FilterVerdict::Reject
        );
    }

    #[test]
    fn raw_classification_normalizes_first() {
        let reference = small_reference(2_000);
        let tile = Tile::new(TileConfig::default(), reference);
        let raw: Vec<u16> = (0..500).map(|i| 460 + ((i * 17) % 90) as u16).collect();
        let result = tile.classify_raw(&raw);
        assert_eq!(result.run.active_pes, 500);
        assert!(result.latency_s > 0.0);
    }

    #[test]
    fn empty_read_is_accepted_without_running_the_array() {
        let tile = Tile::new(TileConfig::default(), small_reference(1_000));
        let want = TileClassification {
            verdict: FilterVerdict::Accept,
            run: SystolicRun {
                best: SdtwResult {
                    cost: 0.0,
                    end_position: 0,
                    query_samples: 0,
                },
                cycles: 0,
                last_row: Vec::new(),
                active_pes: 0,
            },
            latency_s: 0.0,
        };
        assert_eq!(tile.classify_quantized(&[]), want);
        assert_eq!(tile.classify_raw(&[]), want);
    }

    #[test]
    fn dram_bandwidth_matches_paper() {
        // Paper: multi-stage spilling consumes ~10 GB/s per tile.
        let tile = Tile::new(TileConfig::default(), small_reference(1_000));
        let gb_per_s = tile.multistage_dram_bandwidth_bytes_per_s() / 1e9;
        assert!((gb_per_s - 10.0).abs() < 0.1, "bandwidth {gb_per_s} GB/s");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_reference_panics() {
        let _ = Tile::new(TileConfig::default(), small_reference(200_000));
    }
}
