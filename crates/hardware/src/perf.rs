//! Accelerator-level performance model (paper §7.1, §7.2 and Figure 16).
//!
//! Combines the tile latency/throughput model with sequencer output rates to
//! answer the questions the paper's evaluation asks: can the filter keep up
//! with a MinION (and with future, faster flow cells), and what is the
//! decision latency compared to GPU basecalling?

use crate::asic::{AsicModel, ElementBudget};
use crate::tile::{classification_latency_s, throughput_samples_per_s};

/// Maximum MinION output in signal samples per second (paper: 2.05 M
/// samples/s across all 512 channels).
pub const MINION_MAX_SAMPLES_PER_S: f64 = 2.05e6;
/// Maximum MinION output in bases per second (512 pores × 450 b/s).
pub const MINION_MAX_BASES_PER_S: f64 = 230_400.0;
/// GridION output relative to MinION.
pub const GRIDION_RELATIVE_THROUGHPUT: f64 = 5.0;

/// Summary of the accelerator's performance for a given target reference.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AcceleratorPerf {
    /// Number of tiles powered on.
    pub tiles: usize,
    /// Reference length in samples (forward + reverse strands).
    pub reference_samples: usize,
    /// Read-prefix length in samples.
    pub prefix_samples: usize,
    /// Per-read classification latency in milliseconds.
    pub latency_ms: f64,
    /// Single-tile classification throughput in samples per second.
    pub tile_throughput_samples_per_s: f64,
    /// Aggregate classification throughput across all tiles.
    pub total_throughput_samples_per_s: f64,
    /// Area and power of the ASIC at this tile count.
    pub budget: ElementBudget,
}

impl AcceleratorPerf {
    /// How many times the current MinION output the accelerator can absorb.
    pub fn minion_headroom(&self) -> f64 {
        self.total_throughput_samples_per_s / MINION_MAX_SAMPLES_PER_S
    }
}

/// Performance model for the full SquiggleFilter accelerator: the tile
/// timing of [`crate::tile`] plus the synthesis numbers for area/power.
#[derive(Debug, Clone, Default)]
pub struct AcceleratorModel {
    asic: AsicModel,
}

impl AcceleratorModel {
    /// Evaluates latency, throughput, area and power for a reference of
    /// `reference_samples` samples classified on `tiles` tiles with
    /// `prefix_samples`-sample prefixes.
    pub fn evaluate(
        &self,
        reference_samples: usize,
        prefix_samples: usize,
        tiles: usize,
    ) -> AcceleratorPerf {
        let latency_s = classification_latency_s(prefix_samples, reference_samples);
        let tile_throughput = throughput_samples_per_s(prefix_samples, reference_samples);
        AcceleratorPerf {
            tiles,
            reference_samples,
            prefix_samples,
            latency_ms: latency_s * 1e3,
            tile_throughput_samples_per_s: tile_throughput,
            total_throughput_samples_per_s: tile_throughput * tiles as f64,
            budget: self.asic.asic(tiles),
        }
    }

    /// Convenience: the paper's 5-tile design point for SARS-CoV-2
    /// (~60 k reference samples, 2000-sample prefixes).
    pub fn sars_cov_2_design_point(&self) -> AcceleratorPerf {
        self.evaluate(59_796, 2_000, 5)
    }

    /// Convenience: the lambda-phage design point (~97 k reference samples).
    pub fn lambda_design_point(&self) -> AcceleratorPerf {
        self.evaluate(96_994, 2_000, 5)
    }

    /// The largest sequencer-throughput multiple (relative to today's
    /// MinION) that the accelerator can still filter in real time.
    pub fn max_supported_throughput_multiple(
        &self,
        reference_samples: usize,
        prefix_samples: usize,
        tiles: usize,
    ) -> f64 {
        self.evaluate(reference_samples, prefix_samples, tiles)
            .minion_headroom()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sars_cov_2_design_point_matches_section_7_1() {
        let perf = AcceleratorModel::default().sars_cov_2_design_point();
        // Paper: 0.027 ms latency, 74.63 M samples/s per tile.
        assert!(
            (perf.latency_ms - 0.0247).abs() < 0.005,
            "latency {}",
            perf.latency_ms
        );
        assert!(
            (60.0e6..95.0e6).contains(&perf.tile_throughput_samples_per_s),
            "tile throughput {}",
            perf.tile_throughput_samples_per_s
        );
        // 5 tiles: paper reports 233.65 M samples/s aggregate... same order.
        assert!(perf.total_throughput_samples_per_s > 200.0e6);
        assert!((perf.budget.area_mm2 - 13.25).abs() < 1.5);
    }

    #[test]
    fn lambda_design_point_matches_section_7_1() {
        let perf = AcceleratorModel::default().lambda_design_point();
        // Paper: 0.043 ms latency, 46.73 M samples/s per tile.
        assert!(
            (perf.latency_ms - 0.0396).abs() < 0.006,
            "latency {}",
            perf.latency_ms
        );
        assert!(
            (40.0e6..60.0e6).contains(&perf.tile_throughput_samples_per_s),
            "tile throughput {}",
            perf.tile_throughput_samples_per_s
        );
    }

    #[test]
    fn headroom_supports_future_sequencers() {
        // Paper: the 5-tile design tolerates a ~114× increase in MinION
        // throughput (headline number quoted for the lambda-sized reference,
        // the longer of the two evaluated genomes).
        let model = AcceleratorModel::default();
        let headroom = model.max_supported_throughput_multiple(96_994, 2_000, 5);
        assert!((100.0..140.0).contains(&headroom), "headroom {headroom}");
        // A single tile still exceeds today's MinION by a wide margin.
        let single = model.evaluate(96_994, 2_000, 1);
        assert!(single.minion_headroom() > 20.0);
    }

    #[test]
    fn throughput_scales_with_tiles_latency_does_not() {
        let model = AcceleratorModel::default();
        let one = model.evaluate(60_000, 2_000, 1);
        let five = model.evaluate(60_000, 2_000, 5);
        assert_eq!(one.latency_ms, five.latency_ms);
        assert!(
            (five.total_throughput_samples_per_s / one.total_throughput_samples_per_s - 5.0).abs()
                < 1e-9
        );
        assert!(five.budget.power_w > one.budget.power_w);
    }

    #[test]
    fn longer_prefixes_increase_latency_and_throughput() {
        let model = AcceleratorModel::default();
        let short = model.evaluate(60_000, 1_000, 1);
        let long = model.evaluate(60_000, 4_000, 1);
        assert!(long.latency_ms > short.latency_ms);
        // Longer prefixes amortize the reference scan better.
        assert!(long.tile_throughput_samples_per_s > short.tile_throughput_samples_per_s);
    }

    #[test]
    fn minion_constants_are_consistent() {
        // 512 pores at 450 bases/s ≈ 230 kb/s; at ~9 samples/base that is
        // ≈ 2 M samples/s.
        let samples_per_base = MINION_MAX_SAMPLES_PER_S / MINION_MAX_BASES_PER_S;
        assert!((8.0..10.0).contains(&samples_per_base));
        const { assert!(GRIDION_RELATIVE_THROUGHPUT > 1.0) }
    }
}
