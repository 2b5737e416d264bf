//! Hardware normalizer model (paper §5.3, Figure 15).
//!
//! The normalizer is a streaming pre-processor in front of each tile: it
//! accumulates 10-bit raw samples, estimates the mean and Mean Absolute
//! Deviation once, over the first calibration window (2000 samples), and
//! then emits mean–MAD-normalized samples clipped to `[-4, 4]` and quantized
//! to signed 8-bit fixed point. All arithmetic is integer/fixed-point — there
//! is no floating-point unit in the datapath. The Q16.16 arithmetic truncates
//! where the software normalizer (`sf_squiggle::normalize`) rounds to
//! nearest, so the two are not bit-exact: their codes differ on some
//! samples, and `matches_software_normalizer_within_quantization_error`
//! allows 2 codes.

use sf_squiggle::normalize::FIXED_POINT_RANGE;

/// Area of the synthesized normalizer in mm² (Table 4).
pub const NORMALIZER_AREA_MM2: f64 = 0.014;
/// Power of the normalizer in watts (Table 4).
pub const NORMALIZER_POWER_W: f64 = 0.045;

/// Fixed-point scale used internally (Q16.16-style).
const FP_SHIFT: u32 = 16;

/// Streaming integer mean/MAD normalizer.
///
/// # Examples
///
/// ```
/// use sf_hw::HardwareNormalizer;
///
/// let raw: Vec<u16> = (0..2000).map(|i| 480 + ((i * 7) % 60) as u16).collect();
/// let mut normalizer = HardwareNormalizer::new(2000);
/// let out = normalizer.normalize(&raw);
/// assert_eq!(out.len(), raw.len());
/// assert!(out.iter().any(|&x| x != 0));
/// ```
#[derive(Debug, Clone)]
pub struct HardwareNormalizer {
    window: usize,
}

impl HardwareNormalizer {
    /// Creates a normalizer that estimates statistics over the first
    /// `window` samples (2000 in the synthesized design).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "calibration window must be positive");
        HardwareNormalizer { window }
    }

    /// The calibration window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Estimates the integer mean and MAD (both in Q16.16 fixed point) over
    /// the calibration window.
    pub fn estimate(&self, samples: &[u16]) -> (i64, i64) {
        let window = &samples[..samples.len().min(self.window)];
        if window.is_empty() {
            return (0, 1 << FP_SHIFT);
        }
        let n = window.len() as i64;
        let sum: i64 = window.iter().map(|&x| x as i64).sum();
        // mean in Q16.16
        let mean_fp = (sum << FP_SHIFT) / n;
        let mad_sum: i64 = window
            .iter()
            .map(|&x| ((x as i64) << FP_SHIFT).abs_diff(mean_fp) as i64)
            .sum();
        let mad_fp = (mad_sum / n).max(1);
        (mean_fp, mad_fp)
    }

    /// Normalizes and quantizes a raw sample stream to signed 8-bit fixed
    /// point in `[-127, 127]` (representing `[-4, 4]`).
    pub fn normalize(&self, samples: &[u16]) -> Vec<i8> {
        let (mean_fp, mad_fp) = self.estimate(samples);
        samples
            .iter()
            .map(|&x| {
                let x_fp = (x as i64) << FP_SHIFT;
                // z = (x - mean) / mad, computed as a Q16.16 ratio.
                let num = x_fp - mean_fp;
                let z_fp = (num << FP_SHIFT) / mad_fp;
                // Scale [-4, 4] onto [-127, 127]: multiply by 127/4.
                let scaled = (z_fp * 127 / (FIXED_POINT_RANGE as i64)) >> FP_SHIFT;
                scaled.clamp(-127, 127) as i8
            })
            .collect()
    }

    /// Number of cycles the normalizer needs to process `n` samples: one
    /// accumulation pass plus one transform pass (it is fully pipelined with
    /// the query buffer load, so this never limits tile throughput).
    pub fn cycles(&self, n: usize) -> u64 {
        (n as u64) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_squiggle::normalize::{Normalizer, NormalizerConfig};

    fn synthetic_raw(len: usize) -> Vec<u16> {
        (0..len).map(|i| 450 + ((i * 31) % 140) as u16).collect()
    }

    #[test]
    fn matches_software_normalizer_within_quantization_error() {
        let raw = synthetic_raw(4000);
        let hw = HardwareNormalizer::new(2000).normalize(&raw);
        let sw = Normalizer::new(NormalizerConfig::default()).normalize_raw_quantized(&raw);
        assert_eq!(hw.len(), sw.len());
        let max_diff = hw
            .iter()
            .zip(&sw)
            .map(|(a, b)| (*a as i32 - *b as i32).abs())
            .max()
            .unwrap();
        // Fixed-point rounding may differ by a couple of codes at most.
        assert!(max_diff <= 2, "max difference {max_diff}");
    }

    #[test]
    fn output_is_centred_and_clipped() {
        let mut raw = synthetic_raw(2000);
        raw[100] = 0;
        raw[200] = 1023;
        let out = HardwareNormalizer::new(2000).normalize(&raw);
        assert!(out.iter().all(|&x| (-127..=127).contains(&(x as i32))));
        let mean: f64 = out.iter().map(|&x| x as f64).sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 6.0, "mean {mean}");
    }

    #[test]
    fn constant_signal_maps_to_zero() {
        let raw = vec![512u16; 3000];
        let out = HardwareNormalizer::new(2000).normalize(&raw);
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn empty_input_is_empty() {
        let out = HardwareNormalizer::new(2000).normalize(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn window_limits_estimation() {
        // Statistics come from the first window only.
        let mut raw = vec![400u16; 1000];
        raw.extend(vec![800u16; 1000]);
        let normalizer = HardwareNormalizer::new(1000);
        let (mean_fp, _) = normalizer.estimate(&raw);
        assert_eq!(mean_fp >> 16, 400);
    }

    #[test]
    fn cycles_and_constants() {
        let normalizer = HardwareNormalizer::new(2000);
        assert_eq!(normalizer.cycles(2000), 4000);
        assert_eq!(normalizer.window(), 2000);
        assert!((NORMALIZER_AREA_MM2 - 0.014).abs() < 1e-9);
        assert!((NORMALIZER_POWER_W - 0.045).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "calibration window")]
    fn zero_window_panics() {
        let _ = HardwareNormalizer::new(0);
    }
}
