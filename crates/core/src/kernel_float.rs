//! Floating-point test suite of the sDTW engine in `kernel.rs`: the `f32`
//! `FloatSdtw` is the software-precision kernel, used for the vanilla
//! baseline and for the Figure 18 ablation points that keep floating-point
//! normalization.

#[cfg(test)]
mod tests {
    use crate::config::{DistanceMetric, SdtwConfig};
    use crate::kernel::FloatSdtw;

    /// Builds a pseudo-random, non-repeating reference signal, and a query
    /// that repeats a slice of it (simulating multiple samples per base).
    fn reference_signal() -> Vec<f32> {
        let mut x: u32 = 12345;
        (0..200)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 16) as f32 / 65_536.0 * 10.0
            })
            .collect()
    }

    fn repeat_slice(signal: &[f32], start: usize, end: usize, repeats: usize) -> Vec<f32> {
        signal[start..end]
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, repeats))
            .collect()
    }

    #[test]
    fn exact_subsequence_has_zero_cost() {
        let reference = reference_signal();
        let query = repeat_slice(&reference, 50, 80, 1);
        let aligner = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let result = aligner.align(&query).unwrap();
        assert_eq!(result.cost, 0.0);
        assert_eq!(result.end_position, 79);
        assert_eq!(result.query_samples, 30);
    }

    #[test]
    fn warped_subsequence_still_matches_without_deletions() {
        // Each reference sample is repeated 3-ish times in the query (slow
        // translocation). Cost should remain zero because vertical moves are
        // free of extra distance when values are identical.
        let reference = reference_signal();
        let query = repeat_slice(&reference, 20, 60, 3);
        let aligner = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let result = aligner.align(&query).unwrap();
        assert_eq!(result.cost, 0.0);
        assert_eq!(result.end_position, 59);
    }

    #[test]
    fn random_query_has_high_cost() {
        let reference = reference_signal();
        let aligner = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let noise: Vec<f32> = (0..60)
            .map(|i| ((i * 7919) % 100) as f32 / 4.0 - 10.0)
            .collect();
        let matched = repeat_slice(aligner.reference(), 10, 70, 1);
        let cost_noise = aligner.align(&noise).unwrap().cost;
        let cost_match = aligner.align(&matched).unwrap().cost;
        assert!(
            cost_noise > cost_match + 100.0,
            "{cost_noise} vs {cost_match}"
        );
    }

    #[test]
    fn vanilla_squared_metric_penalizes_outliers_more() {
        let reference = vec![0.0f32; 50];
        let query = vec![0.0, 0.0, 3.0, 0.0];
        let abs = FloatSdtw::new(
            SdtwConfig::vanilla().with_distance(DistanceMetric::Absolute),
            reference.clone(),
        );
        let sq = FloatSdtw::new(SdtwConfig::vanilla(), reference);
        assert_eq!(abs.align(&query).unwrap().cost, 3.0);
        assert_eq!(sq.align(&query).unwrap().cost, 9.0);
    }

    #[test]
    fn reference_deletions_allow_skipping_bases() {
        // Query jumps across reference values; with deletions allowed one
        // query sample may span several reference samples cheaply.
        let reference = vec![0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0];
        let query = vec![0.0f32, 5.0];
        let without = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), reference.clone());
        let with = FloatSdtw::new(
            SdtwConfig::hardware_without_bonus().with_reference_deletions(true),
            reference,
        );
        let c_without = without.align(&query).unwrap().cost;
        let c_with = with.align(&query).unwrap().cost;
        // Allowing the extra transition can never increase the optimum.
        assert!(c_with <= c_without);
        // Both end up warping q1 onto reference value 1 (cost 4) here; the
        // point of the toggle is the ablation in Figure 18, not this toy case.
        assert_eq!(c_with, 4.0);
        assert_eq!(c_without, 4.0);
    }

    #[test]
    fn match_bonus_reduces_cost_of_matching_reads() {
        let reference = reference_signal();
        let query = repeat_slice(&reference, 30, 70, 4);
        let plain = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), reference.clone());
        let bonus = FloatSdtw::new(SdtwConfig::hardware(), reference);
        let c_plain = plain.align(&query).unwrap().cost;
        let c_bonus = bonus.align(&query).unwrap().cost;
        assert!(c_bonus < c_plain, "{c_bonus} should be below {c_plain}");
        // The plain hardware config finds the exact match.
        assert_eq!(c_plain, 0.0);
    }

    #[test]
    fn streaming_matches_batch_alignment() {
        let reference = reference_signal();
        let aligner = FloatSdtw::new(SdtwConfig::hardware(), reference);
        let query = repeat_slice(aligner.reference(), 5, 95, 2);
        let batch = aligner.align(&query).unwrap();
        let mut stream = aligner.stream();
        for chunk in query.chunks(17) {
            stream.extend(chunk);
        }
        assert_eq!(stream.best().unwrap(), batch);
        assert_eq!(stream.samples_processed(), query.len());
    }

    #[test]
    fn empty_query_returns_none() {
        let aligner = FloatSdtw::new(SdtwConfig::vanilla(), vec![1.0, 2.0]);
        assert!(aligner.align(&[]).is_none());
        assert!(aligner.stream().best().is_none());
    }

    #[test]
    fn first_column_only_allows_vertical_moves() {
        // With a 1-sample reference every query sample must align to it.
        let aligner = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), vec![1.0]);
        let result = aligner.align(&[1.0, 2.0, 1.0]).unwrap();
        assert_eq!(result.cost, 1.0);
        assert_eq!(result.end_position, 0);
    }

    #[test]
    #[should_panic(expected = "reference signal")]
    fn empty_reference_panics() {
        let _ = FloatSdtw::new(SdtwConfig::vanilla(), Vec::new());
    }
}
