//! Integer-domain test suite of the sDTW engine in `kernel.rs`: the 8-bit
//! fixed-point `IntSdtw` works in exactly the domain of the accelerator
//! (normalized currents in `[-4, 4]` mapped to `[-127, 127]`, costs
//! accumulated in 32-bit integers), and the hardware model in `sf-hw` is
//! checked cell-for-cell against it.

#[cfg(test)]
mod tests {
    use crate::config::SdtwConfig;
    use crate::kernel::{FloatSdtw, IntSdtw};

    fn reference_signal() -> Vec<i8> {
        let mut x: u32 = 99;
        (0..300)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((x >> 24) as i32 - 128) as i8
            })
            .collect()
    }

    fn repeat_slice(signal: &[i8], start: usize, end: usize, repeats: usize) -> Vec<i8> {
        signal[start..end]
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, repeats))
            .collect()
    }

    #[test]
    fn exact_subsequence_has_zero_cost() {
        let reference = reference_signal();
        let query = repeat_slice(&reference, 100, 160, 1);
        let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let result = aligner.align(&query).unwrap();
        assert_eq!(result.cost, 0.0);
        assert_eq!(result.end_position, 159);
    }

    #[test]
    fn warped_exact_subsequence_has_zero_cost() {
        let reference = reference_signal();
        let query = repeat_slice(&reference, 10, 50, 7);
        let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let result = aligner.align(&query).unwrap();
        assert_eq!(result.cost, 0.0);
        assert_eq!(result.end_position, 49);
    }

    #[test]
    fn mismatching_query_has_positive_cost() {
        let reference = reference_signal();
        let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let noise: Vec<i8> = (0..100).map(|i| (((i * 97) % 255) - 127) as i8).collect();
        let cost = aligner.align(&noise).unwrap().cost;
        assert!(cost > 1_000.0, "cost {cost}");
    }

    #[test]
    fn matches_float_kernel_when_inputs_are_quantized() {
        // The integer kernel and the float kernel must produce identical costs
        // when fed identical (already-quantized) values, for every config.
        let reference = reference_signal();
        let reference_f: Vec<f32> = reference.iter().map(|&x| x as f32).collect();
        let query = repeat_slice(&reference, 37, 87, 3);
        let query_f: Vec<f32> = query.iter().map(|&x| x as f32).collect();
        for config in [
            SdtwConfig::vanilla(),
            SdtwConfig::hardware(),
            SdtwConfig::hardware_without_bonus(),
            SdtwConfig::vanilla().with_reference_deletions(false),
        ] {
            let int = IntSdtw::new(config, reference.clone())
                .align(&query)
                .unwrap();
            let float = FloatSdtw::new(config, reference_f.clone())
                .align(&query_f)
                .unwrap();
            assert_eq!(int.cost, float.cost, "config {config:?}");
            assert_eq!(int.end_position, float.end_position, "config {config:?}");
        }
    }

    #[test]
    fn match_bonus_separates_target_from_noise_further() {
        let reference = reference_signal();
        let target_query = repeat_slice(&reference, 50, 110, 9);
        let noise: Vec<i8> = (0..540).map(|i| (((i * 41) % 255) - 127) as i8).collect();

        let without = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference.clone());
        let with = IntSdtw::new(SdtwConfig::hardware(), reference);

        let margin_without =
            without.align(&noise).unwrap().cost - without.align(&target_query).unwrap().cost;
        let margin_with =
            with.align(&noise).unwrap().cost - with.align(&target_query).unwrap().cost;
        assert!(
            margin_with > margin_without,
            "bonus should widen the margin: {margin_with} vs {margin_without}"
        );
    }

    #[test]
    fn empty_query_is_none() {
        let aligner = IntSdtw::new(SdtwConfig::hardware(), vec![0, 1, 2]);
        assert!(aligner.align(&[]).is_none());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let reference = vec![127i8; 4_000];
        let query = vec![-128i8; 4_000];
        let aligner = IntSdtw::new(
            SdtwConfig::vanilla().with_reference_deletions(false),
            reference,
        );
        // 4000 samples * 255^2 = 260 M — fits i32, and saturating_add guards
        // pathological cases anyway.
        let result = aligner.align(&query).unwrap();
        assert!(result.cost > 0.0);
        assert!(result.cost.is_finite());
    }
}
