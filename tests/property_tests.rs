//! Property-based tests over the core data structures and kernels.
//!
//! The original proptest harness is not available offline, so each property
//! runs over 64 deterministic pseudo-random cases drawn from the in-tree
//! `rand` shim — same invariants, reproducible inputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use squigglefilter::genome::{Base, PackedSequence, Sequence};
use squigglefilter::hw::SystolicArray;
use squigglefilter::sdtw::{calibrate_threshold, FloatSdtw, IntSdtw, SdtwConfig};
use squigglefilter::squiggle::normalize::{dequantize, quantize, Normalizer};

const CASES: u64 = 64;

/// Runs `property` once per case with a per-case seeded generator.
fn for_each_case(test_seed: u64, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(test_seed.wrapping_mul(0x9E37_79B9).wrapping_add(case));
        property(&mut rng);
    }
}

fn random_sequence(rng: &mut StdRng, min_len: usize, max_len: usize) -> Sequence {
    let len = rng.random_range(min_len..max_len);
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4)))
        .collect()
}

fn random_i8_vec(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<i8> {
    let len = rng.random_range(min_len..max_len);
    (0..len).map(|_| rng.random_range(-100i8..100)).collect()
}

#[test]
fn reverse_complement_is_an_involution() {
    for_each_case(1, |rng| {
        let seq = random_sequence(rng, 1, 300);
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    });
}

#[test]
fn packed_sequence_round_trips() {
    for_each_case(2, |rng| {
        let seq = random_sequence(rng, 1, 300);
        let packed = PackedSequence::from_sequence(&seq);
        assert_eq!(packed.len(), seq.len());
        assert_eq!(packed.to_sequence(), seq);
    });
}

#[test]
fn sequence_parse_display_round_trips() {
    for_each_case(3, |rng| {
        let seq = random_sequence(rng, 1, 200);
        let text = seq.to_string();
        let parsed: Sequence = text.parse().unwrap();
        assert_eq!(parsed, seq);
    });
}

#[test]
fn kmer_ranks_are_in_range() {
    for_each_case(4, |rng| {
        let seq = random_sequence(rng, 1, 200);
        let k = rng.random_range(1usize..8);
        for rank in seq.kmer_ranks(k) {
            assert!(rank < 1 << (2 * k));
        }
        let expected = if seq.len() >= k { seq.len() - k + 1 } else { 0 };
        assert_eq!(seq.kmer_ranks(k).count(), expected);
    });
}

#[test]
fn quantize_dequantize_is_bounded() {
    for_each_case(5, |rng| {
        let value = rng.random::<f32>() * 20.0 - 10.0;
        let q = quantize(value);
        let back = dequantize(q);
        assert!(back.abs() <= 4.0 + 1e-6);
        // Within range, round-trip error is at most one quantization step.
        if value.abs() <= 4.0 {
            assert!((back - value).abs() <= 4.0 / 127.0 + 1e-6);
        }
    });
}

#[test]
fn normalization_output_is_clipped() {
    for_each_case(6, |rng| {
        let len = rng.random_range(10usize..500);
        let samples: Vec<u16> = (0..len).map(|_| rng.random_range(0u16..1024)).collect();
        let normalized = Normalizer::default().normalize_raw(&samples);
        assert_eq!(normalized.len(), samples.len());
        assert!(normalized.iter().all(|x| x.is_finite() && x.abs() <= 4.0));
    });
}

#[test]
fn sdtw_cost_is_nonnegative_without_bonus() {
    for_each_case(7, |rng| {
        let reference = random_i8_vec(rng, 10, 80);
        let query = random_i8_vec(rng, 1, 60);
        let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let result = aligner.align(&query).unwrap();
        assert!(result.cost >= 0.0);
        assert!(result.end_position < aligner.reference().len());
        assert_eq!(result.query_samples, query.len());
    });
}

#[test]
fn sdtw_exact_subsequence_costs_zero() {
    for_each_case(8, |rng| {
        let reference = random_i8_vec(rng, 30, 120);
        let len = rng.random_range(5usize..20);
        let start = rng
            .random_range(0usize..20)
            .min(reference.len().saturating_sub(len + 1));
        let query: Vec<i8> = reference[start..start + len].to_vec();
        let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let result = aligner.align(&query).unwrap();
        assert_eq!(result.cost, 0.0);
    });
}

#[test]
fn int_and_float_kernels_agree() {
    for_each_case(9, |rng| {
        let reference = random_i8_vec(rng, 10, 60);
        let query = random_i8_vec(rng, 1, 40);
        let reference_f: Vec<f32> = reference.iter().map(|&x| x as f32).collect();
        let query_f: Vec<f32> = query.iter().map(|&x| x as f32).collect();
        for config in [
            SdtwConfig::hardware(),
            SdtwConfig::vanilla(),
            SdtwConfig::hardware_without_bonus(),
        ] {
            let int = IntSdtw::new(config, reference.clone())
                .align(&query)
                .unwrap();
            let float = FloatSdtw::new(config, reference_f.clone())
                .align(&query_f)
                .unwrap();
            assert_eq!(int.cost, float.cost);
            assert_eq!(int.end_position, float.end_position);
        }
    });
}

#[test]
fn hardware_and_software_agree_on_repeated_segments() {
    // A reference holding the same segment twice gives tied minima; the
    // systolic array and the software kernel must report the same (first)
    // one, not just the same cost.
    for_each_case(13, |rng| {
        let segment = random_i8_vec(rng, 4, 16);
        let mut reference = random_i8_vec(rng, 0, 10);
        reference.extend(&segment);
        reference.extend(random_i8_vec(rng, 0, 10));
        reference.extend(&segment);
        reference.extend(random_i8_vec(rng, 0, 10));
        let warp = rng.random_bool(0.5);
        let query: Vec<i8> = segment
            .iter()
            .flat_map(|&x| {
                std::iter::repeat_n(x, if warp { rng.random_range(1usize..4) } else { 1 })
            })
            .collect();
        for config in [
            SdtwConfig::hardware(),
            SdtwConfig::hardware_without_bonus(),
            SdtwConfig::vanilla(),
        ] {
            let hardware = SystolicArray::new(config, query.len()).classify(&query, &reference);
            let software = IntSdtw::new(config, reference.clone()).align(&query);
            assert_eq!(Some(hardware.best), software, "config {config:?}");
        }
    });
}

#[test]
fn streaming_chunking_is_equivalent_to_batch() {
    for_each_case(10, |rng| {
        let reference = random_i8_vec(rng, 10, 60);
        let query = random_i8_vec(rng, 2, 50);
        let chunk = rng.random_range(1usize..10);
        let aligner = IntSdtw::new(SdtwConfig::hardware(), reference);
        let batch = aligner.align(&query).unwrap();
        let mut stream = aligner.stream();
        for piece in query.chunks(chunk) {
            stream.extend(piece);
        }
        assert_eq!(stream.best().unwrap(), batch);
    });
}

#[test]
fn adding_query_samples_never_decreases_cost_without_bonus() {
    for_each_case(11, |rng| {
        let reference = random_i8_vec(rng, 10, 60);
        let query = random_i8_vec(rng, 2, 40);
        // Each extra sample adds a non-negative per-cell distance, so the
        // optimal cost is non-decreasing in prefix length.
        let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
        let mut stream = aligner.stream();
        let mut last = 0.0f64;
        for &q in &query {
            stream.push(q);
            let cost = stream.best().unwrap().cost;
            assert!(cost >= last - 1e-9);
            last = cost;
        }
    });
}

#[test]
fn sweep_auc_is_the_mann_whitney_statistic() {
    for_each_case(12, |rng| {
        // The kernels' cost types: integers (int8 lane) or f32 values (float
        // lane), drawn from a narrow grid so ties within and across classes
        // are common. Background is shifted up so the classes overlap.
        let f32_grid = rng.random_bool(0.5);
        let costs = |rng: &mut StdRng, shift: u32| -> Vec<f64> {
            let len = rng.random_range(1usize..40);
            (0..len)
                .map(|_| {
                    let k = rng.random_range(0u32..24) + shift;
                    if f32_grid {
                        f64::from(k as f32 * 0.37)
                    } else {
                        f64::from(k)
                    }
                })
                .collect()
        };
        let target = costs(rng, 0);
        let background = costs(rng, 6);
        // P(t < b) + ½·P(t = b): a target read costs less than a background one.
        let wins: f64 = target
            .iter()
            .flat_map(|t| background.iter().map(move |b| (t, b)))
            .map(|(t, b)| {
                if t < b {
                    1.0
                } else if t == b {
                    0.5
                } else {
                    0.0
                }
            })
            .sum();
        let mann_whitney = wins / (target.len() * background.len()) as f64;
        let auc = calibrate_threshold(&target, &background).auc();
        assert!(
            (auc - mann_whitney).abs() < 1e-12,
            "AUC {auc} vs Mann-Whitney {mann_whitney}"
        );
    });
}
