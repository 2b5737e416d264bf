//! Kernel backend parity: the vectorized row update must be bit-identical to
//! the scalar oracle through the full filter stack — every chunk size, with
//! and without mid-stream recalibration drift.

use squigglefilter::pore_model::AdcModel;
use squigglefilter::prelude::*;
use squigglefilter::squiggle::normalize::NormalizerConfig;

/// The ideal 10-samples-per-base squiggle for a fragment.
fn noiseless_squiggle(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
    model.expected_raw_squiggle(fragment, 10, &AdcModel::default())
}

fn test_reads(model: &KmerModel, genome: &Sequence) -> Vec<RawSquiggle> {
    vec![
        // A matching read longer than the prefix.
        noiseless_squiggle(model, &genome.subsequence(400, 1_100)),
        // A background read.
        noiseless_squiggle(
            model,
            &squigglefilter::genome::random::random_genome(77, 700),
        ),
        // A short read that ends before the calibration window fills.
        noiseless_squiggle(model, &genome.subsequence(0, 120)),
        // Obvious junk: a square wave across the ADC range.
        RawSquiggle::new(
            (0..4_000)
                .map(|i| if i % 2 == 0 { 120 } else { 880 })
                .collect(),
            4_000.0,
        ),
    ]
}

/// Normalizer schedules to exercise: the default frozen 2000-sample window,
/// and a short window with rolling re-estimation (mid-stream drift in the
/// normalized values the kernel sees).
fn normalizer_schedules() -> Vec<NormalizerConfig> {
    vec![
        NormalizerConfig::default(),
        NormalizerConfig {
            calibration_window: 500,
            recalibration_interval: 500,
        },
    ]
}

/// Streams `read` through `filter` in `chunk_size` chunks and finalizes.
fn stream(filter: &SquiggleFilter, read: &RawSquiggle, chunk_size: usize) -> StreamClassification {
    let mut session = filter.start_read();
    for chunk in read.samples().chunks(chunk_size) {
        let _ = session.push_chunk(chunk);
    }
    session.finalize()
}

#[test]
fn vector_backend_is_bit_identical_to_scalar_through_the_filter() {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(12, 2_500);
    for normalizer in normalizer_schedules() {
        // threshold = MAX: no early exit, so full results (not just
        // verdicts) must match bit for bit.
        let base = FilterConfig {
            normalizer,
            ..FilterConfig::hardware(f64::MAX)
        };
        let mut scalar_config = base;
        scalar_config.sdtw = base.sdtw.with_backend(KernelBackend::Scalar);
        let mut vector_config = base;
        vector_config.sdtw = base.sdtw.with_backend(KernelBackend::Vector);
        let scalar = SquiggleFilter::from_genome(&model, &genome, scalar_config);
        let vector = SquiggleFilter::from_genome(&model, &genome, vector_config);
        for (r, read) in test_reads(&model, &genome).iter().enumerate() {
            let want = scalar.classify(read);
            let got = vector.classify(read);
            assert_eq!(got, want, "one-shot, read {r}");
            for chunk_size in [1usize, 7, 512] {
                let s = stream(&scalar, read, chunk_size);
                let v = stream(&vector, read, chunk_size);
                assert_eq!(v, s, "streamed, read {r}, chunk {chunk_size}");
            }
        }
    }
}
