//! Shared helpers for the SquiggleFilter benchmark and figure-reproduction
//! harness.
//!
//! Each binary in `src/bin/` regenerates the table or figure of the paper it
//! is named after (`fig18_ablation` is Figure 18); `batch_scaling` writes
//! `BENCH_batch.json`.

#![warn(missing_docs)]

use sf_pore_model::{KmerModel, ReferenceSquiggle};
use sf_sdtw::{FilterConfig, FloatSdtw, SdtwConfig, SdtwResult, SquiggleFilter};
use sf_sim::Dataset;
use sf_squiggle::normalize::{Normalizer, NormalizerConfig};
use sf_squiggle::RawSquiggle;

/// Scores every read of a labelled dataset with a filter built from the
/// dataset's own target genome, returning `(target_costs, background_costs)`
/// in read order.
pub fn score_dataset(
    dataset: &Dataset,
    config: FilterConfig,
    model_seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let model = KmerModel::synthetic_r94(model_seed);
    score_reads(
        &SquiggleFilter::from_genome(&model, &dataset.target_genome, config),
        dataset,
    )
}

/// [`score_dataset`] in the software baseline's `f32` domain: each read's
/// first `prefix_samples` samples are normalized with the default
/// normalizer and aligned once with a [`FloatSdtw`] over both strands of
/// the target reference (Figure 18's float rows).
pub fn score_dataset_float(
    dataset: &Dataset,
    sdtw: SdtwConfig,
    prefix_samples: usize,
    model_seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let model = KmerModel::synthetic_r94(model_seed);
    let reference = ReferenceSquiggle::from_genome(&model, &dataset.target_genome);
    let kernel = FloatSdtw::new(sdtw, reference.concatenated());
    let normalizer = Normalizer::new(NormalizerConfig::default());
    split_by_label(dataset, |squiggle| {
        let samples = squiggle.samples();
        let prefix = &samples[..samples.len().min(prefix_samples)];
        kernel.align(&normalizer.normalize_raw(prefix))
    })
}

/// Scores every read of a labelled dataset with `filter`, returning
/// `(target_costs, background_costs)` in read order.
pub fn score_reads(filter: &SquiggleFilter, dataset: &Dataset) -> (Vec<f64>, Vec<f64>) {
    split_by_label(dataset, |squiggle| filter.score(squiggle))
}

/// Scores every read with `score` and splits the costs by label, skipping
/// reads `score` returns `None` for.
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

/// Prints a uniform figure/table header so every binary's output is easy to
/// collect.
pub fn print_header(id: &str, title: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}
