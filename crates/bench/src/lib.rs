//! Shared helpers for the SquiggleFilter benchmark and figure-reproduction
//! harness.
//!
//! Each binary in `src/bin/` regenerates the table or figure of the paper it
//! is named after (`fig18_ablation` is Figure 18); `batch_scaling` writes
//! `BENCH_batch.json`.

#![warn(missing_docs)]

use sf_pore_model::KmerModel;
use sf_sdtw::{FilterConfig, SquiggleFilter};
use sf_sim::Dataset;

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

/// Scores every read of a labelled dataset with `filter`, returning
/// `(target_costs, background_costs)` in read order.
pub fn score_reads(filter: &SquiggleFilter, dataset: &Dataset) -> (Vec<f64>, Vec<f64>) {
    let mut target = Vec::new();
    let mut background = Vec::new();
    for item in &dataset.reads {
        if let Some(result) = filter.score(&item.squiggle) {
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
