//! Multi-stage filtering: compare single-threshold and two-stage filters on
//! the same dataset, reporting accuracy and the average number of samples
//! sequenced before a decision (what actually costs sequencing time).
//!
//! Run with `cargo run --release --example multistage_filter`.

use squigglefilter::prelude::*;
use squigglefilter::sdtw::calibrate_threshold;
use squigglefilter::sim::DatasetBuilder;

fn main() {
    let dataset = DatasetBuilder::lambda(11)
        .target_reads(80)
        .background_reads(80)
        .background_length(200_000)
        .build();
    let model = KmerModel::synthetic_r94(0);
    let reference = ReferenceSquiggle::from_genome(&model, &dataset.target_genome);

    // Calibrate thresholds at 1000 and 5000 samples on half the data.
    let costs = |prefix: usize| {
        let filter = SquiggleFilter::new(
            &reference,
            FilterConfig::hardware(f64::MAX).with_prefix_samples(prefix),
        );
        let mut target = Vec::new();
        let mut background = Vec::new();
        for (i, item) in dataset.reads.iter().enumerate() {
            if i % 2 != 0 {
                continue;
            }
            if let Some(result) = filter.score(&item.squiggle) {
                if item.is_target() {
                    target.push(result.cost);
                } else {
                    background.push(result.cost);
                }
            }
        }
        (target, background)
    };
    let (t1000, b1000) = costs(1_000);
    let (t5000, b5000) = costs(5_000);
    // Early stage: permissive (keep ~99% of targets); late stage: max-F1.
    let early = calibrate_threshold(&t1000, &b1000)
        .threshold_for_tpr(0.99)
        .unwrap();
    let late = calibrate_threshold(&t5000, &b5000).best_f1().unwrap();
    println!(
        "stage thresholds: early {:.0} (TPR {:.2}), late {:.0} (F1 {:.2})",
        early.threshold, early.true_positive_rate, late.threshold, late.f1
    );

    let single = SquiggleFilter::new(
        &reference,
        FilterConfig::hardware(late.threshold).with_prefix_samples(5_000),
    );
    let staged = SquiggleFilter::new(
        &reference,
        FilterConfig::two_stage(early.threshold, late.threshold),
    );

    let mut single_matrix = ConfusionMatrix::new();
    let mut staged_matrix = ConfusionMatrix::new();
    let mut single_samples = 0usize;
    let mut staged_samples = 0usize;
    let mut evaluated = 0usize;
    for (i, item) in dataset.reads.iter().enumerate() {
        if i % 2 == 0 {
            continue;
        }
        evaluated += 1;
        let s = single.classify(&item.squiggle);
        single_matrix.record(item.is_target(), s.verdict.is_accept());
        single_samples += s.result.query_samples.max(5_000.min(item.squiggle.len()));
        let m = staged.classify(&item.squiggle);
        staged_matrix.record(item.is_target(), m.verdict.is_accept());
        staged_samples += m.samples_used;
    }
    println!(
        "single-stage (5000 samples): accuracy {:.1}%, {:.0} samples/decision",
        single_matrix.accuracy() * 100.0,
        single_samples as f64 / evaluated as f64
    );
    println!(
        "two-stage (1000 + 5000):     accuracy {:.1}%, {:.0} samples/decision",
        staged_matrix.accuracy() * 100.0,
        staged_samples as f64 / evaluated as f64
    );
    println!(
        "multi-stage decisions use {:.0}% of the samples of the single-stage filter",
        100.0 * staged_samples as f64 / single_samples as f64
    );
}
