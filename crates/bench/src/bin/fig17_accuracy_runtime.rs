//! Figure 17: (a) Read Until accuracy sweeps for sDTW per prefix length,
//! (b/c) estimated Read Until runtime over the threshold sweep for the
//! lambda-phage-like and SARS-CoV-2-like datasets.

use sf_bench::{print_header, score_dataset};
use sf_readuntil::runtime::{RuntimeModel, SequencingParams};
use sf_sdtw::{calibrate_threshold, FilterConfig};
use sf_sim::{DatasetBuilder, RatePolicy};

fn run_for(name: &str, dataset: &sf_sim::Dataset, genome_length: usize) {
    println!("\n--- {name} ---");
    println!("a) accuracy (AUC / max F1) per prefix length:");
    let mut best_points: Vec<(usize, RatePolicy)> = Vec::new();
    for prefix in [1_000usize, 2_000, 4_000] {
        let (target, background) = score_dataset(
            dataset,
            FilterConfig::hardware(f64::MAX).with_prefix_samples(prefix),
            0,
        );
        let sweep = calibrate_threshold(&target, &background);
        let best = sweep.best_f1();
        println!(
            "   prefix {prefix:>5}: AUC {:.3}  max F1 {:.3}",
            sweep.auc(),
            best.map_or(0.0, |p| p.f1)
        );
        if let Some(point) = best {
            best_points.push((
                prefix,
                RatePolicy {
                    true_positive_rate: point.true_positive_rate,
                    false_positive_rate: point.false_positive_rate,
                    decision_prefix_samples: prefix,
                    decision_latency_s: 0.00004,
                },
            ));
        }
    }
    println!("b) estimated Read Until runtime at each prefix's best threshold:");
    let model = RuntimeModel::new(SequencingParams {
        viral_fraction: 0.01,
        genome_length,
        ..Default::default()
    });
    let control = model.without_read_until().runtime_s / 60.0;
    println!("   control (no Read Until): {control:>8.1} min");
    for (prefix, point) in best_points {
        let runtime = model.with_read_until(point).runtime_s / 60.0;
        println!(
            "   prefix {prefix:>5}: {runtime:>8.1} min ({:.1}x faster, TPR {:.2}, FPR {:.2})",
            control / runtime,
            point.true_positive_rate,
            point.false_positive_rate
        );
    }
}

fn main() {
    print_header(
        "Figure 17",
        "SquiggleFilter Read Until accuracy and runtime",
    );
    let lambda = DatasetBuilder::lambda(31)
        .target_reads(120)
        .background_reads(120)
        .background_length(300_000)
        .build();
    run_for("lambda phage", &lambda, 48_502);
    let covid = DatasetBuilder::covid(32)
        .target_reads(120)
        .background_reads(120)
        .background_length(300_000)
        .build();
    run_for("SARS-CoV-2", &covid, 29_903);
}
