//! Figure 19: filter accuracy versus the number of random mutations between
//! the reference used by the filter and the sequenced strain.

use sf_bench::{print_header, score_reads};
use sf_genome::mutate::random_substitutions;
use sf_pore_model::KmerModel;
use sf_sdtw::{calibrate_threshold, FilterConfig, SquiggleFilter};
use sf_sim::DatasetBuilder;

fn main() {
    print_header(
        "Figure 19",
        "Accuracy vs number of reference mutations (lambda)",
    );
    let dataset = DatasetBuilder::lambda(51)
        .target_reads(80)
        .background_reads(80)
        .background_length(250_000)
        .build();
    let model = KmerModel::synthetic_r94(0);
    println!("{:>12} {:>10} {:>10}", "mutations", "AUC", "max F1");
    for mutations in [0usize, 10, 100, 500, 1_000, 2_000, 5_000] {
        let stale = random_substitutions(&dataset.target_genome, mutations, 7);
        let filter = SquiggleFilter::from_genome(&model, &stale, FilterConfig::hardware(f64::MAX));
        let (target, background) = score_reads(&filter, &dataset);
        let sweep = calibrate_threshold(&target, &background);
        println!(
            "{mutations:>12} {:>10.3} {:>10.3}",
            sweep.auc(),
            sweep.best_f1().map_or(0.0, |p| p.f1)
        );
    }
}
