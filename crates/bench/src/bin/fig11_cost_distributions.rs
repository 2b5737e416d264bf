//! Figure 11: sDTW alignment-cost distributions for viral vs human reads at
//! three prefix lengths.

use sf_bench::{print_header, score_dataset};
use sf_metrics::summary;
use sf_sdtw::FilterConfig;
use sf_sim::DatasetBuilder;

fn main() {
    print_header(
        "Figure 11",
        "sDTW cost distributions (viral vs background) per prefix length",
    );
    let dataset = DatasetBuilder::lambda(21)
        .target_reads(150)
        .background_reads(150)
        .background_length(400_000)
        .build();
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "prefix", "viral mean", "viral p95", "human p5", "human mean", "overlap?"
    );
    for prefix in [1_000usize, 2_000, 4_000] {
        let (target, background) = score_dataset(
            &dataset,
            FilterConfig::hardware(f64::MAX).with_prefix_samples(prefix),
            0,
        );
        let t = summary(&target);
        let b = summary(&background);
        println!(
            "{prefix:>8} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>12}",
            t.mean,
            t.p95,
            b.p5,
            b.mean,
            if t.p95 >= b.p5 { "some" } else { "no" }
        );
    }
    println!("\n(the viral and background distributions separate further as the prefix grows)");
}
