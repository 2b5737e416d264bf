//! End-to-end portable virus detection: Read Until filtering on a simulated
//! flow cell followed by reference-guided assembly and variant calling of the
//! enriched target reads.
//!
//! Run with `cargo run --release --example virus_detection`.

use squigglefilter::genome::strain::simulate_table2_strains;
use squigglefilter::prelude::*;
use squigglefilter::sim::read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig};
use squigglefilter::variant::AssemblyResult;

fn main() {
    // The circulating strain differs from the filter's reference by a
    // handful of SNPs (Table 2) — the filter must still catch it and the
    // variant caller must report exactly those SNPs.
    let reference = squigglefilter::genome::random::covid_like_genome(7);
    let strains = simulate_table2_strains(&reference, 7);
    let circulating = &strains[0];
    println!(
        "circulating strain: clade {} with {} SNPs relative to the reference",
        circulating.clade,
        circulating.substitution_count()
    );

    // --- Read Until stage -------------------------------------------------
    // Estimate sequencing time with and without Read Until using measured
    // filter accuracy (here: an operating point typical of the 2000-sample
    // single-threshold filter).
    let runtime = RuntimeModel::new(SequencingParams {
        viral_fraction: 0.01,
        genome_length: reference.len(),
        ..Default::default()
    });
    let operating_point = RatePolicy {
        true_positive_rate: 0.95,
        false_positive_rate: 0.1,
        decision_prefix_samples: 2_000,
        decision_latency_s: 0.00004,
    };
    println!(
        "sequencing to 30x: {:.1} min without Read Until, {:.1} min with ({:.1}x faster)",
        runtime.without_read_until().runtime_s / 60.0,
        runtime.with_read_until(operating_point).runtime_s / 60.0,
        runtime.speedup(operating_point)
    );

    // --- Assembly stage ----------------------------------------------------
    // The reads that survive the filter are basecalled and assembled. Here we
    // feed error-free reads from the circulating strain (basecall noise is
    // exercised by the sf-basecall tests and benches).
    let mut read_sim = ReadSimulator::new(
        &circulating.genome,
        ReadOrigin::Target,
        ReadSimulatorConfig::viral(),
        99,
    );
    let mut assembler = Assembler::new(
        reference.clone(),
        AssemblyConfig {
            min_variant_depth: 5,
            target_coverage: 10.0,
            ..Default::default()
        },
    );
    let mut used = 0usize;
    while !assembler.coverage_reached() {
        let read = read_sim.next_read();
        if assembler.add_read(&read.sequence) {
            used += 1;
        }
    }
    let result: AssemblyResult = assembler.finish();
    println!(
        "assembly: {} reads used, {:.1}x mean coverage, {:.1}% breadth",
        used,
        result.mean_coverage,
        result.breadth * 100.0
    );
    println!(
        "called {} variants (expected {}):",
        result.variants.len(),
        circulating.substitution_count()
    );
    for variant in result.variants.iter().take(5) {
        println!(
            "  pos {:>6}  {} -> {}  depth {:>3}  AF {:.2}",
            variant.position,
            variant.reference,
            variant.alternate,
            variant.depth,
            variant.allele_fraction
        );
    }
    let recovered = result
        .variants
        .iter()
        .filter(|v| {
            circulating
                .mutations
                .iter()
                .any(|m| m.position() == v.position)
        })
        .count();
    println!(
        "{} of {} strain SNPs recovered by the variant caller",
        recovered,
        circulating.substitution_count()
    );
}
