//! Figure 18: maximal F-score for each sDTW algorithm modification
//! (the design-choice ablation).

use sf_bench::{print_header, score_dataset, score_dataset_float};
use sf_sdtw::{calibrate_threshold, DistanceMetric, FilterConfig, SdtwConfig};
use sf_sim::DatasetBuilder;

/// The datapath an ablation row scores on.
#[derive(Clone, Copy)]
enum Datapath {
    /// The software baseline: normalized `f32` samples through `FloatSdtw`.
    Float32,
    /// The accelerator: 8-bit fixed point through `SquiggleFilter`.
    Int8,
}

fn main() {
    print_header("Figure 18", "Ablation: max F-score per sDTW modification");
    let dataset = DatasetBuilder::lambda(41)
        .target_reads(100)
        .background_reads(100)
        .background_length(300_000)
        .build();

    let variants: Vec<(&str, Datapath, SdtwConfig)> = vec![
        (
            "vanilla sDTW (float, squared)",
            Datapath::Float32,
            SdtwConfig::vanilla(),
        ),
        (
            "absolute difference (float)",
            Datapath::Float32,
            SdtwConfig::vanilla().with_distance(DistanceMetric::Absolute),
        ),
        (
            "integer normalization (int8)",
            Datapath::Int8,
            SdtwConfig::vanilla(),
        ),
        (
            "no reference deletions (float)",
            Datapath::Float32,
            SdtwConfig::vanilla().with_reference_deletions(false),
        ),
        (
            "all three (int8, abs, no-del)",
            Datapath::Int8,
            SdtwConfig::hardware_without_bonus(),
        ),
        (
            "all three + match bonus",
            Datapath::Int8,
            SdtwConfig::hardware(),
        ),
    ];

    println!(
        "{:<34} {:>10} {:>10} {:>10}",
        "configuration", "1000", "2000", "4000"
    );
    for (name, datapath, sdtw) in variants {
        let mut row = format!("{name:<34}");
        for prefix in [1_000usize, 2_000, 4_000] {
            let (target, background) = match datapath {
                Datapath::Float32 => score_dataset_float(&dataset, sdtw, prefix, 0),
                Datapath::Int8 => {
                    let config = FilterConfig {
                        sdtw,
                        ..FilterConfig::hardware(f64::MAX).with_prefix_samples(prefix)
                    };
                    score_dataset(&dataset, config, 0)
                }
            };
            let max_f1 = calibrate_threshold(&target, &background)
                .best_f1()
                .map_or(0.0, |p| p.f1);
            row.push_str(&format!(" {max_f1:>10.3}"));
        }
        println!("{row}");
    }
}
