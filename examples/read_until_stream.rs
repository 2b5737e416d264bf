//! Streaming Read Until: watch a non-target read get ejected mid-stream, a
//! few chunks into the read, well before the nominal 2000-sample decision
//! prefix has arrived — then drive the multi-stage filter and the
//! basecall-and-map baseline through the *same* `ReadClassifier` interface.
//!
//! Run with `cargo run --release --example read_until_stream`.

use squigglefilter::pore_model::AdcModel;
use squigglefilter::prelude::*;
use squigglefilter::sdtw::calibrate_threshold;
use squigglefilter::squiggle::normalize::NormalizerConfig;

/// MinKNOW delivers Read Until chunks of roughly 0.1 s = 400 samples.
const CHUNK_SAMPLES: usize = 400;

/// A clean squiggle for `fragment`: the pore model's ideal expected signal.
/// Noiseless reads keep the demo's decisions crisp; the accuracy sweeps on
/// fully noisy signal live in `tests/filter_accuracy.rs`.
fn clean_read(model: &KmerModel, fragment: &Sequence) -> RawSquiggle {
    model.expected_raw_squiggle(fragment, 10, &AdcModel::default())
}

fn stream_read(name: &str, classifier: &dyn ReadClassifier, read: &RawSquiggle) {
    let mut session = classifier.start_read();
    let mut chunks = 0usize;
    for chunk in read.chunks(CHUNK_SAMPLES) {
        chunks += 1;
        let decision = session.push_chunk(chunk);
        println!(
            "  [{name}] chunk {chunks:>2} ({:>5} samples in): {decision:?}",
            session.samples_consumed()
        );
        if decision.is_final() {
            break;
        }
    }
    let outcome = session.finalize();
    println!(
        "  [{name}] => {:?} after {} samples (early: {}, score {:.0})\n",
        outcome.verdict, outcome.samples_consumed, outcome.decided_early, outcome.score
    );
}

/// Mean one-shot cost of `reads` under a probe filter at `prefix` samples.
fn mean_cost(probe: &SquiggleFilter, reads: &[RawSquiggle]) -> f64 {
    let total: f64 = reads
        .iter()
        .filter_map(|r| probe.score(r).map(|s| s.cost))
        .sum();
    total / reads.len() as f64
}

fn main() {
    // A small target genome and a human-like background, with a shared pore
    // model. (A short reference keeps spurious background matches rare, so
    // the cost distributions separate cleanly even on noisy signal.)
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(3, 8_000);
    let background = squigglefilter::genome::random::human_like_background(4, 100_000);
    let target_reads: Vec<RawSquiggle> = (0..8)
        .map(|i| clean_read(&model, &genome.subsequence(i * 800, i * 800 + 1_500)))
        .collect();
    let background_reads: Vec<RawSquiggle> = (0..8)
        .map(|i| {
            clean_read(
                &model,
                &background.subsequence(i * 9_000, i * 9_000 + 1_500),
            )
        })
        .collect();

    // The bonus-free hardware config: without the match bonus the sound
    // early-exit bound is *exact* (the row minimum can never decrease), so a
    // reject fires the moment the accumulated cost crosses the threshold.
    // (The match bonus widens accuracy margins but pays for it with bound
    // slack; Figure 18's ablation keeps both as independent toggles.)
    // A 1000-sample calibration window lets decisions fire from sample 1000
    // on — with the default window of 2000 (== the whole prefix), nothing
    // can be decided before the full prefix has streamed in.
    let normalizer = NormalizerConfig {
        calibration_window: 1_000,
        ..Default::default()
    };
    let base = FilterConfig {
        sdtw: SdtwConfig::hardware_without_bonus(),
        normalizer,
        ..FilterConfig::hardware(f64::MAX)
    };
    let probe = SquiggleFilter::from_genome(&model, &genome, base);
    let target_costs: Vec<f64> = target_reads
        .iter()
        .filter_map(|r| probe.score(r).map(|s| s.cost))
        .collect();
    let background_costs: Vec<f64> = background_reads
        .iter()
        .filter_map(|r| probe.score(r).map(|s| s.cost))
        .collect();
    let best = calibrate_threshold(&target_costs, &background_costs)
        .best_f1()
        .expect("calibration reads are non-empty");
    let filter = SquiggleFilter::from_genome(&model, &genome, base.with_threshold(best.threshold));
    println!(
        "calibrated threshold {:.0} (calibration TPR {:.2}, FPR {:.2})\n",
        best.threshold, best.true_positive_rate, best.false_positive_rate
    );

    // Stream the strongest background read (ejected mid-stream by the sound
    // bound, before the 2000-sample prefix completes — pore time the
    // sequencer gets back) and the strongest target read (runs to the full
    // prefix and is kept).
    let worst_background = &background_reads[(0..background_costs.len())
        .max_by(|&a, &b| background_costs[a].total_cmp(&background_costs[b]))
        .expect("non-empty")];
    let best_target = &target_reads[(0..target_costs.len())
        .min_by(|&a, &b| target_costs[a].total_cmp(&target_costs[b]))
        .expect("non-empty")];
    println!("single-stage SquiggleFilter, background read (sound early reject):");
    stream_read("sdtw", &filter, worst_background);
    println!("single-stage SquiggleFilter, target read (runs to the prefix):");
    stream_read("sdtw", &filter, best_target);

    // The same reads through the multi-stage filter: a permissive stage at
    // 1000 samples, an aggressive one at 5000, each calibrated in its own
    // cost domain via a single-stage probe at that prefix.
    let probe_1k = SquiggleFilter::from_genome(&model, &genome, base.with_prefix_samples(1_000));
    let probe_5k = SquiggleFilter::from_genome(&model, &genome, base.with_prefix_samples(5_000));
    let early =
        mean_cost(&probe_1k, &target_reads) * 0.5 + mean_cost(&probe_1k, &background_reads) * 0.5;
    let late =
        mean_cost(&probe_5k, &target_reads) * 0.5 + mean_cost(&probe_5k, &background_reads) * 0.5;
    let reference = ReferenceSquiggle::from_genome(&model, &genome);
    let staged = SquiggleFilter::new(
        &reference,
        FilterConfig {
            sdtw: SdtwConfig::hardware_without_bonus(),
            normalizer,
            ..FilterConfig::two_stage(early, late)
        },
    );
    // Stage 0's permissive test fires at 1000 samples — the read is ejected
    // mid-stream, during chunk 3.
    println!("multi-stage filter, background read (stage 0 ejects in chunk 3):");
    stream_read("staged", &staged, worst_background);

    // ...and the basecall-and-map baseline, behind the same trait: basecall
    // the growing prefix, try to map it, accept on the first mapping.
    let clean_target = clean_read(&model, &genome.subsequence(2_000, 3_500));
    let mapper = MapperClassifier::new(&genome, model, MapperClassifierConfig::default());
    println!("basecall-and-map baseline, target read (accepted at the first attempt):");
    stream_read("mapper", &mapper, &clean_target);

    // Measured sessions feed the runtime model directly: the decision prefix
    // is the *measured* mean samples-to-eject, not the nominal 2000.
    let mut stats: Vec<(bool, StreamClassification)> = Vec::new();
    for read in &target_reads {
        stats.push((true, filter.classify_stream(read)));
    }
    for read in &background_reads {
        stats.push((false, filter.classify_stream(read)));
    }
    let point = RatePolicy::from_session_stats(&stats, 0.0001);
    let speedup = RuntimeModel::default().speedup(point);
    println!(
        "measured operating point: TPR {:.2}, FPR {:.2}, {} samples/decision => {speedup:.1}x \
         modelled Read Until speedup",
        point.true_positive_rate, point.false_positive_rate, point.decision_prefix_samples
    );

    // Everything above was instrumented as it ran: per-chunk push latency
    // quantiles, the normalize/DP/decision time split, and the early-eject
    // counters all come for free from the telemetry registry (build with
    // `--no-default-features` and the table reports itself disabled).
    let early_rejects = squigglefilter::telemetry::snapshot()
        .counter(squigglefilter::sdtw::telemetry::SDTW_EARLY_REJECTS)
        .unwrap_or(0);
    println!();
    println!("telemetry ({early_rejects} early ejects this run):");
    println!("{}", squigglefilter::telemetry::snapshot().to_table());
}
