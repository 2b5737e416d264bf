//! Pan-viral panel accuracy: an 8-target catalog (4 distinct viruses + 4
//! near-identical strains of the first) must attribute target reads to the
//! right *group* and reject background reads everywhere.
//!
//! Strain-level attribution is deliberately not pinned: Table 2 strains
//! differ by ≤ 23 SNPs over the whole genome, so a sub-kilobase read window
//! usually contains no distinguishing base at all — group-level (which
//! virus) is the biologically meaningful unit, and it is what the paper's
//! single-static-reference argument rests on.
//!
//! The fixture is deterministic (vendored RNG, fixed seeds) and calibrated
//! the way the deployment story implies: absolute sDTW costs are not
//! comparable across references of different GC content, so each shard
//! carries its own threshold, pinned just below the cheapest background
//! read's cost on that shard. That makes background rejection exact on this
//! fixture, and turns target acceptance into the real measured quantity —
//! per-read prefix normalization is biased for GC- or repeat-skewed read
//! windows (the same effect that caps the bench's TPR), so the accept floor
//! is pinned at 2/3 rather than 100%.

use squigglefilter::genome::random::human_like_background;
use squigglefilter::prelude::*;
use squigglefilter::shard::target_group;
use squigglefilter::sim::read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig};
use squigglefilter::sim::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};

fn panel_fixture() -> (KmerModel, Vec<PanelTarget>) {
    let model = KmerModel::synthetic_r94(0);
    let config = PanelConfig {
        genome_length: 1_500,
        viruses: 4,
        strains: 4,
        seed: 7,
    };
    let panel = pan_viral_panel(&config);
    assert_eq!(panel.len(), 8, "the fixture is an 8-target panel");
    (model, panel)
}

/// Three labelled reads per panel target, sampled from random positions and
/// both strands, plus unrelated background reads — all synthesized
/// noiselessly (this suite pins sharding semantics, not noise robustness;
/// the bench's `sharding` section runs the noisy counterpart).
fn panel_reads(
    model: &KmerModel,
    panel: &[PanelTarget],
) -> (Vec<(usize, RawSquiggle)>, Vec<RawSquiggle>) {
    let read_config = ReadSimulatorConfig {
        mean_length: 900.0,
        length_sigma: 0.3,
        min_length: 500,
        max_length: 1_500,
    };
    let mut squiggler =
        SquiggleSimulator::new(model.clone(), SquiggleSimulatorConfig::noiseless(), 99);
    let mut targets = Vec::new();
    for (i, target) in panel.iter().enumerate() {
        let mut sim = ReadSimulator::new(
            &target.genome,
            ReadOrigin::Target,
            read_config,
            100 + i as u64,
        );
        for read in sim.simulate(3) {
            targets.push((i, squiggler.synthesize_read(&read)));
        }
    }
    let bg_genome = human_like_background(555, 50_000);
    let mut bg_sim = ReadSimulator::new(&bg_genome, ReadOrigin::Background, read_config, 777);
    let background = bg_sim
        .simulate(5)
        .iter()
        .map(|read| squiggler.synthesize_read(read))
        .collect();
    (targets, background)
}

/// A catalog with *per-shard* thresholds, each pinned just below the
/// cheapest cost any fixture background read achieves against that shard —
/// so every background read rejects on every shard by construction, and
/// target acceptance measures genuine separation.
fn calibrated_catalog(
    model: &KmerModel,
    panel: &[PanelTarget],
) -> ShardedClassifier<SquiggleFilter> {
    let probe_config = FilterConfig::hardware(f64::MAX);
    let (targets, background) = panel_reads(model, panel);
    ShardedClassifier::new(panel.iter().enumerate().map(|(i, target)| {
        let probe = SquiggleFilter::from_genome(model, &target.genome, probe_config);
        let best_bg = background
            .iter()
            .map(|read| probe.score(read).expect("background scores").cost)
            .fold(f64::MAX, f64::min);
        let best_own = targets
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, read)| probe.score(read).expect("target scores").cost)
            .fold(f64::MAX, f64::min);
        // Every target must have at least one read its own shard can tell
        // from the whole background set — the panel-level separation this
        // fixture exists to pin.
        assert!(
            best_own < best_bg,
            "{}: no separation ({best_own} vs {best_bg})",
            target.name
        );
        let config = probe_config.with_threshold(best_bg - 1.0);
        (
            target.name.clone(),
            SquiggleFilter::from_genome(model, &target.genome, config),
        )
    }))
}

#[test]
fn target_reads_attribute_to_their_group_and_background_rejects() {
    let (model, panel) = panel_fixture();
    let catalog = calibrated_catalog(&model, &panel);
    let (targets, background) = panel_reads(&model, &panel);

    let mut correct = 0usize;
    for (i, read) in &targets {
        let outcome = catalog.classify_stream(read);
        if !outcome.verdict.is_accept() {
            continue;
        }
        let winner = outcome.target.expect("sharded outcomes carry a target");
        if target_group(&panel, winner) == Some(panel[*i].group.as_str()) {
            correct += 1;
        }
    }
    // The pinned floor: ≥ 2/3 of target reads both clear their per-shard
    // threshold and land in the right group (the remainder are reads whose
    // prefix window normalizes poorly — see the module docs).
    assert!(
        correct * 3 >= targets.len() * 2,
        "accept-and-attribute {correct}/{} below the pinned 2/3 floor",
        targets.len()
    );

    for (i, read) in background.iter().enumerate() {
        let outcome = catalog.classify_stream(read);
        assert!(
            !outcome.verdict.is_accept(),
            "background read {i} must reject against every shard"
        );
    }
}
