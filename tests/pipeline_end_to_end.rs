//! End-to-end pipeline integration test: filter → basecall (clean events) →
//! map → assemble → call variants, plus hardware/software equivalence on
//! simulated reads.

use squigglefilter::genome::strain::simulate_table2_strains;
use squigglefilter::hw::SystolicArray;
use squigglefilter::prelude::*;
use squigglefilter::sdtw::IntSdtw;
use squigglefilter::sim::read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig};
use squigglefilter::sim::RatePolicy;

#[test]
fn hardware_and_software_agree_on_simulated_reads() {
    let model = KmerModel::synthetic_r94(0);
    let genome = squigglefilter::genome::random::random_genome(21, 4_000);
    let reference = ReferenceSquiggle::from_genome(&model, &genome);
    let quantized = reference.concatenated_quantized();

    let dataset = squigglefilter::sim::DatasetBuilder::new("tiny", genome, 3)
        .target_reads(5)
        .background_reads(5)
        .background_length(100_000)
        .build();

    let config = SdtwConfig::hardware();
    let array = SystolicArray::new(config, 800);
    let kernel = IntSdtw::new(config, quantized.clone());
    let normalizer = Normalizer::default();
    for item in &dataset.reads {
        let prefix = item.squiggle.prefix(800);
        if prefix.is_empty() {
            continue;
        }
        let query = normalizer.normalize_raw_quantized(prefix.samples());
        let hw = array.classify(&query, &quantized);
        let sw = kernel.align(&query).expect("non-empty query");
        assert_eq!(hw.best, sw, "hardware and software kernels must agree");
    }
}

#[test]
fn enriched_reads_assemble_the_strain_genome() {
    // A circulating strain (Table 2 clade 20B: 17 SNPs) is sequenced; reads
    // that pass the filter are assembled against the original reference and
    // the strain's SNPs are recovered.
    let reference = squigglefilter::genome::random::random_genome(33, 12_000);
    let strains = simulate_table2_strains(&reference, 5);
    let strain = &strains[3];
    assert_eq!(strain.clade, "20B");

    let mut read_sim = ReadSimulator::new(
        &strain.genome,
        ReadOrigin::Target,
        ReadSimulatorConfig {
            mean_length: 3_000.0,
            min_length: 1_000,
            ..ReadSimulatorConfig::viral()
        },
        17,
    );
    let mut assembler = Assembler::new(
        reference.clone(),
        AssemblyConfig {
            min_variant_depth: 4,
            // 12x mean coverage: at 8x, random read placement routinely
            // leaves a few of the 17 SNP positions under the 4-read depth
            // floor, which is read-placement luck rather than a pipeline
            // property.
            target_coverage: 12.0,
            ..Default::default()
        },
    );
    let mut attempts = 0;
    while !assembler.coverage_reached() && attempts < 500 {
        let read = read_sim.next_read();
        assembler.add_read(&read.sequence);
        attempts += 1;
    }
    let result = assembler.finish();
    assert!(
        result.mean_coverage >= 8.0,
        "coverage {}",
        result.mean_coverage
    );
    assert!(result.breadth > 0.97, "breadth {}", result.breadth);

    // Most of the 17 strain SNPs should be recovered (positions near the
    // genome ends may have low coverage).
    let recovered = result
        .variants
        .iter()
        .filter(|v| strain.mutations.iter().any(|m| m.position() == v.position))
        .count();
    assert!(
        recovered >= strain.substitution_count() - 3,
        "recovered only {recovered} of {} SNPs",
        strain.substitution_count()
    );
    // And no more than a couple of spurious calls.
    assert!(
        result.variants.len() <= strain.substitution_count() + 2,
        "too many variants: {}",
        result.variants.len()
    );
}

#[test]
fn read_until_flowcell_enrichment_and_runtime_agree_in_direction() {
    // The event-driven flow-cell simulation and the analytical runtime model
    // must agree qualitatively: Read Until enriches target bases and reduces
    // the time to a fixed amount of target data.
    let config = FlowCellConfig {
        channels: 64,
        duration_s: 1_200.0,
        target_fraction: 0.02,
        ..Default::default()
    };
    let control = FlowCellSimulator::new(config.clone(), 5).run(None, 60.0);
    let rates = RatePolicy {
        true_positive_rate: 0.95,
        false_positive_rate: 0.1,
        decision_prefix_samples: 2_000,
        decision_latency_s: 0.0001,
    };
    let filtered = FlowCellSimulator::new(config, 5).run(Some(&rates), 60.0);
    assert!(filtered.target_base_fraction() > control.target_base_fraction() * 3.0);

    let runtime = RuntimeModel::new(SequencingParams {
        viral_fraction: 0.02,
        ..Default::default()
    });
    let speedup = runtime.speedup(rates);
    assert!(speedup > 2.0, "analytical speedup {speedup}");
}
