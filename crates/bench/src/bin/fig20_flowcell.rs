//! Figure 20: flow-cell wash experiment — active channels over time for the
//! control and Read Until halves of the flow cell, with a nuclease wash and
//! re-mux midway.

use sf_bench::print_header;
use sf_sim::{FlowCellConfig, FlowCellSimulator, RatePolicy};

fn main() {
    print_header(
        "Figure 20",
        "Active channels over time (control vs Read Until, with wash)",
    );
    let config = FlowCellConfig {
        channels: 256,
        duration_s: 4.0 * 3600.0,
        block_rate_per_hour: 0.6,
        target_fraction: 0.01,
        wash_times_s: vec![2.0 * 3600.0],
        ..Default::default()
    };
    let control = FlowCellSimulator::new(config.clone(), 7).run(None, 600.0);
    let policy = RatePolicy {
        true_positive_rate: 0.95,
        false_positive_rate: 0.1,
        decision_prefix_samples: 2_000,
        decision_latency_s: 0.0001,
    };
    let read_until = FlowCellSimulator::new(config, 7).run(Some(&policy), 600.0);

    println!(
        "{:>10} {:>18} {:>18}",
        "time (min)", "control channels", "read-until channels"
    );
    for (c, r) in control.timeline.iter().zip(&read_until.timeline) {
        println!(
            "{:>10.0} {:>18} {:>18}",
            c.time_s / 60.0,
            c.active_channels,
            r.active_channels
        );
    }
    println!(
        "\ntarget-base enrichment: control {:.2}% vs Read Until {:.2}%  (ejected {} of {} reads)",
        control.target_base_fraction() * 100.0,
        read_until.target_base_fraction() * 100.0,
        read_until.ejected_reads,
        read_until.total_reads
    );
    println!(
        "final active channels: control {} vs Read Until {} (washing restores both arms equally)",
        control.final_active_channels, read_until.final_active_channels
    );
}
