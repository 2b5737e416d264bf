//! The workloads and the classifiers they time.

use sf_sdtw::{ReadClassifier, SquiggleFilter};
use sf_shard::ShardedClassifier;

/// How a workload's trace reaches the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Open loop at wall-clock pace into `SessionScheduler::run`, over the
    /// captures of the whole measurement.
    Paced,
    /// Unpaced through `run_service`, in passes over the captures of
    /// `window_s` seconds, repeated while they fit in the measurement.
    Saturate {
        /// Seconds of captures one pass replays.
        window_s: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// How the trace is replayed.
    pub drive: Drive,
    /// A 9-target pan-viral panel instead of one 2 kb target.
    pub panel: bool,
    /// Flow-cell channels; fixes the offered load.
    pub channels: usize,
    /// Lowest calibration tpr − fpr a classifier may have and still be
    /// timed.
    pub separation_floor: f64,
}

impl Spec {
    /// Whether the trace is replayed at wall-clock pace.
    pub fn paced(&self) -> bool {
        self.drive == Drive::Paced
    }
}

/// The workloads, in `BENCHMARK.json` order. Why each exists is recorded
/// in this directory's README.
pub const WORKLOADS: [Spec; 3] = [
    // ≈ 20 % of the single filter's capacity (≈ 0.054 reads/s per channel,
    // ≈ 27 reads/s offered, against ≈ 140 reads/s saturated). At 30 % and
    // 60 %, queueing amplified the machine's speed drift into 20–36 %
    // latency swings; here the flush interval, not the queue, sets the
    // latency, and a 20 s run still holds ≈ 480 decisions.
    Spec {
        name: "paced-single",
        drive: Drive::Paced,
        panel: false,
        channels: 512,
        separation_floor: 0.5,
    },
    // The paced-single classifier and read mix on a 1024-channel flow cell,
    // replayed unpaced; a pass holds ≈ 330 reads.
    Spec {
        name: "saturate-single",
        drive: Drive::Saturate { window_s: 6.0 },
        panel: false,
        channels: 1_024,
        separation_floor: 0.5,
    },
    // The 9-target panel replayed unpaced, over four flow-cell segments,
    // one per distinct panel virus. A pass holds ≈ 250 reads and takes
    // most of a 20 s run: at ≈ 100 reads, residence p50, enrichment and tpr
    // spread 30 %, 17 % and 19 % across ten seeds; ≈ 200 reads on 1024
    // channels fared no better.
    Spec {
        name: "saturate-panel",
        drive: Drive::Saturate { window_s: 15.0 },
        panel: true,
        channels: 312,
        separation_floor: 0.15,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The calibrated classifier of a workload.
pub enum Catalog {
    /// One single-stage filter.
    Single(SquiggleFilter),
    /// One filter per panel target behind the sharded fan-out.
    Panel(ShardedClassifier<SquiggleFilter>),
}

impl Catalog {
    /// The classifier as the scheduler sees it.
    pub fn classifier(&self) -> &(dyn ReadClassifier + Sync) {
        match self {
            Catalog::Single(filter) => filter,
            Catalog::Panel(panel) => panel,
        }
    }
}
