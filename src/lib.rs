//! # SquiggleFilter (Rust reproduction)
//!
//! A full-system reproduction of *SquiggleFilter: An Accelerator for Portable
//! Virus Detection* (Dunn, Sadasivan, et al., MICRO 2021): hardware-friendly
//! subsequence dynamic time warping over raw nanopore signal, used to eject
//! non-target reads from the sequencer (Read Until) without basecalling them.
//!
//! This crate is a facade re-exporting the workspace's sub-crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`genome`] | `sf-genome` | sequences, mutation/strain models, virus catalog |
//! | [`pore_model`] | `sf-pore-model` | k-mer current models, reference squiggles |
//! | [`squiggle`] | `sf-squiggle` | signal containers, normalization, events |
//! | [`sim`] | `sf-sim` | read/squiggle/flow-cell simulation |
//! | [`sdtw`] | `sf-sdtw` | the SquiggleFilter itself (sDTW kernels, filters, threshold sweeps and AUC) |
//! | [`shard`] | `sf-shard` | sharded multi-target catalogs, best-of merging, pan-viral panels |
//! | [`hw`] | `sf-hw` | cycle-level accelerator model, area/power/latency |
//! | [`basecall`] | `sf-basecall` | HMM basecaller + Guppy GPU performance models |
//! | [`align`] | `sf-align` | minimizer mapper, FM-index, UNCALLED-style baseline |
//! | [`variant`] | `sf-variant` | pileup consensus, SNP calling, assembly driver |
//! | [`readuntil`] | `sf-readuntil` | sequencing-runtime model, Read Until service loop, analyses |
//! | [`sched`] | `sf-sched` | cross-read micro-batched session scheduler (server-shaped engine) |
//! | [`metrics`] | `sf-metrics` | confusion matrices, summary statistics |
//! | [`telemetry`] | `sf-telemetry` | runtime counters, latency histograms, registry snapshots |
//!
//! # Quick start
//!
//! ```
//! use squigglefilter::prelude::*;
//!
//! // Program the filter for a (simulated) target virus.
//! let model = KmerModel::synthetic_r94(0);
//! let genome = squigglefilter::genome::random::covid_like_genome(1);
//! let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(40_000.0));
//!
//! // Stream a read chunk by chunk, as the signal arrives from the pore —
//! // the session answers Accept, Reject or Wait after every chunk.
//! let read = RawSquiggle::new(vec![500u16; 3_000], 4_000.0);
//! let mut session = filter.start_read();
//! let mut decision = Decision::Wait;
//! for chunk in read.chunks(400) {
//!     decision = session.push_chunk(chunk);
//!     if decision.is_final() {
//!         break; // tell the sequencer, stop pushing
//!     }
//! }
//! let outcome = session.finalize();
//! assert!(outcome.samples_consumed <= 2_000);
//!
//! // Or classify a whole captured prefix in one shot.
//! let decision = filter.classify(&read);
//! assert_eq!(decision.result.query_samples, 2_000);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use sf_align as align;
pub use sf_basecall as basecall;
pub use sf_genome as genome;
pub use sf_hw as hw;
pub use sf_metrics as metrics;
pub use sf_pore_model as pore_model;
pub use sf_readuntil as readuntil;
pub use sf_sched as sched;
pub use sf_sdtw as sdtw;
pub use sf_shard as shard;
pub use sf_sim as sim;
pub use sf_squiggle as squiggle;
pub use sf_telemetry as telemetry;
pub use sf_variant as variant;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use sf_align::{Mapper, MapperClassifier, MapperClassifierConfig, MapperConfig};
    pub use sf_basecall::{BasecallMode, BasecallerKind, GpuBasecallerModel, Platform};
    pub use sf_genome::{Base, Sequence};
    pub use sf_hw::{AcceleratorModel, Tile, TileConfig};
    pub use sf_metrics::ConfusionMatrix;
    pub use sf_pore_model::{KmerModel, ReferenceSquiggle};
    pub use sf_readuntil::{
        run_service, RuntimeModel, SequencingParams, ServiceConfig, ServiceReport,
    };
    pub use sf_sched::{
        Arrival, MicroBatchConfig, SchedulerReport, SessionId, SessionOutcome, SessionScheduler,
    };
    pub use sf_sdtw::{
        ClassifierSession, Decision, FilterConfig, FilterVerdict, KernelBackend, ReadClassifier,
        SdtwConfig, SessionState, SquiggleFilter, StreamClassification, TargetId,
    };
    pub use sf_shard::{
        pan_viral_panel, panel_classifier, PanelConfig, PanelTarget, ShardedClassifier,
        ShardedSession,
    };
    pub use sf_sim::{
        ArrivalTrace, DatasetBuilder, FlowCellConfig, FlowCellSimulator, RatePolicy, TraceConfig,
    };
    pub use sf_squiggle::{Normalizer, RawSquiggle};
    pub use sf_variant::{Assembler, AssemblyConfig};
}
