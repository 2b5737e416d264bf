//! Nanopore sequencing simulation for the SquiggleFilter reproduction.
//!
//! The paper's evaluation uses real MinION datasets and wet-lab experiments;
//! this crate provides seeded, reproducible simulated equivalents:
//!
//! * [`read`] — sampling reads (fragments) from target and background
//!   genomes with realistic length distributions,
//! * [`squiggle_sim`] — synthesizing raw signal for a read from a pore
//!   model, with variable dwell times, noise, per-pore bias and spikes,
//! * [`dataset`] — labelled viral-vs-background datasets (the stand-ins for
//!   the paper's lambda/SARS-CoV-2/human read sets),
//! * [`flowcell`] — a per-channel flow-cell simulation with Read Until
//!   ejection, pore blocking and nuclease washes (Figure 20),
//! * [`arrivals`] — the same capture process replayed as a time-ordered
//!   trace of interleaved per-channel chunk arrivals (scheduler load),
//! * [`rand_util`] — the small set of distributions the simulators need,
//! * [`telemetry`] — metric names for the flow-cell run counters (ejects,
//!   missed eject windows, channel occupancy).
//!
//! # Example
//!
//! ```
//! use sf_sim::dataset::DatasetBuilder;
//!
//! let dataset = DatasetBuilder::lambda(42)
//!     .target_reads(10)
//!     .background_reads(10)
//!     .background_length(100_000)
//!     .build();
//! assert_eq!(dataset.reads.len(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod dataset;
pub mod flowcell;
pub mod rand_util;
pub mod read;
pub mod squiggle_sim;
pub mod telemetry;

pub use arrivals::{ArrivalTrace, TraceChunk, TraceConfig, TraceRead};
pub use dataset::{Dataset, DatasetBuilder, LabelledSquiggle};
pub use flowcell::{FlowCellConfig, FlowCellRun, FlowCellSimulator, RatePolicy};
pub use read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig, SimulatedRead, Strand};
pub use squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
