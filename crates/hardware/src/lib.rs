//! Cycle-level and analytical models of the SquiggleFilter accelerator
//! (paper §5 and §7.1–7.2).
//!
//! The accelerator is a set of independent tiles, each containing ping-pong
//! query buffers, a streaming mean–MAD normalizer, a 100 KB reference buffer
//! and a 1-D systolic array of 2000 processing elements clocked at 2.5 GHz.
//! This crate models it at two levels:
//!
//! * **functional / cycle-level** — [`ProcessingElement`], [`SystolicArray`],
//!   [`HardwareNormalizer`] and [`Tile`] execute the same computation as the
//!   RTL would, cycle by cycle. From the quantized query on, the systolic
//!   array agrees bit for bit with the software kernel (`sf_sdtw::IntSdtw`).
//!   The normalizer in front of it does not: [`HardwareNormalizer`] is a
//!   separate Q16.16 model that truncates and estimates once, within 2
//!   quantization codes of the software normalizer;
//! * **analytical** — [`AsicModel`] reproduces the Table 4 area/power
//!   roll-up and [`AcceleratorModel`] the latency/throughput numbers of
//!   §7.1, Figure 16 and Figure 21.
//!
//! # Example
//!
//! ```
//! use sf_hw::AcceleratorModel;
//!
//! let perf = AcceleratorModel::default().sars_cov_2_design_point();
//! assert!(perf.latency_ms < 0.05);
//! assert!(perf.minion_headroom() > 100.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asic;
pub mod normalizer_hw;
pub mod pe;
pub mod perf;
pub mod systolic;
pub mod tile;

pub use asic::{AsicModel, ElementBudget};
pub use normalizer_hw::HardwareNormalizer;
pub use pe::{PeOutput, ProcessingElement};
pub use perf::{
    AcceleratorModel, AcceleratorPerf, MINION_MAX_BASES_PER_S, MINION_MAX_SAMPLES_PER_S,
};
pub use systolic::{SystolicArray, SystolicRun};
pub use tile::{Tile, TileClassification, TileConfig, CLOCK_HZ, PES_PER_TILE};
