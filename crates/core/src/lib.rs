//! SquiggleFilter: subsequence-DTW filtering of raw nanopore signal.
//!
//! This crate is the Rust implementation of the paper's primary contribution
//! (Dunn, Sadasivan, et al., *SquiggleFilter: An Accelerator for Portable
//! Virus Detection*, MICRO 2021): classifying each read as target-virus or
//! background by aligning the read's raw electrical signal directly against
//! the precomputed reference squiggle of the target genome, skipping
//! basecalling entirely.
//!
//! * [`config`] — the sDTW variants: distance metric, reference-deletion
//!   removal and match bonus (paper §4.7), each an independent toggle for the
//!   Figure 18 ablation; plus the [`KernelBackend`] row-update selector.
//! * [`kernel`] — the unified streaming subsequence-DTW engine: one generic
//!   implementation with a scalar oracle and an AVX2 vector backend,
//!   evaluating every reference column of every row (the accelerator streams
//!   the whole reference past its one-PE-per-query-sample array), in the
//!   8-bit fixed-point and floating-point domains ([`IntSdtw`] /
//!   [`FloatSdtw`]).
//! * [`classifier`] — the streaming [`ReadClassifier`] API: per-read
//!   sessions making chunk-wise Accept/Reject/Wait [`Decision`]s, the
//!   interface every classifier and every consumer in the workspace speaks.
//! * [`filter`] — the [`SquiggleFilter`] (normalize a read prefix, align it,
//!   compare against a threshold; paper §4.5), a staged filter: an optional
//!   early stage with carried-over DP state (paper §4.6),
//!   one [`FilterSession`] for streaming, one staged loop for `classify`.
//! * [`multistage`] — the [`Stage`] of multi-stage filtering and its tests.
//! * [`threshold`] — threshold calibration from labelled costs.
//! * [`telemetry`] — metric names for the runtime instrumentation of all of
//!   the above (chunk latency, DP cells, per-phase timing; see
//!   `docs/observability.md` in the repository root).
//!
//! # Example
//!
//! ```
//! use sf_sdtw::{Decision, FilterConfig, ClassifierSession, ReadClassifier, SquiggleFilter};
//! use sf_pore_model::KmerModel;
//! use sf_genome::random::covid_like_genome;
//!
//! // Program the filter for a new target virus.
//! let model = KmerModel::synthetic_r94(0);
//! let genome = covid_like_genome(1);
//! let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(60_000.0));
//!
//! // Stream an obviously non-matching flat signal chunk by chunk, as it
//! // would arrive from the pore; most rejects fire before the full prefix.
//! let mut session = filter.start_read();
//! let chunk = vec![500u16; 500];
//! let mut decision = Decision::Wait;
//! while !decision.is_final() {
//!     decision = session.push_chunk(&chunk);
//! }
//! let outcome = session.finalize();
//! println!("cost = {}, keep = {}", outcome.score, outcome.verdict.is_accept());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classifier;
pub mod config;
pub mod filter;
pub mod kernel;
// The floating-point and 8-bit integer domain test suites of the kernel.
#[cfg(test)]
mod kernel_float;
#[cfg(test)]
mod kernel_int;
pub mod multistage;
pub mod result;
// The ROC-curve test suite of the threshold sweep.
#[cfg(test)]
mod roc;
pub mod telemetry;
pub mod threshold;

pub use classifier::{
    ClassifierSession, Decision, ReadClassifier, SessionState, StreamClassification, TargetId,
};
pub use config::{DistanceMetric, KernelBackend, SdtwConfig};
pub use filter::{Classification, FilterConfig, FilterSession, FilterVerdict, SquiggleFilter};
pub use kernel::{FloatLane, FloatSdtw, IntLane, IntSdtw, KernelStream, Sdtw, SdtwLane};
pub use multistage::Stage;
pub use result::SdtwResult;
pub use threshold::{calibrate_threshold, OperatingPoint, ThresholdSweep};
