//! Read Until runtime modelling and pipeline-level analyses.
//!
//! * [`runtime`] — the analytical sequencing-runtime model of §6: time to a
//!   coverage target as a function of the classifier's operating point
//!   (Figures 17b/c, Table 1, Figure 20's "time saved is cost saved").
//! * [`analysis`] — the compute-breakdown model behind Figure 5, the
//!   sequencing-throughput growth series of Figure 6 and the scalability
//!   study of Figure 21.
//! * [`service`] — the server-shaped Read Until loop: an `sf-sim` arrival
//!   trace replayed through the `sf-sched` micro-batched scheduler, with
//!   backpressure and missed-eject-window accounting.
//!
//! # Example
//!
//! ```
//! use sf_readuntil::runtime::RuntimeModel;
//! use sf_sim::RatePolicy;
//!
//! let model = RuntimeModel::default();
//! let speedup = model.speedup(RatePolicy::oracle(2_000));
//! assert!(speedup > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod runtime;
pub mod service;

pub use analysis::{
    compute_breakdown, scalability_curve, throughput_growth, ComputeBreakdown,
    ScalabilityClassifier, ScalabilityPoint, ThroughputPoint,
};
pub use runtime::{RuntimeEstimate, RuntimeModel, SequencingParams};
pub use service::{run_service, ServiceConfig, ServiceReport};
