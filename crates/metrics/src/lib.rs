//! Classification metrics for the SquiggleFilter experiments.
//!
//! A [`ConfusionMatrix`] counts a binary classifier's outcomes and defines
//! its rates and F-scores once; `sf_sdtw::threshold` sweeps thresholds
//! through it for the accuracy figures (17a, 18, 19) and for calibration.
//! [`summary`] describes the cost distributions of Figure 11. This crate
//! depends on none of the classifiers.
//!
//! # Example
//!
//! ```
//! use sf_metrics::ConfusionMatrix;
//!
//! // (is_target, kept) for four reads.
//! let matrix = ConfusionMatrix::from_pairs([(true, true), (true, false), (false, false), (false, false)]);
//! assert_eq!(matrix.true_positive_rate(), 0.5);
//! assert_eq!(matrix.false_positive_rate(), 0.0);
//! assert_eq!(matrix.accuracy(), 0.75);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod confusion;
mod histogram;

pub use confusion::ConfusionMatrix;
pub use histogram::{summary, Summary};
