//! Nanopore signal ("squiggle") containers and signal processing.
//!
//! This crate holds everything that operates on raw nanopore current traces
//! independent of any genome:
//!
//! * [`signal`] — raw/physical squiggle containers, chunking and summary
//!   statistics,
//! * [`normalize`] — the mean–MAD normalizer, outlier clipping and the 8-bit
//!   fixed-point quantizer used by the accelerator (paper §4.2, §5.3),
//! * [`events`] — t-statistic event segmentation used by the basecaller and
//!   UNCALLED-style baselines (paper §8).
//!
//! # Example
//!
//! ```
//! use sf_squiggle::normalize::Normalizer;
//!
//! let raw: Vec<u16> = (0..2000).map(|i| 470 + ((i * 13) % 60) as u16).collect();
//! let normalized = Normalizer::default().normalize_raw(&raw);
//! assert!(normalized.iter().all(|x| x.abs() <= 4.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod normalize;
pub mod signal;
pub mod telemetry;

pub use events::{Event, EventDetector, EventDetectorConfig};
pub use normalize::{CalibratingFeed, NormalizationParams, Normalizer, NormalizerConfig};
pub use signal::{
    PicoampSquiggle, RawSquiggle, SignalStats, DEFAULT_SAMPLE_RATE_HZ, SAMPLES_PER_BASE,
};
