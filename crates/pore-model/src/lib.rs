//! Nanopore pore models and reference squiggle construction.
//!
//! This crate converts DNA sequences into the electrical signals a nanopore
//! sequencer is expected to measure:
//!
//! * [`KmerModel`] — the k-mer → expected-current lookup table (a synthetic
//!   stand-in for ONT's published 6-mer model, or loaded from TSV),
//! * [`ReferenceSquiggle`] — a genome's pre-computed, normalized and
//!   quantized expected signal, as stored in an accelerator tile's reference
//!   buffer (paper §4.1),
//! * [`AdcModel`] — the MinION's raw-ADC-count ↔ picoampere calibration.
//!
//! # Example
//!
//! ```
//! use sf_pore_model::{KmerModel, ReferenceSquiggle};
//! use sf_genome::random::covid_like_genome;
//!
//! let model = KmerModel::synthetic_r94(0);
//! let genome = covid_like_genome(1);
//! let reference = ReferenceSquiggle::from_genome(&model, &genome);
//! // SARS-CoV-2 needs roughly 60k reference samples (both strands).
//! assert!(reference.total_samples() < 60_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adc;
pub mod kmer;
pub mod reference;

pub use adc::AdcModel;
pub use kmer::{KmerLevel, KmerModel, KmerModelError};
pub use reference::ReferenceSquiggle;
