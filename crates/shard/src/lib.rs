//! Sharded multi-target reference classification.
//!
//! The single-reference [`sf_sdtw::SquiggleFilter`] answers "is this read my
//! virus?"; this crate scales the *reference* side to answer "is this read
//! any of my targets — and which one?". It follows the paper's hardware
//! story (one programmed filter per target, scaled out) as a software
//! fan-out/merge:
//!
//! * [`classifier`] — the [`ShardedClassifier`]: one single-reference
//!   classifier per target, fanned per read, merged into one best-of
//!   [`sf_sdtw::StreamClassification`] carrying the winning
//!   [`sf_sdtw::TargetId`]. A 1-shard catalog is bit-identical to the
//!   single-reference path, and the merge is order-invariant.
//! * [`panel`] — pan-viral panel workloads built from `sf-genome`'s virus
//!   catalog and Table 2 strain machinery (≥ 8 targets including
//!   near-identical strains), used by `tests/panel_accuracy.rs` and the
//!   `batch_scaling` bench's `sharding` section.
//! * [`telemetry`] — the `shard.*` metric names.

#![warn(missing_docs)]

pub mod classifier;
pub mod panel;
pub mod telemetry;

pub use classifier::{merge_outcomes, Shard, ShardedClassifier, ShardedSession};
pub use panel::{pan_viral_panel, panel_classifier, target_group, PanelConfig, PanelTarget};
