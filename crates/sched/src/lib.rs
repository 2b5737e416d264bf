//! Cross-read micro-batched session scheduling — the server-shaped engine.
//!
//! The paper's ASIC keeps its systolic array saturated by always having a
//! squiggle chunk in flight; the software analogue is to stop running one
//! read to completion per worker and instead schedule *micro-batches* of
//! pending work across every open read, μ-cuDNN-style: the batching decision
//! moves below the per-read request boundary. [`SessionScheduler`] owns
//! thousands of open [`ClassifierSession`]s keyed by [`SessionId`], accepts
//! interleaved `(SessionId, chunk)` [`Arrival`]s from an mpsc ingest queue,
//! coalesces each session's pending chunks, and drains dirty sessions in
//! configurable micro-batches ([`MicroBatchConfig`]) — emitting each
//! session's decision on a completion channel ([`SessionOutcome`]) and
//! evicting it immediately.
//!
//! Correctness anchor: scheduler output is bit-identical per read to a
//! sequential `push_chunk`/`finalize` drive of the same sample stream
//! (micro-batching reorders work across sessions, never within one); see
//! [`scheduler`] for the invariant and `tests/scheduler_parity.rs` in the
//! workspace root for the pinning suite.
//!
//! [`ClassifierSession`]: sf_sdtw::ClassifierSession

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod scheduler;
pub mod telemetry;

pub use scheduler::{
    Arrival, MicroBatchConfig, SchedulerReport, SessionId, SessionOutcome, SessionScheduler,
    MAX_CHUNK_SAMPLES,
};
