//! Metric names (and private handles) for the sharded classifier.
//!
//! Naming follows `docs/observability.md`: `shard.*` covers the multi-target
//! fan-out. All metrics here are counters flushed at session granularity
//! (session open, merge) — the per-sample work happens inside the per-shard
//! sessions, which carry their own `sdtw.*` instrumentation.

use sf_telemetry::{register_counter, Counter};
use std::sync::OnceLock;

/// Counter: sharded reads resolved into a merged best-of classification.
pub const SHARD_READS: &str = "shard.reads";
/// Counter: per-target sessions opened by the fan-out (one per shard per
/// read; `fanout_sessions / reads` is the mean catalog width).
pub const SHARD_FANOUT_SESSIONS: &str = "shard.fanout_sessions";

pub(crate) struct Metrics {
    pub reads: &'static Counter,
    pub fanout_sessions: &'static Counter,
}

/// The crate's registered metric handles (registered once, then lock-free).
pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        reads: register_counter(SHARD_READS),
        fanout_sessions: register_counter(SHARD_FANOUT_SESSIONS),
    })
}
