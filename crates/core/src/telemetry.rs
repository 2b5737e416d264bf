//! Metric names (and private handles) for the classifier pipeline.
//!
//! Naming follows `docs/observability.md`: `sdtw.*` covers the DP kernels
//! and streaming sessions. The per-sample DP loops are never instrumented
//! directly — sessions accumulate plain integers (the crate-private
//! `SessionStats`) and flush them to the global registry once per chunk via
//! a `ChunkSpan`, so the hot path stays free of clock reads and the flush
//! itself is a handful of relaxed atomic adds.

use crate::kernel::{IntLane, KernelStream};
use sf_telemetry::{
    register_counter, register_gauge, register_histogram, Counter, Gauge, Histogram, Stopwatch,
};
use std::sync::OnceLock;

/// Histogram: wall-clock nanoseconds per [`ClassifierSession::push_chunk`]
/// call (including normalization and decision checks).
///
/// [`ClassifierSession::push_chunk`]: crate::ClassifierSession::push_chunk
pub const SDTW_CHUNK_PUSH_NS: &str = "sdtw.chunk_push_ns";
/// Counter: DP cells evaluated (rows × reference samples), all kernels.
pub const SDTW_DP_CELLS: &str = "sdtw.dp_cells";
/// Counter: DP rows processed (one row per query sample).
pub const SDTW_DP_ROWS: &str = "sdtw.dp_rows";
/// Gauge: row-update backend of the most recently constructed kernel: 1
/// only when its rows run the AVX2 body (vector requested, no reference
/// deletions, AVX2 CPU), else 0 (scalar). Set once per kernel construction,
/// never from the hot path.
pub const SDTW_KERNEL_BACKEND: &str = "sdtw.kernel_backend";
/// Counter: nanoseconds of session chunk time attributed to the DP phase
/// (chunk wall-clock minus normalize-estimation and decision-scan time).
pub const SDTW_STAGE_DP_NS: &str = "sdtw.stage.dp_ns";
/// Counter: nanoseconds spent scanning DP rows for decisions (early-reject
/// checks, stage boundaries, final decisions).
pub const SDTW_STAGE_DECISION_NS: &str = "sdtw.stage.decision_ns";
/// Counter: streaming decisions that fired before the sample budget (the
/// paper's early ejects — sequencing time handed back to the pore).
pub const SDTW_EARLY_REJECTS: &str = "sdtw.early_rejects";
/// Counter: staged sessions passing a stage boundary on to the next stage
/// (only filters with more than one stage escalate).
pub const SDTW_STAGE_ESCALATIONS: &str = "sdtw.stage_escalations";

pub(crate) struct Metrics {
    pub chunk_push_ns: &'static Histogram,
    pub dp_cells: &'static Counter,
    pub dp_rows: &'static Counter,
    pub kernel_backend: &'static Gauge,
    pub dp_ns: &'static Counter,
    pub decision_ns: &'static Counter,
    pub early_rejects: &'static Counter,
    pub stage_escalations: &'static Counter,
}

/// The crate's registered metric handles (registered once, then lock-free).
pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        chunk_push_ns: register_histogram(SDTW_CHUNK_PUSH_NS),
        dp_cells: register_counter(SDTW_DP_CELLS),
        dp_rows: register_counter(SDTW_DP_ROWS),
        kernel_backend: register_gauge(SDTW_KERNEL_BACKEND),
        dp_ns: register_counter(SDTW_STAGE_DP_NS),
        decision_ns: register_counter(SDTW_STAGE_DECISION_NS),
        early_rejects: register_counter(SDTW_EARLY_REJECTS),
        stage_escalations: register_counter(SDTW_STAGE_ESCALATIONS),
    })
}

/// Per-session plain-integer accumulators. Sessions thread this through
/// their per-sample sink instead of touching global metrics: the sink adds
/// to ordinary `u64`s and [`record_chunk`] flushes the deltas once per
/// chunk. With telemetry disabled every stopwatch reads 0 and every add is
/// dead, so the whole structure folds away.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionStats {
    /// Nanoseconds spent in decision row scans (`kernel.best()`).
    pub decision_ns: u64,
}

/// A chunk-granularity measurement span: captures the session's counters on
/// entry to `push_chunk` (or a finalize flush) and flushes the deltas to
/// the global metrics when the span ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkSpan {
    sw: Stopwatch,
    rows_before: usize,
    cells_before: u64,
    estimate_ns_before: u64,
    decision_ns_before: u64,
}

impl ChunkSpan {
    /// Opens a span on the session's DP `stream`, its feed's cumulative
    /// `estimate_ns` and its `stats` accumulators — all *before* the chunk
    /// runs.
    pub fn begin(
        stream: &KernelStream<'_, IntLane>,
        estimate_ns: u64,
        stats: &SessionStats,
    ) -> Self {
        ChunkSpan {
            sw: Stopwatch::start(),
            rows_before: stream.samples_processed(),
            cells_before: stream.cells_evaluated(),
            estimate_ns_before: estimate_ns,
            decision_ns_before: stats.decision_ns,
        }
    }

    /// Closes the span: records chunk latency and flushes DP-row/cell and
    /// phase-time deltas. The DP share is what remains of the chunk's
    /// wall-clock after the normalize-estimation and decision-scan deltas
    /// are subtracted (the per-sample normalize transform is a few ops
    /// against an O(reference) DP row, so lumping it with DP skews nothing
    /// measurable).
    pub fn finish(
        self,
        stream: &KernelStream<'_, IntLane>,
        estimate_ns: u64,
        stats: &SessionStats,
    ) {
        let elapsed = self.sw.elapsed_ns();
        let m = metrics();
        m.chunk_push_ns.record(elapsed);
        m.dp_rows
            .add((stream.samples_processed() - self.rows_before) as u64);
        m.dp_cells.add(stream.cells_evaluated() - self.cells_before);
        let estimate_delta = estimate_ns - self.estimate_ns_before;
        let decision_delta = stats.decision_ns - self.decision_ns_before;
        m.decision_ns.add(decision_delta);
        m.dp_ns
            .add(elapsed.saturating_sub(estimate_delta + decision_delta));
    }
}
