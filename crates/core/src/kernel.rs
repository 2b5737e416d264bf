//! The unified subsequence-DTW engine behind [`IntSdtw`] and [`FloatSdtw`].
//!
//! One generic implementation, [`Sdtw<L>`], monomorphizes to both numeric
//! domains through the [`SdtwLane`] trait (sample type, cost type, and the
//! three arithmetic ops the recurrence needs). On top of it sit two
//! object-safe traits — [`SdtwKernel`] for engines and [`SdtwStream`] for
//! their resumable row states — which is what the staged filter engine in
//! `filter.rs` consumes: one `Box<dyn SdtwKernel>` instead of parallel
//! Int/Float match arms, with queries crossing the trait boundary as *normalized* `f32`
//! samples (the integer lane quantizes internally with the exact per-sample
//! formula the old call sites used, so the unification is bit-exact).
//!
//! # Backends
//!
//! Every engine carries the [`KernelBackend`] that
//! [`SdtwConfig::resolved_backend`] chose when it was built; rows never
//! re-decide:
//!
//! * **Scalar** — the branchy one-cell-at-a-time loop, unchanged from the
//!   original kernels. It is the parity oracle: the vector backend and the
//!   hardware model are both checked cell-for-cell against it.
//! * **Vector** — an explicit AVX2 body that updates 8 cells per step off
//!   one compare mask, with column 0 and the sub-8-cell tail left to the
//!   scalar loop. This is only possible because the accelerator's
//!   recurrence drops the `S[i][j-1]` reference-deletion input: without it
//!   no cell of a row depends on another cell of the same row — the exact
//!   property the paper exploits with one PE per reference position.
//!   Configs that allow deletions, and CPUs without AVX2, resolve to Scalar.
//!
//! The two backends are bit-identical on every configuration (strict `<`
//! tie-breaking maps to a branchless select of the same comparison), so the
//! default can pick Vector without changing any result.
//!
//! # Banding
//!
//! [`Band::SakoeChiba`] evaluates only `2 * radius + 1` columns per row,
//! re-centered each row on the previous row's minimum-cost column (row 0 is
//! always full — it enumerates candidate alignment starts). Out-of-band
//! cells hold [`SdtwLane::SENTINEL`] and can never win a row minimum. The
//! ping-pong row buffers track which interval of each buffer is in-band, so
//! a row only resets the `O(radius)` stale cells its window uncovers —
//! never the whole row. Banded streams stay resumable: [`KernelStream::restore`]
//! re-derives the band center from the restored row (out-of-band sentinel
//! cells are strictly worse than every in-band cost, so the argmin — and
//! therefore every later decision — is identical to an unbroken run; the
//! sentinel-range garbage outside the band is the only unspecified state).

use crate::config::{Band, DistanceMetric, KernelBackend, SdtwConfig};
use crate::result::SdtwResult;
use std::fmt;

/// The numeric domain of a kernel: sample type, cost type, and the
/// arithmetic the sDTW recurrence performs on them.
///
/// Implemented by [`IntLane`] (the accelerator's 8-bit fixed-point domain
/// with saturating 32-bit cost accumulation) and [`FloatLane`] (the `f32`
/// software baseline). All methods are branch-free per cell so both backends
/// compile to the same per-cell dataflow.
pub trait SdtwLane: fmt::Debug + Clone + Copy + Send + Sync + 'static {
    /// Query/reference sample type.
    type Sample: Copy + PartialEq + fmt::Debug + Send + Sync;
    /// Accumulated-cost type.
    type Cost: Copy + PartialOrd + fmt::Debug + Send + Sync;

    /// Out-of-band cost: strictly worse than any reachable alignment cost,
    /// and absorbing under [`SdtwLane::accumulate`].
    const SENTINEL: Self::Cost;

    /// Per-cell distance between a query and a reference sample.
    fn distance(metric: DistanceMetric, q: Self::Sample, r: Self::Sample) -> Self::Cost;
    /// Adds a per-cell distance onto a predecessor cost.
    fn accumulate(base: Self::Cost, d: Self::Cost) -> Self::Cost;
    /// Applies a match bonus to a diagonal predecessor cost.
    fn subtract_bonus(cost: Self::Cost, bonus: u32) -> Self::Cost;
    /// Converts a normalized sample to this lane's sample domain (the 8-bit
    /// lane quantizes, the float lane is the identity).
    fn from_normalized(z: f32) -> Self::Sample;
    /// Converts a cost to the `f64` reported in [`SdtwResult`].
    fn cost_to_f64(cost: Self::Cost) -> f64;

    /// The vector backend's 8-lane AVX2 row body for columns `lo..hi`,
    /// bit-identical to [the scalar oracle](crate::KernelBackend::Scalar)
    /// without reference deletions.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2: only engines that
    /// [`SdtwConfig::resolved_backend`] resolved to
    /// [`KernelBackend::Vector`] call it, and that resolution checks the CPU.
    /// The range must satisfy `1 <= lo`, `(hi - lo) % 8 == 0` and `hi <=`
    /// the length of every slice.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn avx2_body(
        config: &SdtwConfig,
        reference: &[Self::Sample],
        q: Self::Sample,
        lo: usize,
        hi: usize,
        row: &[Self::Cost],
        dwell: &[u32],
        starts: &[u32],
        out_row: &mut [Self::Cost],
        out_dwell: &mut [u32],
        out_starts: &mut [u32],
    );
}

/// The accelerator's numeric domain: signed 8-bit fixed-point samples,
/// 32-bit saturating integer costs.
#[derive(Debug, Clone, Copy)]
pub struct IntLane;

impl SdtwLane for IntLane {
    type Sample = i8;
    type Cost = i32;

    const SENTINEL: i32 = i32::MAX;

    #[inline(always)]
    fn distance(metric: DistanceMetric, q: i8, r: i8) -> i32 {
        metric.eval_i8(q, r)
    }

    #[inline(always)]
    fn accumulate(base: i32, d: i32) -> i32 {
        base.saturating_add(d)
    }

    #[inline(always)]
    fn subtract_bonus(cost: i32, bonus: u32) -> i32 {
        // Saturating keeps the sentinel pinned near `i32::MAX`; reachable
        // costs sit far from `i32::MIN`, so this is exact for them.
        cost.saturating_sub(bonus as i32)
    }

    #[inline(always)]
    fn from_normalized(z: f32) -> i8 {
        sf_squiggle::normalize::quantize(z)
    }

    #[inline(always)]
    fn cost_to_f64(cost: i32) -> f64 {
        cost as f64
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    unsafe fn avx2_body(
        config: &SdtwConfig,
        reference: &[i8],
        q: i8,
        lo: usize,
        hi: usize,
        row: &[i32],
        dwell: &[u32],
        starts: &[u32],
        out_row: &mut [i32],
        out_dwell: &mut [u32],
        out_starts: &mut [u32],
    ) {
        avx2::int_row(
            config.distance,
            config.match_bonus,
            reference,
            q,
            lo,
            hi,
            row,
            dwell,
            starts,
            out_row,
            out_dwell,
            out_starts,
        )
    }
}

/// The software baseline's numeric domain: `f32` samples and costs.
#[derive(Debug, Clone, Copy)]
pub struct FloatLane;

impl SdtwLane for FloatLane {
    type Sample = f32;
    type Cost = f32;

    const SENTINEL: f32 = f32::INFINITY;

    #[inline(always)]
    fn distance(metric: DistanceMetric, q: f32, r: f32) -> f32 {
        metric.eval_f32(q, r)
    }

    #[inline(always)]
    fn accumulate(base: f32, d: f32) -> f32 {
        base + d
    }

    #[inline(always)]
    fn subtract_bonus(cost: f32, bonus: u32) -> f32 {
        cost - bonus as f32
    }

    #[inline(always)]
    fn from_normalized(z: f32) -> f32 {
        z
    }

    #[inline(always)]
    fn cost_to_f64(cost: f32) -> f64 {
        cost as f64
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    unsafe fn avx2_body(
        config: &SdtwConfig,
        reference: &[f32],
        q: f32,
        lo: usize,
        hi: usize,
        row: &[f32],
        dwell: &[u32],
        starts: &[u32],
        out_row: &mut [f32],
        out_dwell: &mut [u32],
        out_starts: &mut [u32],
    ) {
        avx2::float_row(
            config.distance,
            config.match_bonus,
            reference,
            q,
            lo,
            hi,
            row,
            dwell,
            starts,
            out_row,
            out_dwell,
            out_starts,
        )
    }
}

/// Engine-side unification of [`IntSdtw`] / [`FloatSdtw`]: everything the
/// streaming filters need from a kernel, object safe, queries in normalized
/// `f32`. Boxed kernels are [`Clone`] (via [`SdtwKernel::clone_kernel`]) so
/// filters stay cheaply copyable.
pub trait SdtwKernel: fmt::Debug + Send + Sync {
    /// The kernel configuration.
    fn config(&self) -> &SdtwConfig;
    /// Number of reference samples (DP columns).
    fn reference_len(&self) -> usize;
    /// The row-update backend this kernel runs (see [`Sdtw::backend`]).
    fn backend(&self) -> KernelBackend;
    /// Starts a streaming alignment.
    fn start(&self) -> Box<dyn SdtwStream + '_>;
    /// Clones the kernel behind the trait object.
    fn clone_kernel(&self) -> Box<dyn SdtwKernel>;
}

impl Clone for Box<dyn SdtwKernel> {
    fn clone(&self) -> Self {
        self.clone_kernel()
    }
}

/// Stream-side unification: the resumable DP row state of an in-progress
/// alignment, fed normalized `f32` samples.
pub trait SdtwStream: fmt::Debug {
    /// Number of query samples processed so far.
    fn samples_processed(&self) -> usize;
    /// DP cells this stream has evaluated (in-band cells only).
    fn cells_evaluated(&self) -> u64;
    /// DP cells Sakoe–Chiba banding skipped (0 under [`Band::Full`]).
    fn band_cells_skipped(&self) -> u64;
    /// Pushes one normalized query sample.
    fn push_normalized(&mut self, z: f32);
    /// Pushes a batch of normalized query samples and flushes the one-shot
    /// DP counters (streaming sessions push per sample instead and flush
    /// through their chunk spans, so the two accounting paths never overlap).
    fn extend_normalized(&mut self, query: &[f32]);
    /// The best subsequence alignment of everything pushed so far.
    fn best(&self) -> Option<SdtwResult>;
}

/// Generic subsequence-DTW aligner over a fixed reference signal.
///
/// Use the [`IntSdtw`] / [`FloatSdtw`] aliases; see [`SdtwLane`] for the
/// numeric domains and the module docs for backends and banding.
#[derive(Debug, Clone)]
pub struct Sdtw<L: SdtwLane> {
    config: SdtwConfig,
    reference: Vec<L::Sample>,
    /// Resolved once here; rows never re-decide.
    backend: KernelBackend,
}

/// Integer (8-bit fixed-point) subsequence-DTW aligner — the accelerator's
/// domain, checked cell-for-cell against the hardware model.
///
/// # Examples
///
/// ```
/// use sf_sdtw::{IntSdtw, SdtwConfig};
///
/// let reference: Vec<i8> = (0..100).map(|i| if (30..50).contains(&i) { 80 } else { -40 }).collect();
/// let query = vec![80i8; 15];
/// let aligner = IntSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
/// let result = aligner.align(&query).unwrap();
/// assert_eq!(result.cost, 0.0);
/// assert!(result.start_position >= 30 && result.end_position < 50);
/// ```
pub type IntSdtw = Sdtw<IntLane>;

/// Floating-point subsequence-DTW aligner — the software baseline.
///
/// # Examples
///
/// ```
/// use sf_sdtw::{FloatSdtw, SdtwConfig};
///
/// // Reference with a distinctive bump in the middle.
/// let reference: Vec<f32> = (0..100).map(|i| if (40..60).contains(&i) { 2.0 } else { 0.0 }).collect();
/// let query = vec![2.0f32; 20];
/// let aligner = FloatSdtw::new(SdtwConfig::hardware_without_bonus(), reference);
/// let result = aligner.align(&query).unwrap();
/// assert_eq!(result.cost, 0.0);
/// assert!(result.start_position >= 40 && result.end_position < 60);
/// ```
pub type FloatSdtw = Sdtw<FloatLane>;

/// Streaming state of an in-progress integer alignment (one DP row).
pub type IntSdtwStream<'a> = KernelStream<'a, IntLane>;

/// Streaming state of an in-progress floating-point alignment (one DP row).
pub type FloatSdtwStream<'a> = KernelStream<'a, FloatLane>;

impl<L: SdtwLane> Sdtw<L> {
    /// Creates an aligner for the given reference signal.
    ///
    /// # Panics
    ///
    /// Panics if the reference is empty.
    pub fn new(config: SdtwConfig, reference: Vec<L::Sample>) -> Self {
        assert!(!reference.is_empty(), "reference signal must not be empty");
        // Alignment starts are tracked as `u32` column indices (half the
        // memory traffic of `usize`, and one 32-bit SIMD lane per column).
        assert!(
            u32::try_from(reference.len()).is_ok(),
            "reference signal longer than u32::MAX samples"
        );
        let backend = config.resolved_backend();
        crate::telemetry::metrics()
            .kernel_backend
            .set(u64::from(backend == KernelBackend::Vector));
        Sdtw {
            config,
            reference,
            backend,
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> &SdtwConfig {
        &self.config
    }

    /// The reference signal.
    pub fn reference(&self) -> &[L::Sample] {
        &self.reference
    }

    /// The row-update backend this engine runs, as resolved by
    /// [`SdtwConfig::resolved_backend`] when it was built.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Aligns a complete query, or returns `None` for an empty query.
    pub fn align(&self, query: &[L::Sample]) -> Option<SdtwResult> {
        let mut stream = self.stream();
        stream.extend(query);
        stream.best()
    }

    /// Starts a streaming alignment.
    pub fn stream(&self) -> KernelStream<'_, L> {
        let m = self.reference.len();
        KernelStream {
            engine: self,
            row: vec![L::SENTINEL; m],
            dwell: vec![0; m],
            starts: vec![0; m],
            // Pre-filled with the sentinel so banded rows only ever reset
            // the stale interval a previous window left behind.
            scratch_row: vec![L::SENTINEL; m],
            scratch_dwell: vec![0; m],
            scratch_starts: vec![0; m],
            samples: 0,
            row_win: (0, 0),
            scratch_win: (0, 0),
            center: 0,
            cells: 0,
            skipped: 0,
        }
    }

    /// Number of DP cells an *unbanded* query of `query_len` samples
    /// evaluates (the §4.8 operation count). Banding evaluates fewer; see
    /// [`KernelStream::cells_evaluated`] for the actual count.
    pub fn cell_count(&self, query_len: usize) -> u64 {
        query_len as u64 * self.reference.len() as u64
    }
}

impl<L: SdtwLane> SdtwKernel for Sdtw<L> {
    fn config(&self) -> &SdtwConfig {
        self.config()
    }

    fn reference_len(&self) -> usize {
        self.reference.len()
    }

    fn backend(&self) -> KernelBackend {
        self.backend()
    }

    fn start(&self) -> Box<dyn SdtwStream + '_> {
        Box::new(self.stream())
    }

    fn clone_kernel(&self) -> Box<dyn SdtwKernel> {
        Box::new(self.clone())
    }
}

/// Streaming state of an in-progress alignment: one DP row plus per-column
/// dwell counters and alignment-start bookkeeping.
///
/// The row can be inspected and restored, which is how both multi-stage
/// filtering (paper §4.6) and the accelerator's DRAM spill of intermediate
/// costs (paper §5.1) are modelled.
#[derive(Debug, Clone)]
pub struct KernelStream<'a, L: SdtwLane> {
    engine: &'a Sdtw<L>,
    row: Vec<L::Cost>,
    dwell: Vec<u32>,
    starts: Vec<u32>,
    scratch_row: Vec<L::Cost>,
    scratch_dwell: Vec<u32>,
    scratch_starts: Vec<u32>,
    samples: usize,
    /// In-band interval of `row`; cells outside it hold the sentinel.
    row_win: (usize, usize),
    /// In-band interval of the scratch buffers (the row before last); the
    /// part of it the next window does not overwrite is reset to sentinel.
    scratch_win: (usize, usize),
    /// Column the next row's band window is centered on (the current row's
    /// minimum-cost column; only maintained under [`Band::SakoeChiba`]).
    center: usize,
    /// In-band DP cells evaluated so far.
    cells: u64,
    /// Out-of-band DP cells skipped so far.
    skipped: u64,
}

impl<L: SdtwLane> KernelStream<'_, L> {
    /// Number of query samples processed so far.
    pub fn samples_processed(&self) -> usize {
        self.samples
    }

    /// DP cells evaluated so far (in-band cells only).
    pub fn cells_evaluated(&self) -> u64 {
        self.cells
    }

    /// DP cells skipped by banding so far (0 under [`Band::Full`]).
    pub fn band_cells_skipped(&self) -> u64 {
        self.skipped
    }

    /// Pushes a batch of query samples.
    pub fn extend(&mut self, samples: &[L::Sample]) {
        let cells_before = self.cells;
        let skipped_before = self.skipped;
        for &q in samples {
            self.push(q);
        }
        self.flush_oneshot(samples.len() as u64, cells_before, skipped_before);
    }

    /// Pushes a batch of normalized samples (converted through
    /// [`SdtwLane::from_normalized`]).
    pub fn extend_normalized(&mut self, query: &[f32]) {
        let cells_before = self.cells;
        let skipped_before = self.skipped;
        for &z in query {
            self.push(L::from_normalized(z));
        }
        self.flush_oneshot(query.len() as u64, cells_before, skipped_before);
    }

    /// One-shot callers (align, the staged classify loop) reach the kernel
    /// through extend; streaming sessions push per sample and account DP
    /// work through their chunk spans, so the two counting paths never
    /// overlap.
    fn flush_oneshot(&self, rows: u64, cells_before: u64, skipped_before: u64) {
        let m = crate::telemetry::metrics();
        m.dp_rows.add(rows);
        m.dp_cells.add(self.cells - cells_before);
        m.band_cells_skipped.add(self.skipped - skipped_before);
    }

    /// Pushes a single query sample, updating the DP row.
    pub fn push(&mut self, q: L::Sample) {
        // sf-lint: hot-path
        let config = &self.engine.config;
        let reference = &self.engine.reference[..];
        let m = reference.len();
        if self.samples == 0 {
            // Row 0: every column is a legal alignment start, so it is
            // evaluated in full even under banding.
            for j in 0..m {
                self.row[j] = L::distance(config.distance, q, reference[j]);
                self.dwell[j] = 1;
                self.starts[j] = j as u32;
            }
            self.samples = 1;
            self.row_win = (0, m);
            self.cells += m as u64;
            if config.band.is_banded() {
                self.center = argmin::<L>(&self.row, 0, m);
            }
            return;
        }
        let (lo, hi) = match config.band {
            Band::Full => (0, m),
            Band::SakoeChiba { radius } => {
                let lo = self.center.saturating_sub(radius);
                let hi = self.center.saturating_add(radius + 1).min(m);
                (lo, hi)
            }
        };
        // Reset the stale in-band cells of the scratch buffers that this
        // window will not overwrite (the window from two rows ago, minus the
        // new window) — O(radius), never O(reference).
        let (stale_lo, stale_hi) = self.scratch_win;
        for j in stale_lo..stale_hi.min(lo) {
            self.scratch_row[j] = L::SENTINEL;
            self.scratch_dwell[j] = 1;
            self.scratch_starts[j] = j as u32;
        }
        for j in stale_lo.max(hi)..stale_hi {
            self.scratch_row[j] = L::SENTINEL;
            self.scratch_dwell[j] = 1;
            self.scratch_starts[j] = j as u32;
        }
        match self.engine.backend {
            // SAFETY: `Sdtw::new` stored the backend `resolved_backend`
            // chose, which is `Vector` only on a CPU with AVX2.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Vector => unsafe {
                vector_row::<L>(
                    config,
                    reference,
                    q,
                    lo,
                    hi,
                    &self.row,
                    &self.dwell,
                    &self.starts,
                    &mut self.scratch_row,
                    &mut self.scratch_dwell,
                    &mut self.scratch_starts,
                )
            },
            _ => scalar_row::<L>(
                config,
                reference,
                q,
                lo,
                hi,
                &self.row,
                &self.dwell,
                &self.starts,
                &mut self.scratch_row,
                &mut self.scratch_dwell,
                &mut self.scratch_starts,
            ),
        }
        std::mem::swap(&mut self.row, &mut self.scratch_row);
        std::mem::swap(&mut self.dwell, &mut self.scratch_dwell);
        std::mem::swap(&mut self.starts, &mut self.scratch_starts);
        self.scratch_win = self.row_win;
        self.row_win = (lo, hi);
        self.samples += 1;
        self.cells += (hi - lo) as u64;
        self.skipped += (m - (hi - lo)) as u64;
        if config.band.is_banded() {
            self.center = argmin::<L>(&self.row, lo, hi);
        }
        // sf-lint: end-hot-path
    }

    /// The best subsequence alignment of everything pushed so far, or `None`
    /// if no samples have been pushed.
    pub fn best(&self) -> Option<SdtwResult> {
        if self.samples == 0 {
            return None;
        }
        let end = argmin::<L>(&self.row, 0, self.row.len());
        Some(SdtwResult {
            cost: L::cost_to_f64(self.row[end]),
            start_position: self.starts[end] as usize,
            end_position: end,
            query_samples: self.samples,
        })
    }

    /// The current DP row. The accelerator spills exactly this row to DRAM
    /// between multi-stage filtering stages.
    pub fn row(&self) -> &[L::Cost] {
        &self.row
    }

    /// The per-column dwell counters (samples aligned to each reference
    /// position in the best path ending there).
    pub fn dwell(&self) -> &[u32] {
        &self.dwell
    }

    /// The per-column alignment start positions (column indices).
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Restores a previously saved DP row (plus dwell counters), modelling a
    /// multi-stage resume from DRAM. Under banding the band center is
    /// re-derived from the restored row's minimum-cost column, which matches
    /// an unbroken run exactly (out-of-band sentinels never win an argmin).
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the reference length.
    pub fn restore(&mut self, row: &[L::Cost], dwell: &[u32], starts: &[u32], samples: usize) {
        assert_eq!(row.len(), self.row.len(), "row length mismatch");
        assert_eq!(dwell.len(), self.dwell.len(), "dwell length mismatch");
        assert_eq!(starts.len(), self.starts.len(), "starts length mismatch");
        self.row.copy_from_slice(row);
        self.dwell.copy_from_slice(dwell);
        self.starts.copy_from_slice(starts);
        self.samples = samples;
        let m = self.row.len();
        self.row_win = (0, m);
        // The scratch buffers may hold arbitrary pre-restore state: mark the
        // whole buffer stale so the next push resets whatever its window
        // does not overwrite.
        self.scratch_win = (0, m);
        if samples > 0 && self.engine.config.band.is_banded() {
            self.center = argmin::<L>(&self.row, 0, m);
        }
    }
}

impl<L: SdtwLane> SdtwStream for KernelStream<'_, L> {
    fn samples_processed(&self) -> usize {
        self.samples
    }

    fn cells_evaluated(&self) -> u64 {
        self.cells
    }

    fn band_cells_skipped(&self) -> u64 {
        self.skipped
    }

    fn push_normalized(&mut self, z: f32) {
        self.push(L::from_normalized(z));
    }

    fn extend_normalized(&mut self, query: &[f32]) {
        KernelStream::extend_normalized(self, query);
    }

    fn best(&self) -> Option<SdtwResult> {
        KernelStream::best(self)
    }
}

/// First index of the minimum cost in `row[lo..hi]` (first-minimum
/// semantics, matching `Iterator::min_by` on the full row).
#[inline]
fn argmin<L: SdtwLane>(row: &[L::Cost], lo: usize, hi: usize) -> usize {
    let mut best = lo;
    let mut best_cost = row[lo];
    for (j, &cost) in row.iter().enumerate().take(hi).skip(lo + 1) {
        if cost < best_cost {
            best_cost = cost;
            best = j;
        }
    }
    best
}

/// The scalar (oracle) row update: one cell at a time, in-order, exactly the
/// original kernels' loop. Handles every configuration, including reference
/// deletions (the `out_row[j - 1]` read is the loop-carried dependency that
/// keeps this backend scalar).
#[allow(clippy::too_many_arguments)]
fn scalar_row<L: SdtwLane>(
    config: &SdtwConfig,
    reference: &[L::Sample],
    q: L::Sample,
    lo: usize,
    hi: usize,
    row: &[L::Cost],
    dwell: &[u32],
    starts: &[u32],
    out_row: &mut [L::Cost],
    out_dwell: &mut [u32],
    out_starts: &mut [u32],
) {
    // sf-lint: hot-path
    let bonus = config.match_bonus;
    for j in lo..hi {
        let d = L::distance(config.distance, q, reference[j]);
        // Vertical: same reference base consumes another query sample.
        let mut best = row[j];
        let mut best_dwell = dwell[j] + 1;
        let mut best_start = starts[j];
        if j > 0 {
            // Diagonal: advance to a new reference base.
            let mut diag = row[j - 1];
            if let Some(b) = bonus {
                diag = L::subtract_bonus(diag, b.bonus_for_dwell(dwell[j - 1]));
            }
            if diag < best {
                best = diag;
                best_dwell = 1;
                best_start = starts[j - 1];
            }
            // Reference deletion: same query sample spans another base. The
            // left neighbor must itself be in-band.
            if config.allow_reference_deletion && j > lo {
                let left = out_row[j - 1];
                if left < best {
                    best = left;
                    best_dwell = 1;
                    best_start = out_starts[j - 1];
                }
            }
        }
        out_row[j] = L::accumulate(best, d);
        out_dwell[j] = best_dwell;
        out_starts[j] = best_start;
    }
    // sf-lint: end-hot-path
}

/// The vector backend's row update. Without reference deletions no cell of
/// a row depends on another cell of the same row, so the row splits into
/// three independent column ranges: column 0 (no diagonal predecessor) and
/// the sub-8-cell tail go through [`scalar_row`], the largest multiple of 8
/// cells in between through [`SdtwLane::avx2_body`]. Every cell outside the
/// AVX2 body is computed by the oracle itself.
///
/// # Safety
///
/// The CPU must support AVX2, which holds whenever the engine's backend
/// resolved to [`KernelBackend::Vector`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn vector_row<L: SdtwLane>(
    config: &SdtwConfig,
    reference: &[L::Sample],
    q: L::Sample,
    lo: usize,
    hi: usize,
    row: &[L::Cost],
    dwell: &[u32],
    starts: &[u32],
    out_row: &mut [L::Cost],
    out_dwell: &mut [u32],
    out_starts: &mut [u32],
) {
    // sf-lint: hot-path
    debug_assert!(!config.allow_reference_deletion);
    let body_lo = lo.max(1).min(hi);
    let body_hi = body_lo + (hi - body_lo) / 8 * 8;
    scalar_row::<L>(
        config, reference, q, lo, body_lo, row, dwell, starts, out_row, out_dwell, out_starts,
    );
    L::avx2_body(
        config, reference, q, body_lo, body_hi, row, dwell, starts, out_row, out_dwell, out_starts,
    );
    scalar_row::<L>(
        config, reference, q, body_hi, hi, row, dwell, starts, out_row, out_dwell, out_starts,
    );
    // sf-lint: end-hot-path
}

/// Explicit AVX2 row bodies (8 × 32-bit lanes), reached through
/// [`SdtwLane::avx2_body`]. Bit-exactness with the scalar oracle is the
/// contract: saturating i32 arithmetic is emulated lane-wise with the exact
/// overflow semantics of `i32::saturating_add`/`saturating_sub`, and the
/// strict `<` diagonal-vs-vertical select maps to `vpcmpgtd`/`vcmpltps`
/// (ordered, quiet — ties and NaNs fall back to the vertical move, like the
/// scalar code). The bodies cover whole 8-cell blocks only; [`vector_row`]
/// hands column 0 and the tail to [`scalar_row`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::config::{DistanceMetric, MatchBonus};
    use std::arch::x86_64::*;

    /// Lane-wise `i32::saturating_add`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sat_add_epi32(a: __m256i, b: __m256i) -> __m256i {
        let sum = _mm256_add_epi32(a, b);
        // Signed overflow iff the operands agree in sign and the sum does
        // not; saturate toward the operands' shared sign.
        let overflow = _mm256_srai_epi32::<31>(_mm256_andnot_si256(
            _mm256_xor_si256(a, b),
            _mm256_xor_si256(a, sum),
        ));
        let saturated = _mm256_xor_si256(_mm256_srai_epi32::<31>(a), _mm256_set1_epi32(i32::MAX));
        _mm256_blendv_epi8(sum, saturated, overflow)
    }

    /// Lane-wise `i32::saturating_sub`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sat_sub_epi32(a: __m256i, b: __m256i) -> __m256i {
        let diff = _mm256_sub_epi32(a, b);
        // Signed overflow iff the operands differ in sign and the result
        // flips away from `a`; saturate toward `a`'s sign.
        let overflow = _mm256_srai_epi32::<31>(_mm256_and_si256(
            _mm256_xor_si256(a, b),
            _mm256_xor_si256(a, diff),
        ));
        let saturated = _mm256_xor_si256(_mm256_srai_epi32::<31>(a), _mm256_set1_epi32(i32::MAX));
        _mm256_blendv_epi8(diff, saturated, overflow)
    }

    /// The bonus-adjusted diagonal term for 8 integer lanes:
    /// `saturating_sub(diag, bonus_per_sample * min(dwell, dwell_cap))`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn bonus_diag_epi32(diag: __m256i, dw: __m256i, bps: __m256i, cap: __m256i) -> __m256i {
        sat_sub_epi32(diag, _mm256_mullo_epi32(bps, _mm256_min_epu32(dw, cap)))
    }

    /// AVX2 integer row body for columns `lo..hi` (`lo >= 1`, a whole
    /// number of 8-cell blocks); bit-exact with [`super::scalar_row`]
    /// without reference deletions.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn int_row(
        metric: DistanceMetric,
        bonus: Option<MatchBonus>,
        reference: &[i8],
        q: i8,
        lo: usize,
        hi: usize,
        row: &[i32],
        dwell: &[u32],
        starts: &[u32],
        out_row: &mut [i32],
        out_dwell: &mut [u32],
        out_starts: &mut [u32],
    ) {
        // sf-lint: hot-path
        debug_assert!(lo >= 1 && (hi - lo) % 8 == 0 && hi <= row.len());
        let qv = _mm256_set1_epi32(q as i32);
        let ones = _mm256_set1_epi32(1);
        let squared = matches!(metric, DistanceMetric::Squared);
        let (bps, cap) = match bonus {
            Some(b) => (
                _mm256_set1_epi32(b.bonus_per_sample as i32),
                _mm256_set1_epi32(b.dwell_cap as i32),
            ),
            None => (_mm256_setzero_si256(), _mm256_setzero_si256()),
        };
        let mut j = lo;
        while j + 8 <= hi {
            // 8 reference samples, widened i8 -> i32.
            let refs =
                _mm256_cvtepi8_epi32(_mm_loadl_epi64(reference.as_ptr().add(j) as *const __m128i));
            let delta = _mm256_sub_epi32(qv, refs);
            let d = if squared {
                _mm256_mullo_epi32(delta, delta)
            } else {
                _mm256_abs_epi32(delta)
            };
            let vert = _mm256_loadu_si256(row.as_ptr().add(j) as *const __m256i);
            let mut diag = _mm256_loadu_si256(row.as_ptr().add(j - 1) as *const __m256i);
            if bonus.is_some() {
                let dw = _mm256_loadu_si256(dwell.as_ptr().add(j - 1) as *const __m256i);
                diag = bonus_diag_epi32(diag, dw, bps, cap);
            }
            // take = diag < vert (strict: ties keep the vertical move).
            let take = _mm256_cmpgt_epi32(vert, diag);
            let best = _mm256_blendv_epi8(vert, diag, take);
            _mm256_storeu_si256(
                out_row.as_mut_ptr().add(j) as *mut __m256i,
                sat_add_epi32(best, d),
            );
            let vert_dw = _mm256_loadu_si256(dwell.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(
                out_dwell.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_blendv_epi8(_mm256_add_epi32(vert_dw, ones), ones, take),
            );
            let vert_st = _mm256_loadu_si256(starts.as_ptr().add(j) as *const __m256i);
            let diag_st = _mm256_loadu_si256(starts.as_ptr().add(j - 1) as *const __m256i);
            _mm256_storeu_si256(
                out_starts.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_blendv_epi8(vert_st, diag_st, take),
            );
            j += 8;
        }
        // sf-lint: end-hot-path
    }

    /// AVX2 float row body for columns `lo..hi` (`lo >= 1`, a whole
    /// number of 8-cell blocks); bit-exact with [`super::scalar_row`]
    /// without reference deletions.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn float_row(
        metric: DistanceMetric,
        bonus: Option<MatchBonus>,
        reference: &[f32],
        q: f32,
        lo: usize,
        hi: usize,
        row: &[f32],
        dwell: &[u32],
        starts: &[u32],
        out_row: &mut [f32],
        out_dwell: &mut [u32],
        out_starts: &mut [u32],
    ) {
        // sf-lint: hot-path
        debug_assert!(lo >= 1 && (hi - lo) % 8 == 0 && hi <= row.len());
        let qv = _mm256_set1_ps(q);
        let ones = _mm256_set1_epi32(1);
        let sign_mask = _mm256_set1_ps(-0.0);
        let squared = matches!(metric, DistanceMetric::Squared);
        let (bps, cap) = match bonus {
            Some(b) => (
                _mm256_set1_epi32(b.bonus_per_sample as i32),
                _mm256_set1_epi32(b.dwell_cap as i32),
            ),
            None => (_mm256_setzero_si256(), _mm256_setzero_si256()),
        };
        let mut j = lo;
        while j + 8 <= hi {
            let refs = _mm256_loadu_ps(reference.as_ptr().add(j));
            let delta = _mm256_sub_ps(qv, refs);
            let d = if squared {
                _mm256_mul_ps(delta, delta)
            } else {
                _mm256_andnot_ps(sign_mask, delta)
            };
            let vert = _mm256_loadu_ps(row.as_ptr().add(j));
            let mut diag = _mm256_loadu_ps(row.as_ptr().add(j - 1));
            if bonus.is_some() {
                let dw = _mm256_loadu_si256(dwell.as_ptr().add(j - 1) as *const __m256i);
                let b = _mm256_cvtepi32_ps(_mm256_mullo_epi32(bps, _mm256_min_epu32(dw, cap)));
                diag = _mm256_sub_ps(diag, b);
            }
            // take = diag < vert, ordered-quiet: a NaN lane keeps the
            // vertical move, matching scalar `PartialOrd`.
            let take = _mm256_cmp_ps::<_CMP_LT_OQ>(diag, vert);
            let take_bits = _mm256_castps_si256(take);
            let best = _mm256_blendv_ps(vert, diag, take);
            _mm256_storeu_ps(out_row.as_mut_ptr().add(j), _mm256_add_ps(best, d));
            let vert_dw = _mm256_loadu_si256(dwell.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(
                out_dwell.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_blendv_epi8(_mm256_add_epi32(vert_dw, ones), ones, take_bits),
            );
            let vert_st = _mm256_loadu_si256(starts.as_ptr().add(j) as *const __m256i);
            let diag_st = _mm256_loadu_si256(starts.as_ptr().add(j - 1) as *const __m256i);
            _mm256_storeu_si256(
                out_starts.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_blendv_epi8(vert_st, diag_st, take_bits),
            );
            j += 8;
        }
        // sf-lint: end-hot-path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchBonus;

    fn reference_i8(n: usize, seed: u32) -> Vec<i8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((x >> 24) as i32 - 128) as i8
            })
            .collect()
    }

    fn reference_f32(n: usize, seed: u32) -> Vec<f32> {
        reference_i8(n, seed)
            .iter()
            .map(|&v| v as f32 / 32.0)
            .collect()
    }

    fn configs() -> Vec<SdtwConfig> {
        vec![
            SdtwConfig::hardware(),
            SdtwConfig::hardware_without_bonus(),
            SdtwConfig::vanilla().with_reference_deletions(false),
            SdtwConfig::hardware().with_match_bonus(Some(MatchBonus {
                bonus_per_sample: 3,
                dwell_cap: 4,
            })),
        ]
    }

    /// Full-state equality: row, dwell, starts AND the reported best.
    fn assert_streams_identical<L: SdtwLane>(a: &KernelStream<'_, L>, b: &KernelStream<'_, L>)
    where
        L::Cost: PartialEq,
    {
        assert_eq!(a.row(), b.row());
        assert_eq!(a.dwell(), b.dwell());
        assert_eq!(a.starts(), b.starts());
        assert_eq!(a.best(), b.best());
    }

    /// Reference lengths 1..=17 reach column-0-only rows, rows shorter than
    /// one 8-cell block and every tail length 0–7; the radii reach windows of
    /// 1, 3 and 7 cells clipped at either edge of the reference.
    fn split_cases(long: usize) -> Vec<(usize, Band)> {
        let bands = [
            Band::Full,
            Band::SakoeChiba { radius: 0 },
            Band::SakoeChiba { radius: 1 },
            Band::SakoeChiba { radius: 3 },
        ];
        (1..=17)
            .chain([long])
            .flat_map(|n| bands.map(|band| (n, band)))
            .collect()
    }

    #[test]
    fn vector_backend_is_bit_identical_to_scalar_int() {
        let query = reference_i8(190, 99);
        for (n, band) in split_cases(257) {
            let reference = reference_i8(n, 7);
            for config in configs() {
                let config = config.with_band(band);
                let scalar = IntSdtw::new(
                    config.with_backend(KernelBackend::Scalar),
                    reference.clone(),
                );
                let vector = IntSdtw::new(
                    config.with_backend(KernelBackend::Vector),
                    reference.clone(),
                );
                assert_eq!(vector.backend(), KernelBackend::Vector, "config {config:?}");
                let mut s = scalar.stream();
                let mut v = vector.stream();
                for &q in &query {
                    s.push(q);
                    v.push(q);
                    assert_streams_identical(&s, &v);
                }
            }
        }
    }

    #[test]
    fn vector_backend_is_bit_identical_to_scalar_float() {
        let query = reference_f32(97, 3);
        for (n, band) in split_cases(131) {
            let reference = reference_f32(n, 17);
            for config in configs() {
                let config = config.with_band(band);
                let scalar = FloatSdtw::new(
                    config.with_backend(KernelBackend::Scalar),
                    reference.clone(),
                );
                let vector = FloatSdtw::new(
                    config.with_backend(KernelBackend::Vector),
                    reference.clone(),
                );
                let mut s = scalar.stream();
                let mut v = vector.stream();
                for &q in &query {
                    s.push(q);
                    v.push(q);
                    assert_streams_identical(&s, &v);
                }
            }
        }
    }

    #[test]
    fn vector_resolves_unless_deletions_are_allowed() {
        let reference = reference_i8(32, 1);
        let default = IntSdtw::new(SdtwConfig::hardware(), reference.clone());
        assert_eq!(default.backend(), KernelBackend::Vector);
        let deletions = IntSdtw::new(
            SdtwConfig::hardware().with_reference_deletions(true),
            reference.clone(),
        );
        assert_eq!(deletions.backend(), KernelBackend::Scalar);
        // Requesting Vector with deletions falls back to the only backend
        // that can honor the loop-carried dependency.
        let forced = IntSdtw::new(
            SdtwConfig::hardware()
                .with_reference_deletions(true)
                .with_backend(KernelBackend::Vector),
            reference,
        );
        assert_eq!(forced.backend(), KernelBackend::Scalar);
    }

    #[test]
    fn full_band_equals_a_radius_covering_the_reference() {
        let reference = reference_i8(200, 5);
        let query = reference_i8(150, 55);
        for config in configs() {
            let full = IntSdtw::new(config.with_band(Band::Full), reference.clone());
            let banded = IntSdtw::new(
                config.with_band(Band::SakoeChiba { radius: 200 }),
                reference.clone(),
            );
            let mut f = full.stream();
            let mut b = banded.stream();
            for &q in &query {
                f.push(q);
                b.push(q);
                assert_streams_identical(&f, &b);
            }
            assert_eq!(b.band_cells_skipped(), 0);
        }
    }

    #[test]
    fn banding_skips_cells_and_keeps_the_exact_match() {
        // The query is an exact (warped) subsequence: the zero-cost alignment
        // path is exactly where the adaptive band re-centers, so a narrow
        // band still finds cost 0 at the right position.
        let reference = reference_i8(400, 23);
        let query: Vec<i8> = reference[120..180]
            .iter()
            .flat_map(|&v| [v, v, v])
            .collect();
        let banded = IntSdtw::new(
            SdtwConfig::hardware_without_bonus().with_band(Band::SakoeChiba { radius: 24 }),
            reference.clone(),
        );
        let mut stream = banded.stream();
        stream.extend(&query);
        let best = stream.best().unwrap();
        assert_eq!(best.cost, 0.0);
        assert_eq!(best.start_position, 120);
        assert_eq!(best.end_position, 179);
        assert!(
            stream.band_cells_skipped() > 0,
            "narrow band must skip cells"
        );
        let total = query.len() as u64 * reference.len() as u64;
        assert_eq!(
            stream.cells_evaluated() + stream.band_cells_skipped(),
            total
        );
        // Row 0 is always full; later rows evaluate at most 2r + 1 cells.
        assert!(stream.cells_evaluated() <= reference.len() as u64 + (query.len() as u64 - 1) * 49);
    }

    #[test]
    fn banded_restore_matches_an_unbroken_banded_run() {
        let reference = reference_i8(300, 41);
        let query: Vec<i8> = reference[40..140].iter().flat_map(|&v| [v, v]).collect();
        for radius in [8usize, 32, 64] {
            let kernel = IntSdtw::new(
                SdtwConfig::hardware().with_band(Band::SakoeChiba { radius }),
                reference.clone(),
            );
            let mut unbroken = kernel.stream();
            unbroken.extend(&query);

            let mut first = kernel.stream();
            first.extend(&query[..77]);
            let (row, dwell, starts, n) = (
                first.row().to_vec(),
                first.dwell().to_vec(),
                first.starts().to_vec(),
                first.samples_processed(),
            );
            let mut second = kernel.stream();
            second.restore(&row, &dwell, &starts, n);
            second.extend(&query[77..]);
            // Verdict-level parity: out-of-band cells may differ (both hold
            // sentinel-range garbage), but the reported alignment must not.
            assert_eq!(second.best(), unbroken.best(), "radius {radius}");
        }
    }

    #[test]
    fn trait_objects_roundtrip_the_typed_kernels() {
        let reference = reference_i8(150, 9);
        let query_z: Vec<f32> = (0..80).map(|i| ((i % 17) as f32 - 8.0) / 2.5).collect();
        let typed = IntSdtw::new(SdtwConfig::hardware(), reference.clone());
        let boxed: Box<dyn SdtwKernel> = Box::new(typed.clone());
        let cloned = boxed.clone();
        assert_eq!(cloned.reference_len(), reference.len());
        assert_eq!(cloned.backend(), KernelBackend::Vector);

        // extend_normalized == stream of push_normalized == typed quantize path.
        let want = typed
            .align(
                &query_z
                    .iter()
                    .map(|&z| IntLane::from_normalized(z))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let mut batch = boxed.start();
        batch.extend_normalized(&query_z);
        assert_eq!(batch.best(), Some(want));
        let mut stream = boxed.start();
        for &z in &query_z {
            stream.push_normalized(z);
        }
        assert_eq!(stream.best(), Some(want));
        assert_eq!(stream.samples_processed(), query_z.len());
        assert_eq!(
            stream.cells_evaluated(),
            query_z.len() as u64 * reference.len() as u64
        );
        assert_eq!(stream.band_cells_skipped(), 0);
        assert_eq!(boxed.start().best(), None);
    }
}
