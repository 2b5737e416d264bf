//! The unified subsequence-DTW engine behind [`IntSdtw`] and [`FloatSdtw`].
//!
//! One generic implementation, [`Sdtw<L>`], monomorphizes to both numeric
//! domains through the [`SdtwLane`] trait (sample type, cost type, and the
//! three arithmetic ops the recurrence needs). The staged filter in
//! `filter.rs` runs the accelerator's domain only: it holds an [`IntSdtw`]
//! and streams each read through a [`KernelStream<IntLane>`](KernelStream),
//! feeding it *normalized* `f32` samples that the lane quantizes one at a
//! time ([`SdtwLane::from_normalized`]), bit-identical to quantizing the
//! whole prefix up front. [`FloatSdtw`] is the software baseline that the
//! Figure 18 ablation scores directly.
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
//!   no cell of a row depends on another cell of the same row — the
//!   property that lets the paper's systolic array (one PE per query
//!   sample, the reference streaming through) compute an anti-diagonal
//!   per cycle.
//!   Configs that allow deletions, and CPUs without AVX2, resolve to Scalar.
//!
//! The two backends are bit-identical on every configuration (strict `<`
//! tie-breaking maps to a branchless select of the same comparison), so the
//! default can pick Vector without changing any result.
//!
//! Every row evaluates every reference column, as the accelerator's
//! systolic array does by streaming the whole reference past every query
//! sample, so a stream's DP work is exactly `samples × reference length`
//! cells.

use crate::config::{bonus_for_dwell, DistanceMetric, KernelBackend, SdtwConfig};
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
    type Cost: Copy + PartialOrd + Default + fmt::Debug + Send + Sync;

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
        out_row: &mut [Self::Cost],
        out_dwell: &mut [u32],
    );
}

/// The accelerator's numeric domain: signed 8-bit fixed-point samples,
/// 32-bit saturating integer costs.
#[derive(Debug, Clone, Copy)]
pub struct IntLane;

impl SdtwLane for IntLane {
    type Sample = i8;
    type Cost = i32;

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
        // Saturating like `accumulate`; reachable costs sit far from
        // `i32::MIN`, so this is exact for them.
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
        out_row: &mut [i32],
        out_dwell: &mut [u32],
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
            out_row,
            out_dwell,
        )
    }
}

/// The software baseline's numeric domain: `f32` samples and costs.
#[derive(Debug, Clone, Copy)]
pub struct FloatLane;

impl SdtwLane for FloatLane {
    type Sample = f32;
    type Cost = f32;

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
        out_row: &mut [f32],
        out_dwell: &mut [u32],
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
            out_row,
            out_dwell,
        )
    }
}

/// Generic subsequence-DTW aligner over a fixed reference signal.
///
/// Use the [`IntSdtw`] / [`FloatSdtw`] aliases; see [`SdtwLane`] for the
/// numeric domains and the module docs for backends.
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
/// assert!((30..50).contains(&result.end_position));
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
/// assert!((40..60).contains(&result.end_position));
/// ```
pub type FloatSdtw = Sdtw<FloatLane>;

impl<L: SdtwLane> Sdtw<L> {
    /// Creates an aligner for the given reference signal.
    ///
    /// # Panics
    ///
    /// Panics if the reference is empty.
    pub fn new(config: SdtwConfig, reference: Vec<L::Sample>) -> Self {
        assert!(!reference.is_empty(), "reference signal must not be empty");
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
        // Row 0 overwrites every column before anything is read.
        KernelStream {
            engine: self,
            row: vec![L::Cost::default(); m],
            dwell: vec![0; m],
            scratch_row: vec![L::Cost::default(); m],
            scratch_dwell: vec![0; m],
            samples: 0,
        }
    }
}

/// Streaming state of an in-progress alignment: one DP row of costs plus
/// per-column dwell counters — the two values each of the accelerator's PEs
/// registers per cell.
///
/// The row can be inspected; it is what the accelerator spills to DRAM
/// between multi-stage filtering stages (paper §4.6, §5.1).
#[derive(Debug, Clone)]
pub struct KernelStream<'a, L: SdtwLane> {
    engine: &'a Sdtw<L>,
    row: Vec<L::Cost>,
    dwell: Vec<u32>,
    scratch_row: Vec<L::Cost>,
    scratch_dwell: Vec<u32>,
    samples: usize,
}

impl<L: SdtwLane> KernelStream<'_, L> {
    /// Number of query samples processed so far.
    pub fn samples_processed(&self) -> usize {
        self.samples
    }

    /// DP cells evaluated so far: every row is full, so this is
    /// `samples × reference length`.
    pub fn cells_evaluated(&self) -> u64 {
        self.samples as u64 * self.engine.reference.len() as u64
    }

    /// Pushes a batch of query samples.
    pub fn extend(&mut self, samples: &[L::Sample]) {
        for &q in samples {
            self.push(q);
        }
        self.flush_oneshot(samples.len() as u64);
    }

    /// Pushes a batch of normalized samples (converted through
    /// [`SdtwLane::from_normalized`]).
    pub fn extend_normalized(&mut self, query: &[f32]) {
        for &z in query {
            self.push(L::from_normalized(z));
        }
        self.flush_oneshot(query.len() as u64);
    }

    /// One-shot callers (align, the staged classify loop) reach the kernel
    /// through extend; streaming sessions push per sample and account DP
    /// work through their chunk spans, so the two counting paths never
    /// overlap.
    fn flush_oneshot(&self, rows: u64) {
        let m = crate::telemetry::metrics();
        m.dp_rows.add(rows);
        m.dp_cells.add(rows * self.engine.reference.len() as u64);
    }

    /// Pushes a single query sample, updating the DP row.
    pub fn push(&mut self, q: L::Sample) {
        // sf-lint: hot-path
        let config = &self.engine.config;
        let reference = &self.engine.reference[..];
        let m = reference.len();
        if self.samples == 0 {
            // Row 0: every column is a legal alignment start.
            for j in 0..m {
                self.row[j] = L::distance(config.distance, q, reference[j]);
                self.dwell[j] = 1;
            }
            self.samples = 1;
            return;
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
                    &self.row,
                    &self.dwell,
                    &mut self.scratch_row,
                    &mut self.scratch_dwell,
                )
            },
            _ => scalar_row::<L>(
                config,
                reference,
                q,
                0,
                m,
                &self.row,
                &self.dwell,
                &mut self.scratch_row,
                &mut self.scratch_dwell,
            ),
        }
        std::mem::swap(&mut self.row, &mut self.scratch_row);
        std::mem::swap(&mut self.dwell, &mut self.scratch_dwell);
        self.samples += 1;
        // sf-lint: end-hot-path
    }

    /// The best subsequence alignment of everything pushed so far, or `None`
    /// if no samples have been pushed.
    pub fn best(&self) -> Option<SdtwResult> {
        if self.samples == 0 {
            return None;
        }
        // First minimum, matching `Iterator::min_by` on the row.
        let mut end = 0;
        let mut end_cost = self.row[0];
        for (j, &cost) in self.row.iter().enumerate().skip(1) {
            if cost < end_cost {
                end_cost = cost;
                end = j;
            }
        }
        Some(SdtwResult {
            cost: L::cost_to_f64(end_cost),
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
    out_row: &mut [L::Cost],
    out_dwell: &mut [u32],
) {
    // sf-lint: hot-path
    for j in lo..hi {
        let d = L::distance(config.distance, q, reference[j]);
        // Vertical: same reference base consumes another query sample.
        let mut best = row[j];
        let mut best_dwell = dwell[j] + 1;
        if j > 0 {
            // Diagonal: advance to a new reference base.
            let mut diag = row[j - 1];
            if config.match_bonus {
                diag = L::subtract_bonus(diag, bonus_for_dwell(dwell[j - 1]));
            }
            if diag < best {
                best = diag;
                best_dwell = 1;
            }
            // Reference deletion: same query sample spans another base.
            if config.allow_reference_deletion {
                let left = out_row[j - 1];
                if left < best {
                    best = left;
                    best_dwell = 1;
                }
            }
        }
        out_row[j] = L::accumulate(best, d);
        out_dwell[j] = best_dwell;
    }
    // sf-lint: end-hot-path
}

/// The vector backend's full-row update. Without reference deletions no
/// cell of a row depends on another cell of the same row, so the row splits
/// into three independent column ranges: column 0 (no diagonal predecessor)
/// and the sub-8-cell tail go through [`scalar_row`], the largest multiple
/// of 8 cells in between through [`SdtwLane::avx2_body`]. Every cell outside
/// the AVX2 body is computed by the oracle itself.
///
/// # Safety
///
/// The CPU must support AVX2, which holds whenever the engine's backend
/// resolved to [`KernelBackend::Vector`].
#[cfg(target_arch = "x86_64")]
unsafe fn vector_row<L: SdtwLane>(
    config: &SdtwConfig,
    reference: &[L::Sample],
    q: L::Sample,
    row: &[L::Cost],
    dwell: &[u32],
    out_row: &mut [L::Cost],
    out_dwell: &mut [u32],
) {
    // sf-lint: hot-path
    debug_assert!(!config.allow_reference_deletion);
    // `Sdtw::new` rejects empty references, so column 0 always exists.
    let m = reference.len();
    let body_hi = 1 + (m - 1) / 8 * 8;
    scalar_row::<L>(config, reference, q, 0, 1, row, dwell, out_row, out_dwell);
    L::avx2_body(
        config, reference, q, 1, body_hi, row, dwell, out_row, out_dwell,
    );
    scalar_row::<L>(
        config, reference, q, body_hi, m, row, dwell, out_row, out_dwell,
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
    use crate::config::{DistanceMetric, MATCH_BONUS_DWELL_CAP, MATCH_BONUS_PER_SAMPLE};
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

    /// [`crate::config::bonus_for_dwell`] for 8 lanes:
    /// `MATCH_BONUS_PER_SAMPLE * min(dwell, MATCH_BONUS_DWELL_CAP)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn bonus_epi32(dw: __m256i) -> __m256i {
        _mm256_mullo_epi32(
            _mm256_set1_epi32(MATCH_BONUS_PER_SAMPLE as i32),
            _mm256_min_epu32(dw, _mm256_set1_epi32(MATCH_BONUS_DWELL_CAP as i32)),
        )
    }

    /// AVX2 integer row body for columns `lo..hi` (`lo >= 1`, a whole
    /// number of 8-cell blocks); bit-exact with [`super::scalar_row`]
    /// without reference deletions.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn int_row(
        metric: DistanceMetric,
        bonus: bool,
        reference: &[i8],
        q: i8,
        lo: usize,
        hi: usize,
        row: &[i32],
        dwell: &[u32],
        out_row: &mut [i32],
        out_dwell: &mut [u32],
    ) {
        // sf-lint: hot-path
        debug_assert!(lo >= 1 && (hi - lo) % 8 == 0 && hi <= row.len());
        let qv = _mm256_set1_epi32(q as i32);
        let ones = _mm256_set1_epi32(1);
        let squared = matches!(metric, DistanceMetric::Squared);
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
            if bonus {
                let dw = _mm256_loadu_si256(dwell.as_ptr().add(j - 1) as *const __m256i);
                diag = sat_sub_epi32(diag, bonus_epi32(dw));
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
        bonus: bool,
        reference: &[f32],
        q: f32,
        lo: usize,
        hi: usize,
        row: &[f32],
        dwell: &[u32],
        out_row: &mut [f32],
        out_dwell: &mut [u32],
    ) {
        // sf-lint: hot-path
        debug_assert!(lo >= 1 && (hi - lo) % 8 == 0 && hi <= row.len());
        let qv = _mm256_set1_ps(q);
        let ones = _mm256_set1_epi32(1);
        let sign_mask = _mm256_set1_ps(-0.0);
        let squared = matches!(metric, DistanceMetric::Squared);
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
            if bonus {
                let dw = _mm256_loadu_si256(dwell.as_ptr().add(j - 1) as *const __m256i);
                diag = _mm256_sub_ps(diag, _mm256_cvtepi32_ps(bonus_epi32(dw)));
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
            j += 8;
        }
        // sf-lint: end-hot-path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        ]
    }

    /// Full-state equality: row, dwell AND the reported best.
    fn assert_streams_identical<L: SdtwLane>(a: &KernelStream<'_, L>, b: &KernelStream<'_, L>)
    where
        L::Cost: PartialEq,
    {
        assert_eq!(a.row(), b.row());
        assert_eq!(a.dwell(), b.dwell());
        assert_eq!(a.best(), b.best());
    }

    /// Reference lengths 1..=17 reach column-0-only rows, rows shorter than
    /// one 8-cell block and every tail length 0–7.
    fn split_cases(long: usize) -> Vec<usize> {
        (1..=17).chain([long]).collect()
    }

    #[test]
    fn vector_backend_is_bit_identical_to_scalar_int() {
        let query = reference_i8(190, 99);
        for n in split_cases(257) {
            let reference = reference_i8(n, 7);
            for config in configs() {
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
        for n in split_cases(131) {
            let reference = reference_f32(n, 17);
            for config in configs() {
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
    fn normalized_stream_matches_quantized_align() {
        let reference = reference_i8(150, 9);
        let query_z: Vec<f32> = (0..80).map(|i| ((i % 17) as f32 - 8.0) / 2.5).collect();
        let kernel = IntSdtw::new(SdtwConfig::hardware(), reference.clone());

        // extend_normalized == per-sample quantize == align on the quantized query.
        let quantized: Vec<i8> = query_z
            .iter()
            .map(|&z| IntLane::from_normalized(z))
            .collect();
        let want = kernel.align(&quantized).unwrap();
        let mut batch = kernel.stream();
        batch.extend_normalized(&query_z);
        assert_eq!(batch.best(), Some(want));
        let mut stream = kernel.stream();
        for &z in &query_z {
            stream.push(IntLane::from_normalized(z));
        }
        assert_eq!(stream.best(), Some(want));
        assert_eq!(stream.samples_processed(), query_z.len());
        assert_eq!(
            stream.cells_evaluated(),
            query_z.len() as u64 * reference.len() as u64
        );
        assert_eq!(kernel.stream().best(), None);
    }
}
