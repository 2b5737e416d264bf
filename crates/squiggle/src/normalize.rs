//! Query normalization (paper §4.2 and §5.3).
//!
//! Raw nanopore currents vary from pore to pore because of slight differences
//! in applied bias voltage, so every read must be rescaled before it can be
//! compared against the reference squiggle. The accelerator's normalizer:
//!
//! 1. accumulates the first `n = 2000` samples and computes their mean and
//!    Mean Absolute Deviation (MAD),
//! 2. transforms each sample with mean–MAD normalization,
//! 3. **re-estimates** mean and MAD over the trailing window every 2000
//!    samples as the read streams on (pore baselines drift mid-read),
//! 4. clips outliers, and
//! 5. rescales to a signed 8-bit fixed-point value in `[-4, 4]`.
//!
//! This module is the software (floating-point) model of that pipeline. It
//! is not bit-exact with the hardware: `sf-hw`'s `HardwareNormalizer` is a
//! separate Q16.16 model that truncates and estimates once, and its tests
//! allow 2 quantization codes of difference. The rolling re-estimation
//! state machine is [`CalibratingFeed`]; both the batch
//! entry points ([`Normalizer::normalize_raw`] and friends) and the
//! streaming classifier sessions in `sf-sdtw` are built on it, which is what
//! keeps chunked streaming bit-identical to one-shot classification (see
//! `docs/streaming.md` in the repository root).

use crate::signal::stats;
use crate::telemetry::metrics;
use sf_telemetry::Stopwatch;
use std::collections::VecDeque;

/// The fixed-point range used by the 8-bit quantizer: normalized values are
/// clipped to `[-FIXED_POINT_RANGE, FIXED_POINT_RANGE]` (paper §5.3: "we use
/// fixed-point values in the range \[-4, 4\]").
pub const FIXED_POINT_RANGE: f32 = 4.0;

/// Configuration of the normalization pipeline.
///
/// # Examples
///
/// A latency-oriented rolling configuration: calibrate on the first 500
/// samples, then re-estimate over the trailing 500 samples every 250 samples
/// so the parameters track pore-baseline drift mid-read:
///
/// ```
/// use sf_squiggle::normalize::{Normalizer, NormalizerConfig};
///
/// let config = NormalizerConfig::default()
///     .with_calibration_window(500)
///     .with_recalibration_interval(250);
/// let normalizer = Normalizer::new(config);
///
/// // A signal whose baseline drifts upward by 200 ADC counts over the read:
/// let raw: Vec<u16> = (0..2_000)
///     .map(|i| 450 + (i / 10) as u16 + ((i * 13) % 40) as u16)
///     .collect();
/// let rolling = normalizer.normalize_raw(&raw);
/// // Rolling re-estimation keeps the tail of the read near the baseline…
/// let tail_mean: f32 = rolling[1_500..].iter().sum::<f32>() / 500.0;
/// assert!(tail_mean < 3.0, "tail mean {tail_mean}");
/// // …whereas freezing the first 500-sample estimate lets the drift
/// // accumulate until the tail saturates against the outlier clip.
/// let frozen = Normalizer::new(config.with_recalibration_interval(0)).normalize_raw(&raw);
/// let frozen_tail: f32 = frozen[1_500..].iter().sum::<f32>() / 500.0;
/// assert!(frozen_tail > 3.5, "frozen tail {frozen_tail}");
/// assert!(tail_mean + 1.0 < frozen_tail);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NormalizerConfig {
    /// Number of samples mean and scale are estimated over: the first
    /// `calibration_window` samples for the initial estimate, and the
    /// trailing `calibration_window` samples for every re-estimation (when
    /// [`NormalizerConfig::recalibration_interval`] is non-zero).
    pub calibration_window: usize,
    /// Interval, in samples, at which normalization parameters are
    /// re-estimated over the trailing [`NormalizerConfig::calibration_window`]
    /// samples once the initial window has filled. The hardware re-estimates
    /// every 2000 samples (the default); `0` freezes the parameters after the
    /// initial calibration window. Set this below a filter's
    /// `prefix_samples` (together with a short window) when streaming
    /// ejection latency matters: decisions can then fire as soon as the
    /// short window fills, and the rolling re-estimation recovers the
    /// accuracy a short frozen window would lose.
    pub recalibration_interval: usize,
}

impl Default for NormalizerConfig {
    fn default() -> Self {
        NormalizerConfig {
            calibration_window: 2000,
            recalibration_interval: 2000,
        }
    }
}

impl NormalizerConfig {
    /// Sets the calibration window.
    #[must_use]
    pub fn with_calibration_window(mut self, calibration_window: usize) -> Self {
        self.calibration_window = calibration_window;
        self
    }

    /// Sets the recalibration interval (`0` freezes parameters after the
    /// initial window).
    #[must_use]
    pub fn with_recalibration_interval(mut self, recalibration_interval: usize) -> Self {
        self.recalibration_interval = recalibration_interval;
        self
    }
}

/// Normalization parameters estimated from a calibration window.
///
/// Under rolling re-estimation
/// ([`NormalizerConfig::recalibration_interval`] > 0) the active parameters
/// are replaced mid-stream: every sample is transformed with the parameters
/// estimated at the most recent (re)calibration point before it, so the
/// transform is causal — it never depends on samples that have not arrived
/// yet — and batch and streaming paths agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NormalizationParams {
    /// Estimated signal mean.
    pub shift: f32,
    /// Estimated signal scale: the mean absolute deviation.
    pub scale: f32,
}

impl NormalizationParams {
    /// Applies the shift → scale → clip transform to one sample. Outliers
    /// are clipped to `±`[`FIXED_POINT_RANGE`], the range [`quantize`] maps
    /// onto the 8-bit domain. This is *the* per-sample normalization
    /// formula: batch normalization
    /// ([`Normalizer::normalize_with`]) and the incremental streaming
    /// classifier sessions in `sf-sdtw` both go through it, which is what
    /// keeps chunked streaming bit-identical to the one-shot path.
    #[inline]
    pub fn apply(self, sample: f32) -> f32 {
        ((sample - self.shift) / self.scale).clamp(-FIXED_POINT_RANGE, FIXED_POINT_RANGE)
    }

    /// How far `newer` has moved from `self`, in units of `self`'s scale:
    /// `|Δshift| / scale + |Δscale| / scale`. Useful for instrumentation
    /// (how much did the pore baseline drift between recalibrations?) and
    /// for tests that assert a drift was actually tracked.
    pub fn drift(self, newer: NormalizationParams) -> f32 {
        ((newer.shift - self.shift).abs() + (newer.scale - self.scale).abs())
            / self.scale.max(f32::EPSILON)
    }
}

/// The query normalizer.
///
/// # Examples
///
/// ```
/// use sf_squiggle::normalize::{Normalizer, NormalizerConfig};
///
/// let raw: Vec<u16> = (0..2000).map(|i| 480 + (i % 40) as u16).collect();
/// let normalizer = Normalizer::new(NormalizerConfig::default());
/// let normalized = normalizer.normalize_raw(&raw);
/// assert_eq!(normalized.len(), raw.len());
/// // Normalized output is centred on zero.
/// let mean: f32 = normalized.iter().sum::<f32>() / normalized.len() as f32;
/// assert!(mean.abs() < 0.05);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Normalizer {
    config: NormalizerConfig,
}

impl Normalizer {
    /// Creates a normalizer with the given configuration.
    pub fn new(config: NormalizerConfig) -> Self {
        Normalizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &NormalizerConfig {
        &self.config
    }

    /// Estimates normalization parameters — mean and mean absolute
    /// deviation, the accelerator's square-root-free scale — from the first
    /// `calibration_window` samples of `signal`.
    pub fn estimate<T: Into<f64> + Copy>(&self, signal: &[T]) -> NormalizationParams {
        let window = &signal[..signal.len().min(self.config.calibration_window)];
        let s = stats(window);
        NormalizationParams {
            shift: s.mean as f32,
            scale: (s.mad as f32).max(f32::EPSILON),
        }
    }

    /// Normalizes a whole signal through the rolling state machine — the
    /// batch counterpart of a streaming [`CalibratingFeed`], guaranteed
    /// sample-for-sample identical to feeding the same signal chunk by chunk.
    fn normalize_rolling<T: Into<f64> + Copy>(&self, signal: &[T]) -> Vec<f32> {
        let mut out = Vec::with_capacity(signal.len());
        let mut feed = CalibratingFeed::new(self.config, signal.len());
        let mut sink = |z: f32| {
            out.push(z);
            false
        };
        feed.push(signal, &mut sink);
        feed.flush(&mut sink);
        out
    }

    /// Normalizes a floating-point signal with parameters estimated from its
    /// own calibration window (and re-estimated every
    /// [`NormalizerConfig::recalibration_interval`] samples), clipping
    /// outliers.
    pub fn normalize(&self, signal: &[f32]) -> Vec<f32> {
        self.normalize_rolling(signal)
    }

    /// Normalizes a raw integer signal (ADC counts).
    pub fn normalize_raw(&self, signal: &[u16]) -> Vec<f32> {
        self.normalize_rolling(signal)
    }

    /// Normalizes any sample stream with explicit, pre-estimated parameters.
    /// The parameters are applied as-is to every sample — no rolling
    /// re-estimation happens on this path.
    pub fn normalize_with<I>(&self, samples: I, params: NormalizationParams) -> Vec<f32>
    where
        I: IntoIterator<Item = f64>,
    {
        samples
            .into_iter()
            .map(|x| params.apply(x as f32))
            .collect()
    }

    /// Normalizes and quantizes to the accelerator's signed 8-bit domain.
    pub fn normalize_raw_quantized(&self, signal: &[u16]) -> Vec<i8> {
        self.normalize_raw(signal)
            .iter()
            .copied()
            .map(quantize)
            .collect()
    }
}

/// Quantizes a normalized value into the signed 8-bit fixed-point domain
/// (`[-4, 4]` mapped onto `[-127, 127]`).
pub fn quantize(value: f32) -> i8 {
    let clamped = value.clamp(-FIXED_POINT_RANGE, FIXED_POINT_RANGE);
    (clamped / FIXED_POINT_RANGE * 127.0).round() as i8
}

/// Inverse of [`quantize`], recovering an approximate normalized value.
pub fn dequantize(value: i8) -> f32 {
    value as f32 / 127.0 * FIXED_POINT_RANGE
}

/// The rolling normalization state machine shared by every consumer of the
/// normalizer: buffers raw samples until the calibration window fills,
/// estimates [`NormalizationParams`], and from then on drains every sample
/// through a per-sample sink — re-estimating the parameters over the
/// trailing window every [`NormalizerConfig::recalibration_interval`]
/// samples, exactly as the accelerator's streaming normalizer does.
///
/// Both the batch entry points ([`Normalizer::normalize_raw`] and friends)
/// and the incremental classifier sessions in `sf-sdtw` are built on this
/// one state machine, which is what keeps chunked streaming bit-identical
/// to one-shot classification no matter where the chunk boundaries fall or
/// how often the parameters are re-derived. The sink returns `true` to stop
/// the feed early (a streaming session uses this when a decision becomes
/// final).
///
/// Re-estimation is *causal*: the parameters applied to sample `i` are
/// always derived from samples that arrived strictly before `i`. The k-th
/// recalibration happens at sample count `calibration_window +
/// k * recalibration_interval` and estimates over the trailing
/// `calibration_window` samples.
#[derive(Debug, Clone)]
pub struct CalibratingFeed<T = u16> {
    /// The normalizer configuration driving (re)calibration.
    config: NormalizerConfig,
    /// Raw samples buffered before the calibration window fills.
    pending: Vec<T>,
    /// Trailing `calibration_window` raw samples, maintained only when
    /// recalibration is enabled.
    history: VecDeque<T>,
    /// Active normalization parameters, present once calibrated.
    params: Option<NormalizationParams>,
    /// Raw samples accepted so far (never exceeds `budget`).
    received: usize,
    /// Raw samples drained through the sink so far.
    emitted: usize,
    /// Raw samples needed before the initial parameters can be estimated.
    calibration_point: usize,
    /// Sample count at which the next re-estimation fires (`usize::MAX`
    /// when recalibration is disabled).
    next_recalibration: usize,
    /// Maximum raw samples the feed will ever accept.
    budget: usize,
    /// Whether a re-estimation can ever fire within the budget — when it
    /// cannot (the default window == interval == budget configuration),
    /// the trailing-window history is not maintained at all, keeping the
    /// per-sample hot path free of ring-buffer work.
    recalibration_reachable: bool,
    /// Number of mid-stream re-estimations performed so far.
    recalibrations: usize,
    /// Nanoseconds this feed has spent estimating parameters (telemetry;
    /// always `0` when telemetry is compiled out).
    estimate_ns: u64,
}

impl<T: Into<f64> + Copy> CalibratingFeed<T> {
    /// Creates a feed that accepts at most `budget` raw samples and
    /// calibrates per `config`.
    pub fn new(config: NormalizerConfig, budget: usize) -> Self {
        let calibration_point = config.calibration_window.min(budget);
        // The k-th re-estimation fires lazily, before the sample *after*
        // count `calibration_point + k·interval` — so the first one is
        // reachable only if at least one sample lies beyond that count.
        let recalibration_reachable = config.recalibration_interval > 0
            && calibration_point + config.recalibration_interval < budget;
        CalibratingFeed {
            config,
            pending: Vec::new(),
            history: VecDeque::new(),
            params: None,
            received: 0,
            emitted: 0,
            calibration_point,
            next_recalibration: usize::MAX,
            budget,
            recalibration_reachable,
            recalibrations: 0,
            estimate_ns: 0,
        }
    }

    /// Raw samples accepted so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// The active normalization parameters (`None` until the calibration
    /// window has filled or [`CalibratingFeed::flush`] ran).
    pub fn params(&self) -> Option<NormalizationParams> {
        self.params
    }

    /// Number of mid-stream re-estimations performed so far (excluding the
    /// initial calibration).
    pub fn recalibrations(&self) -> usize {
        self.recalibrations
    }

    /// Nanoseconds this feed has spent estimating normalization parameters
    /// so far. Streaming sessions read this before and after a chunk to
    /// attribute the chunk's wall-clock to the normalize phase; it is `0`
    /// when telemetry is disabled.
    pub fn estimate_ns(&self) -> u64 {
        self.estimate_ns
    }

    /// Raw-sample count at which information produced at feed position `n`
    /// became available: never before the calibration window filled, and
    /// never more samples than the stream actually delivered.
    pub fn decision_point(&self, n: usize) -> usize {
        n.max(self.calibration_point).min(self.received)
    }

    /// Accepts a chunk (clipped to the remaining budget). Once the
    /// calibration window fills, drains the buffer and all further samples
    /// through `sink`; the sink returns `true` to stop the feed early.
    pub fn push(&mut self, chunk: &[T], sink: &mut dyn FnMut(f32) -> bool) {
        let take = &chunk[..chunk.len().min(self.budget - self.received)];
        self.received += take.len();
        match self.params {
            None => {
                self.pending.extend_from_slice(take);
                if self.pending.len() >= self.calibration_point {
                    self.calibrate(sink);
                }
            }
            Some(_) => self.feed(take, sink),
        }
    }

    /// End-of-stream: calibrates on whatever is buffered, exactly like the
    /// one-shot path does on a short prefix.
    pub fn flush(&mut self, sink: &mut dyn FnMut(f32) -> bool) {
        if self.params.is_none() && !self.pending.is_empty() {
            self.calibrate(sink);
        }
    }

    /// Initial calibration: estimate over the buffered window, then drain
    /// the buffer through the per-sample feed.
    fn calibrate(&mut self, sink: &mut dyn FnMut(f32) -> bool) {
        let sw = Stopwatch::start();
        self.params = Some(Normalizer::new(self.config).estimate(&self.pending));
        let ns = sw.elapsed_ns();
        self.estimate_ns += ns;
        let m = metrics();
        m.calibrations.incr();
        m.estimate_ns.add(ns);
        if self.recalibration_reachable {
            self.next_recalibration = self.calibration_point + self.config.recalibration_interval;
        }
        let buffered = std::mem::take(&mut self.pending);
        self.feed(&buffered, sink);
    }

    /// Re-estimates the parameters over the trailing window (in stream
    /// order) and schedules the next re-estimation.
    fn recalibrate(&mut self) {
        let sw = Stopwatch::start();
        let window = self.history.make_contiguous();
        self.params = Some(Normalizer::new(self.config).estimate(window));
        let ns = sw.elapsed_ns();
        self.estimate_ns += ns;
        let m = metrics();
        m.recalibrations.incr();
        m.estimate_ns.add(ns);
        self.recalibrations += 1;
        self.next_recalibration += self.config.recalibration_interval;
    }

    /// Drains raw samples through the sink, applying the shared per-sample
    /// formula with whatever parameters are active at each sample.
    fn feed(&mut self, raw: &[T], sink: &mut dyn FnMut(f32) -> bool) {
        for &sample in raw {
            if self.emitted == self.next_recalibration {
                self.recalibrate();
            }
            let z = self
                .params
                // sf-lint: allow(panic) -- the calibration gate above sets params before emitting
                .expect("feed only runs after calibration")
                .apply(sample.into() as f32);
            if self.recalibration_reachable {
                self.history.push_back(sample);
                if self.history.len() > self.config.calibration_window {
                    self.history.pop_front();
                }
            }
            self.emitted += 1;
            if sink(z) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_signal(len: usize, mean: f32, amplitude: f32) -> Vec<f32> {
        (0..len)
            .map(|i| mean + amplitude * ((i % 20) as f32 / 20.0 - 0.5))
            .collect()
    }

    #[test]
    fn normalization_is_shift_and_scale_invariant() {
        let normalizer = Normalizer::default();
        let a = synthetic_signal(4000, 90.0, 20.0);
        // Same shape, different pore bias (shifted and scaled).
        let b: Vec<f32> = a.iter().map(|x| x * 1.7 + 35.0).collect();
        let na = normalizer.normalize(&a);
        let nb = normalizer.normalize(&b);
        for (x, y) in na.iter().zip(&nb) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn mean_mad_normalization_centres_signal() {
        let normalizer = Normalizer::default();
        let signal = synthetic_signal(2000, 450.0, 80.0);
        let normalized = normalizer.normalize(&signal);
        let mean: f32 = normalized.iter().sum::<f32>() / normalized.len() as f32;
        assert!(mean.abs() < 0.05);
    }

    #[test]
    fn outliers_are_clipped() {
        let mut signal = synthetic_signal(2000, 90.0, 10.0);
        signal[100] = 100_000.0;
        signal[200] = -100_000.0;
        let normalized = Normalizer::default().normalize(&signal);
        assert!(normalized.iter().all(|x| x.abs() <= FIXED_POINT_RANGE));
        assert_eq!(normalized[100], FIXED_POINT_RANGE);
        assert_eq!(normalized[200], -FIXED_POINT_RANGE);
    }

    #[test]
    fn calibration_window_limits_estimation() {
        let config = NormalizerConfig {
            calibration_window: 100,
            ..Default::default()
        };
        let normalizer = Normalizer::new(config);
        // First 100 samples around 90, later samples around 900: the estimate
        // must only reflect the calibration window.
        let mut signal = vec![90.0f32; 100];
        signal.extend(vec![900.0f32; 100]);
        let params = normalizer.estimate(&signal);
        assert!((params.shift - 90.0).abs() < 1.0);
    }

    #[test]
    fn quantize_round_trips_within_tolerance() {
        for v in [-4.0f32, -2.1, -0.5, 0.0, 0.3, 1.9, 4.0] {
            let q = quantize(v);
            assert!((dequantize(q) - v).abs() <= FIXED_POINT_RANGE / 127.0 + 1e-6);
        }
        // Exact points: zero, the range ends, and clamping beyond them.
        for (v, q) in [
            (0.0f32, 0i8),
            (4.0, 127),
            (-4.0, -127),
            (10.0, 127),
            (-10.0, -127),
            (99.0, 127),
            (-99.0, -127),
        ] {
            assert_eq!(quantize(v), q, "{v}");
        }
    }

    #[test]
    fn quantized_normalization_matches_float_within_step() {
        let normalizer = Normalizer::default();
        let raw: Vec<u16> = (0..2000).map(|i| 400 + ((i * 7) % 200) as u16).collect();
        let float = normalizer.normalize_raw(&raw);
        let quantized = normalizer.normalize_raw_quantized(&raw);
        assert_eq!(float.len(), quantized.len());
        for (f, q) in float.iter().zip(&quantized) {
            assert!((dequantize(*q) - f).abs() < 0.04);
        }
    }

    #[test]
    fn constant_signal_does_not_divide_by_zero() {
        let normalized = Normalizer::default().normalize(&[42.0f32; 500]);
        assert!(normalized.iter().all(|x| x.is_finite()));
        assert!(normalized.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_signal_is_empty() {
        assert!(Normalizer::default().normalize(&[]).is_empty());
        assert!(Normalizer::default().normalize_raw(&[]).is_empty());
    }

    /// A square wave whose baseline drifts linearly upward — the pore-bias
    /// drift rolling re-estimation exists to absorb.
    fn drifting_signal(len: usize) -> Vec<u16> {
        (0..len)
            .map(|i| 400 + (i / 8) as u16 + ((i * 13) % 48) as u16)
            .collect()
    }

    #[test]
    fn zero_interval_freezes_parameters_after_the_window() {
        // interval 0 must reproduce the historical freeze-after-window
        // behaviour exactly: estimate once, apply everywhere.
        let config = NormalizerConfig::default().with_recalibration_interval(0);
        let normalizer = Normalizer::new(config);
        let signal = drifting_signal(6_000);
        let params = normalizer.estimate(&signal);
        let frozen = normalizer.normalize_with(signal.iter().map(|&x| x as f64), params);
        assert_eq!(normalizer.normalize_raw(&signal), frozen);
    }

    #[test]
    fn recalibration_only_affects_samples_past_the_first_interval() {
        // With the default window == interval == 2000, the first
        // re-estimation fires at sample 4000: everything before it is
        // bit-identical to the frozen path.
        let rolling = Normalizer::default();
        let frozen = Normalizer::new(NormalizerConfig::default().with_recalibration_interval(0));
        let signal = drifting_signal(6_000);
        let a = rolling.normalize_raw(&signal);
        let b = frozen.normalize_raw(&signal);
        assert_eq!(a[..4_000], b[..4_000]);
        assert_ne!(a[4_000..], b[4_000..], "recalibration should kick in");
    }

    #[test]
    fn recalibration_tracks_a_drifting_baseline() {
        let config = NormalizerConfig::default()
            .with_calibration_window(500)
            .with_recalibration_interval(250);
        let signal: Vec<u16> = (0..8_000)
            .map(|i| 400 + (i / 16) as u16 + ((i * 13) % 48) as u16)
            .collect();
        let rolling = Normalizer::new(config).normalize_raw(&signal);
        let frozen = Normalizer::new(config.with_recalibration_interval(0)).normalize_raw(&signal);
        // By the tail of the read the baseline has drifted ~460 counts: the
        // frozen estimate saturates against the clip, the rolling one stays
        // centred.
        let tail_mean = |v: &[f32]| v[7_000..].iter().sum::<f32>() / 1_000.0;
        assert!(tail_mean(&frozen) > 3.9, "frozen {}", tail_mean(&frozen));
        assert!(
            tail_mean(&rolling).abs() < 2.5,
            "rolling {}",
            tail_mean(&rolling)
        );
    }

    #[test]
    fn chunked_feed_is_bit_identical_to_batch_for_any_chunking() {
        let config = NormalizerConfig::default()
            .with_calibration_window(300)
            .with_recalibration_interval(170);
        let signal = drifting_signal(5_000);
        let want = Normalizer::new(config).normalize_raw(&signal);
        for chunk_size in [1usize, 7, 512, 10_000] {
            let mut got = Vec::new();
            let mut feed = CalibratingFeed::new(config, signal.len());
            let mut sink = |z: f32| {
                got.push(z);
                false
            };
            for chunk in signal.chunks(chunk_size) {
                feed.push(chunk, &mut sink);
            }
            feed.flush(&mut sink);
            assert_eq!(got, want, "chunk {chunk_size}");
            assert!(feed.recalibrations() > 0);
        }
    }

    #[test]
    fn feed_reports_recalibration_schedule() {
        let config = NormalizerConfig::default()
            .with_calibration_window(400)
            .with_recalibration_interval(200);
        let signal = drifting_signal(1_000);
        let mut feed = CalibratingFeed::new(config, signal.len());
        let mut sink = |_z: f32| false;
        feed.push(&signal[..399], &mut sink);
        assert!(feed.params().is_none(), "window not yet filled");
        feed.push(&signal[399..600], &mut sink);
        let first = feed.params().expect("calibrated at 400");
        // Re-estimations at 600 fire lazily, before the *next* sample.
        assert_eq!(feed.recalibrations(), 0);
        feed.push(&signal[600..1_000], &mut sink);
        assert_eq!(feed.recalibrations(), 2, "re-estimated at 600 and 800");
        let last = feed.params().expect("still calibrated");
        assert!(first.drift(last) > 0.0, "drifting signal moved the params");
        assert_eq!(feed.received(), 1_000);
    }

    #[test]
    fn short_stream_flush_matches_one_shot_short_signal() {
        let config = NormalizerConfig::default();
        let signal = drifting_signal(700); // shorter than the window
        let want = Normalizer::new(config).normalize_raw(&signal);
        let mut got = Vec::new();
        // A budget larger than the read (a session's prefix budget): the
        // window never fills, so normalization happens in flush().
        let mut feed = CalibratingFeed::new(config, 2_000);
        for chunk in signal.chunks(64) {
            feed.push(chunk, &mut |z| {
                got.push(z);
                false
            });
        }
        assert!(got.is_empty(), "window never filled");
        assert!(feed.params().is_none());
        feed.flush(&mut |z| {
            got.push(z);
            false
        });
        assert_eq!(got, want);
    }

    #[test]
    fn params_drift_is_scale_relative() {
        let a = NormalizationParams {
            shift: 100.0,
            scale: 10.0,
        };
        let b = NormalizationParams {
            shift: 105.0,
            scale: 12.0,
        };
        assert!((a.drift(b) - 0.7).abs() < 1e-6);
        assert_eq!(a.drift(a), 0.0);
    }
}
