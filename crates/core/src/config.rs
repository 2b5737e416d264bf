//! Configuration of the subsequence-DTW kernels.
//!
//! The paper starts from "vanilla" sDTW (squared difference, reference
//! deletions allowed) and applies four modifications to make it accurate and
//! hardware friendly (§4.7):
//!
//! * **absolute difference** instead of squared difference (no multiplier in
//!   the PE),
//! * **integer normalization** — 8-bit fixed-point queries and references,
//! * **no reference deletions** — a single query sample can no longer align
//!   to several reference bases, removing one input of the 3-way min,
//! * **match bonus** — a reward for matching a *new* reference base, scaled
//!   by how many samples were aligned to the previous base (thresholded), to
//!   decouple alignment cost from translocation rate.
//!
//! Every modification is an independent toggle here, which is exactly what
//! the Figure 18 ablation sweeps.

/// The per-cell distance metric between a query sample and a reference
/// sample.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum DistanceMetric {
    /// `(q - r)^2` — the textbook DTW metric (needs a multiplier).
    Squared,
    /// `|q - r|` — the hardware-friendly metric used by the accelerator.
    #[default]
    Absolute,
}

impl DistanceMetric {
    /// Evaluates the metric on floating-point samples.
    #[inline]
    pub fn eval_f32(self, q: f32, r: f32) -> f32 {
        let d = q - r;
        match self {
            DistanceMetric::Squared => d * d,
            DistanceMetric::Absolute => d.abs(),
        }
    }

    /// Evaluates the metric on 8-bit fixed-point samples, widened to `i32`.
    #[inline]
    pub fn eval_i8(self, q: i8, r: i8) -> i32 {
        let d = q as i32 - r as i32;
        match self {
            DistanceMetric::Squared => d * d,
            DistanceMetric::Absolute => d.abs(),
        }
    }
}

/// Cost reduction per sample aligned to the previous reference base when
/// the alignment moves on to a new base (paper §4.7, "Match Bonus": 10).
pub const MATCH_BONUS_PER_SAMPLE: u32 = 10;
/// The dwell count is clamped to this value before scaling (paper §4.7: 10).
pub const MATCH_BONUS_DWELL_CAP: u32 = 10;

/// Bonus granted when transitioning to a new reference base after having
/// aligned `dwell` query samples to the previous base.
#[inline]
pub fn bonus_for_dwell(dwell: u32) -> u32 {
    MATCH_BONUS_PER_SAMPLE * dwell.min(MATCH_BONUS_DWELL_CAP)
}

/// Which row-update implementation the kernels run.
///
/// Both backends implement the identical recurrence and are bit-exact with
/// each other (pinned by the scalar-vs-vector parity suite); the scalar
/// backend is the reference oracle, the vector backend updates 8 cells per
/// AVX2 step. The vector row update requires the no-reference-deletion
/// recurrence (removing the `S[i][j-1]` input is what removes the
/// loop-carried dependency — the same property that lets the paper's
/// systolic array evaluate a whole row per cycle) and a CPU with AVX2;
/// [`SdtwConfig::resolved_backend`] runs the scalar backend otherwise.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum KernelBackend {
    /// The branchy one-cell-at-a-time reference implementation.
    Scalar,
    /// The AVX2 8-cell row body, with column 0 and the tail left to the
    /// scalar loop. Resolves to [`KernelBackend::Scalar`] when the config
    /// allows reference deletions or the CPU lacks AVX2.
    #[default]
    Vector,
}

/// Full kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SdtwConfig {
    /// Per-cell distance metric.
    pub distance: DistanceMetric,
    /// Whether a single query sample may align to multiple consecutive
    /// reference bases (the `S[i][j-1]` dependency). The accelerator removes
    /// this.
    pub allow_reference_deletion: bool,
    /// Whether the translocation-rate-compensating match bonus
    /// ([`bonus_for_dwell`]) rewards diagonal moves.
    pub match_bonus: bool,
    /// Row-update implementation selector.
    pub backend: KernelBackend,
}

impl SdtwConfig {
    /// The textbook sDTW configuration (squared distance, reference deletions
    /// allowed, no bonus) — the paper's software baseline.
    pub fn vanilla() -> Self {
        SdtwConfig {
            distance: DistanceMetric::Squared,
            allow_reference_deletion: true,
            match_bonus: false,
            backend: KernelBackend::Vector,
        }
    }

    /// The full hardware configuration: absolute difference, no reference
    /// deletions, match bonus enabled. Combined with 8-bit quantization this
    /// is the configuration synthesized in the accelerator.
    pub fn hardware() -> Self {
        SdtwConfig {
            distance: DistanceMetric::Absolute,
            allow_reference_deletion: false,
            match_bonus: true,
            backend: KernelBackend::Vector,
        }
    }

    /// Hardware configuration without the match bonus (one of the Figure 18
    /// ablation points).
    pub fn hardware_without_bonus() -> Self {
        SdtwConfig {
            match_bonus: false,
            ..Self::hardware()
        }
    }

    /// Sets the distance metric.
    #[must_use]
    pub fn with_distance(mut self, distance: DistanceMetric) -> Self {
        self.distance = distance;
        self
    }

    /// Enables or disables reference deletions.
    #[must_use]
    pub fn with_reference_deletions(mut self, allow: bool) -> Self {
        self.allow_reference_deletion = allow;
        self
    }

    /// Sets the row-update backend selector.
    #[must_use]
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The backend a kernel built from this config actually runs — the one
    /// place the backend is decided. It is [`KernelBackend::Vector`] only
    /// when the config asks for it, reference deletions are off (the
    /// `S[i][j-1]` input is a loop-carried dependency the vector row update
    /// cannot honor) and the CPU has AVX2; otherwise the scalar oracle.
    pub fn resolved_backend(&self) -> KernelBackend {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if self.backend == KernelBackend::Vector && !self.allow_reference_deletion && avx2 {
            KernelBackend::Vector
        } else {
            KernelBackend::Scalar
        }
    }

    /// Upper bound on how much the best (minimum) alignment cost over the DP
    /// row can still *decrease* after `remaining_samples` more query samples,
    /// in the int8 datapath's cost units (the units of the match bonus and
    /// of every `SquiggleFilter` threshold).
    ///
    /// Without a match bonus every transition adds a non-negative distance,
    /// so the row minimum never decreases and the slack is zero. With a
    /// bonus, consider the potential `Φ(n) = min_j (row[j] - B(dwell[j]))`
    /// where `B(w) = bonus_for_dwell(w)`: a vertical move raises `B` by at
    /// most [`MATCH_BONUS_PER_SAMPLE`], and a diagonal move pays its bonus
    /// out of the predecessor's `B` while resetting dwell to 1 — so `Φ`
    /// drops by at most `MATCH_BONUS_PER_SAMPLE` per pushed sample, and
    /// `min(row) ≥ Φ ≥ min(row) - B_max` at all times, where
    /// `B_max = bonus_for_dwell(MATCH_BONUS_DWELL_CAP)`. Hence the final cost
    /// is at least the current cost minus
    /// `MATCH_BONUS_PER_SAMPLE * remaining_samples + B_max`.
    ///
    /// Streaming sessions use this to reject early *soundly*: once
    /// `current_cost - early_reject_slack(remaining) > threshold`, the
    /// verdict at the full prefix is already determined, so early exit never
    /// changes a verdict — only how many samples a reject costs.
    ///
    /// The bound survives **rolling normalization re-estimation**
    /// (`NormalizerConfig::recalibration_interval`): the potential argument
    /// above holds for *arbitrary* future query samples — it never assumes
    /// anything about their values, only that each pushed sample performs one
    /// DP transition — so re-scaled normalization parameters changing the
    /// values of future samples cannot invalidate it. And because the
    /// one-shot path replays the identical recalibration schedule, the
    /// verdict the early reject commits to is still exactly the verdict
    /// `classify` reaches on the full prefix. The expanded proof lives in
    /// `docs/streaming.md`.
    pub fn early_reject_slack(&self, remaining_samples: usize) -> f64 {
        if !self.match_bonus {
            return 0.0;
        }
        (u64::from(MATCH_BONUS_PER_SAMPLE) * remaining_samples as u64
            + u64::from(bonus_for_dwell(MATCH_BONUS_DWELL_CAP))) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_metrics() {
        assert_eq!(DistanceMetric::Squared.eval_f32(3.0, 1.0), 4.0);
        assert_eq!(DistanceMetric::Absolute.eval_f32(3.0, 1.0), 2.0);
        assert_eq!(DistanceMetric::Absolute.eval_f32(1.0, 3.0), 2.0);
        assert_eq!(DistanceMetric::Squared.eval_i8(-100, 100), 40_000);
        assert_eq!(DistanceMetric::Absolute.eval_i8(-100, 100), 200);
        assert_eq!(DistanceMetric::Absolute.eval_i8(5, 5), 0);
    }

    #[test]
    fn match_bonus_caps_dwell() {
        assert_eq!(bonus_for_dwell(0), 0);
        assert_eq!(bonus_for_dwell(3), 30);
        assert_eq!(bonus_for_dwell(10), 100);
        assert_eq!(bonus_for_dwell(500), 100);
    }

    #[test]
    fn presets_match_paper() {
        let vanilla = SdtwConfig::vanilla();
        assert_eq!(vanilla.distance, DistanceMetric::Squared);
        assert!(vanilla.allow_reference_deletion);
        assert!(!vanilla.match_bonus);

        let hw = SdtwConfig::hardware();
        assert_eq!(hw.distance, DistanceMetric::Absolute);
        assert!(!hw.allow_reference_deletion);
        assert!(hw.match_bonus);
        assert_eq!((MATCH_BONUS_PER_SAMPLE, MATCH_BONUS_DWELL_CAP), (10, 10));

        assert!(!SdtwConfig::hardware_without_bonus().match_bonus);
    }

    #[test]
    fn builder_style_overrides() {
        let config = SdtwConfig::vanilla()
            .with_distance(DistanceMetric::Absolute)
            .with_reference_deletions(false);
        assert_eq!(config.distance, DistanceMetric::Absolute);
        assert!(!config.allow_reference_deletion);
    }

    #[test]
    fn backend_resolution_respects_the_deletion_dependency() {
        // The default Vector runs exactly when the recurrence has no
        // loop-carried dependency (on an AVX2 CPU); otherwise Scalar.
        assert_eq!(
            SdtwConfig::hardware().resolved_backend(),
            KernelBackend::Vector
        );
        assert_eq!(
            SdtwConfig::vanilla().resolved_backend(),
            KernelBackend::Scalar
        );
        assert_eq!(
            SdtwConfig::vanilla()
                .with_backend(KernelBackend::Vector)
                .resolved_backend(),
            KernelBackend::Scalar
        );
        assert_eq!(
            SdtwConfig::hardware()
                .with_backend(KernelBackend::Scalar)
                .resolved_backend(),
            KernelBackend::Scalar
        );
        assert_eq!(
            SdtwConfig::vanilla()
                .with_reference_deletions(false)
                .resolved_backend(),
            KernelBackend::Vector
        );
    }

    #[test]
    fn early_reject_slack_reflects_bonus() {
        assert_eq!(SdtwConfig::vanilla().early_reject_slack(500), 0.0);
        assert_eq!(
            SdtwConfig::hardware_without_bonus().early_reject_slack(500),
            0.0
        );
        // Default bonus: 10 per remaining sample plus the one-time capped
        // dwell bonus of 100.
        assert_eq!(SdtwConfig::hardware().early_reject_slack(0), 100.0);
        assert_eq!(SdtwConfig::hardware().early_reject_slack(500), 5_100.0);
    }
}
