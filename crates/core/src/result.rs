//! Result types shared by the sDTW kernels.

/// The outcome of aligning a query squiggle against a reference squiggle.
///
/// `cost` is the subsequence-DTW alignment cost of the *best* alignment of
/// the whole query to any contiguous region of the reference;
/// `end_position` is where that region ends (in reference samples). Like
/// the accelerator, the kernels keep only cost and dwell per cell, so where
/// the region starts is not tracked.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SdtwResult {
    /// Total alignment cost (lower is better; may be negative when the match
    /// bonus is enabled).
    pub cost: f64,
    /// Reference index of the last sample of the best alignment (the first
    /// column reaching the minimum cost).
    pub end_position: usize,
    /// Number of query samples consumed.
    pub query_samples: usize,
}
