//! Summary statistics of cost distributions (Figure 11).

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// Computes summary statistics (zeroed for an empty slice).
pub fn summary(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let mut sorted: Vec<f64> = values.to_vec();
    // sf-lint: allow(panic) -- callers feed measured (finite) latencies and costs
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let percentile = |p: f64| -> f64 {
        let idx = ((n - 1) as f64 * p).round() as usize;
        sorted[idx]
    };
    Summary {
        count: n,
        mean,
        std_dev: var.sqrt(),
        min: sorted[0],
        max: sorted[n - 1],
        median: percentile(0.5),
        p5: percentile(0.05),
        p95: percentile(0.95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_default() {
        assert_eq!(summary(&[]), Summary::default());
    }

    #[test]
    fn percentiles_order() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = summary(&values);
        assert!(s.p5 < s.median && s.median < s.p95);
        assert!((s.p5 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 949.0).abs() <= 1.5);
    }
}
