//! Order statistics and the flow-cell arithmetic the reports are built from.

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Decision latency of one read, milliseconds: from the moment the chunk
/// that completed the decision was *due* at the pore to the moment the
/// driver received the outcome. Measuring from the due time (not the send
/// time) charges generator lateness and ingest stalls to the latency.
pub fn decision_latency_ms(due_s: f64, received_s: f64) -> f64 {
    (received_s - due_s) * 1e3
}

/// Index of the chunk that delivered sample `samples_consumed` of a read,
/// given the read's chunk end offsets in delivery order. A decision taken
/// on `k` samples was completed by the first chunk ending at or after `k`;
/// a read resolved on no samples at all is charged to its first chunk.
pub fn completing_chunk(chunk_ends: &[usize], samples_consumed: usize) -> Option<usize> {
    if chunk_ends.is_empty() {
        return None;
    }
    Some(
        chunk_ends
            .iter()
            .position(|&end| end >= samples_consumed)
            .unwrap_or(chunk_ends.len() - 1),
    )
}

/// One read's contribution to Read Until enrichment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoreTime {
    /// Whether the read is a target read.
    pub is_target: bool,
    /// Seconds the pore would spend on the read with no ejection.
    pub full_s: f64,
    /// Seconds the pore actually spent on it (≤ `full_s`).
    pub sequenced_s: f64,
}

/// The target share of pore time actually sequenced divided by the target
/// share with no ejection — Read Until's payoff. 1.0 means ejection bought
/// nothing; 0 when the run holds no target pore time at all.
pub fn enrichment(reads: &[PoreTime]) -> f64 {
    let share = |time: fn(&PoreTime) -> f64| {
        let total: f64 = reads.iter().map(time).sum();
        let target: f64 = reads.iter().filter(|r| r.is_target).map(time).sum();
        ratio(target, total)
    };
    ratio(share(|r| r.sequenced_s), share(|r| r.full_s))
}

/// Keep/eject quality against the read labels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quality {
    /// Fraction of reads whose keep/eject matches their label.
    pub accuracy: f64,
    /// Fraction of target reads kept.
    pub tpr: f64,
    /// Fraction of background reads kept.
    pub fpr: f64,
}

/// Scores `(is_target, kept)` pairs.
pub fn quality(pairs: impl IntoIterator<Item = (bool, bool)>) -> Quality {
    let (mut tp, mut fp, mut targets, mut total) = (0usize, 0usize, 0usize, 0usize);
    let mut correct = 0usize;
    for (is_target, kept) in pairs {
        total += 1;
        if is_target {
            targets += 1;
            tp += usize::from(kept);
        } else {
            fp += usize::from(kept);
        }
        correct += usize::from(is_target == kept);
    }
    Quality {
        accuracy: ratio(correct as f64, total as f64),
        tpr: ratio(tp as f64, targets as f64),
        fpr: ratio(fp as f64, (total - targets) as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.95), 95.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // Chunk due at 2.0 s, outcome received at 2.125 s.
        assert!((decision_latency_ms(2.0, 2.125) - 125.0).abs() < 1e-9);
    }

    #[test]
    fn completing_chunk_is_the_first_that_covers_the_decision() {
        let ends = [400, 800, 1200, 1600, 2000, 2400, 2500];
        assert_eq!(completing_chunk(&ends, 2000), Some(4));
        assert_eq!(completing_chunk(&ends, 1999), Some(4));
        assert_eq!(completing_chunk(&ends, 2001), Some(5));
        assert_eq!(completing_chunk(&ends, 0), Some(0));
        // A read resolved at its natural end is charged to the last chunk.
        assert_eq!(completing_chunk(&ends, 2500), Some(6));
        assert_eq!(completing_chunk(&ends, 9999), Some(6));
        assert_eq!(completing_chunk(&[], 10), None);
    }

    #[test]
    fn enrichment_compares_target_shares() {
        // One target read and three background reads of equal length.
        let mut reads = vec![
            PoreTime {
                is_target: true,
                full_s: 10.0,
                sequenced_s: 10.0,
            };
            1
        ];
        for _ in 0..3 {
            reads.push(PoreTime {
                is_target: false,
                full_s: 10.0,
                sequenced_s: 10.0,
            });
        }
        assert!((enrichment(&reads) - 1.0).abs() < 1e-12);
        // Eject every background read after 1 s: target share 10/13 vs 1/4.
        for read in reads.iter_mut().skip(1) {
            read.sequenced_s = 1.0;
        }
        assert!((enrichment(&reads) - (10.0 / 13.0) / 0.25).abs() < 1e-12);
    }

    #[test]
    fn quality_counts_rates() {
        let q = quality([(true, true), (true, false), (false, false), (false, true)]);
        assert_eq!(q.accuracy, 0.5);
        assert_eq!(q.tpr, 0.5);
        assert_eq!(q.fpr, 0.5);
    }
}
