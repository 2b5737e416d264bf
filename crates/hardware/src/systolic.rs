//! Cycle-level model of the 1-D systolic array (paper §5.1, Figure 13).
//!
//! The array holds one normalized query sample per PE (2000 PEs in the
//! synthesized design). Reference samples are streamed in one per cycle; the
//! wavefront computes anti-diagonals of the sDTW matrix, and the final PE
//! produces the alignment cost of the full query prefix ending at each
//! reference position. A running minimum over those outputs (compared against
//! the programmable threshold) is the Read Until decision.
//!
//! The model is verified cell-for-cell against the software integer kernel
//! ([`sf_sdtw::IntSdtw`]).

use crate::pe::{PeOutput, ProcessingElement};
use sf_sdtw::config::SdtwConfig;
use sf_sdtw::SdtwResult;

/// Result of running one read through the systolic array.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystolicRun {
    /// Best (minimum) alignment cost observed at the final PE.
    pub best: SdtwResult,
    /// Total cycles from the first reference sample entering the array to the
    /// last output leaving it (`query_len + reference_len - 1`).
    pub cycles: u64,
    /// The final PE's output cost for every reference position (the row the
    /// accelerator can spill to DRAM for multi-stage filtering).
    pub last_row: Vec<i32>,
    /// Number of PEs that held query samples.
    pub active_pes: usize,
}

/// Cycle-level systolic-array simulator.
///
/// # Examples
///
/// ```
/// use sf_hw::SystolicArray;
/// use sf_sdtw::SdtwConfig;
///
/// let reference: Vec<i8> = (0..200).map(|i| ((i * 13) % 251) as i8).collect();
/// let query: Vec<i8> = reference[40..60].to_vec();
/// let array = SystolicArray::new(SdtwConfig::hardware_without_bonus(), 64);
/// let run = array.classify(&query, &reference);
/// assert_eq!(run.best.cost, 0.0);
/// assert_eq!(run.cycles, (query.len() + reference.len() - 1) as u64);
/// ```
#[derive(Debug, Clone)]
pub struct SystolicArray {
    config: SdtwConfig,
    num_pes: usize,
}

impl SystolicArray {
    /// Creates an array model with `num_pes` processing elements (the paper's
    /// tile has 2000).
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is zero.
    pub fn new(config: SdtwConfig, num_pes: usize) -> Self {
        assert!(num_pes > 0, "the array needs at least one PE");
        SystolicArray { config, num_pes }
    }

    /// The kernel configuration programmed into the PEs.
    pub fn config(&self) -> &SdtwConfig {
        &self.config
    }

    /// Number of PEs in the array.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Runs one classification: the query (at most `num_pes` samples — longer
    /// queries are truncated, mirroring the fixed 2000-sample prefix) against
    /// the streamed reference.
    ///
    /// # Panics
    ///
    /// Panics if the query or the reference is empty.
    pub fn classify(&self, query: &[i8], reference: &[i8]) -> SystolicRun {
        assert!(!query.is_empty(), "query must not be empty");
        assert!(!reference.is_empty(), "reference must not be empty");
        let query = &query[..query.len().min(self.num_pes)];
        let n = query.len();
        let m = reference.len();

        let mut pes: Vec<ProcessingElement> = query
            .iter()
            .enumerate()
            .map(|(i, &q)| ProcessingElement::new(i, q, self.config))
            .collect();

        let total_cycles = n + m - 1;
        let mut last_row = vec![i32::MAX; m];
        let mut best_cost = i32::MAX;
        let mut best_end = 0usize;

        // Outputs produced by each PE in the *current* cycle, consumed by the
        // next PE in the same loop iteration (it models the registered
        // neighbour link: PE i+1 sees PE i's output of this cycle only on the
        // following cycle, which `ProcessingElement::tick` implements via its
        // internal delay line).
        let mut outputs: Vec<PeOutput> = vec![PeOutput::invalid(); n];
        for cycle in 0..total_cycles {
            let mut prev_output: Option<PeOutput> = None;
            for (i, pe) in pes.iter_mut().enumerate() {
                // PE i works on reference index j = cycle - i while in range.
                let reference_sample = cycle
                    .checked_sub(i)
                    .filter(|&j| j < m)
                    .map(|j| reference[j]);
                let out = pe.tick(reference_sample, prev_output);
                prev_output = Some(out);
                outputs[i] = out;
            }
            // The final PE's output this cycle is the cost of aligning the
            // whole query prefix ending at reference position j.
            let last = outputs[n - 1];
            if last.valid {
                let j = cycle - (n - 1);
                last_row[j] = last.cost;
                // Strict `<` keeps the first minimum, as the software
                // kernel's `best` does.
                if last.cost < best_cost {
                    best_cost = last.cost;
                    best_end = j;
                }
            }
        }

        SystolicRun {
            best: SdtwResult {
                cost: best_cost as f64,
                end_position: best_end,
                query_samples: n,
            },
            cycles: total_cycles as u64,
            last_row,
            active_pes: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_sdtw::IntSdtw;

    fn pseudo_random_reference(len: usize, seed: u32) -> Vec<i8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((x >> 24) as i32 - 128) as i8
            })
            .collect()
    }

    #[test]
    fn matches_software_kernel_exactly() {
        // Cell-for-cell equivalence with the integer software kernel, for
        // every hardware-relevant configuration.
        let reference = pseudo_random_reference(500, 7);
        let query: Vec<i8> = reference[123..203]
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, 2))
            .collect();
        for config in [
            SdtwConfig::hardware(),
            SdtwConfig::hardware_without_bonus(),
            SdtwConfig::vanilla(),
        ] {
            let array = SystolicArray::new(config, query.len());
            let run = array.classify(&query, &reference);
            let software = IntSdtw::new(config, reference.clone());
            let mut stream = software.stream();
            stream.extend(&query);
            assert_eq!(run.last_row, stream.row(), "row mismatch for {config:?}");
            assert_eq!(
                run.best,
                stream.best().unwrap(),
                "best mismatch for {config:?}"
            );
        }
    }

    #[test]
    fn exact_match_costs_zero_and_counts_cycles() {
        let reference = pseudo_random_reference(300, 3);
        let query: Vec<i8> = reference[100..150].to_vec();
        let array = SystolicArray::new(SdtwConfig::hardware_without_bonus(), 2_000);
        let run = array.classify(&query, &reference);
        assert_eq!(run.best.cost, 0.0);
        assert_eq!(run.best.end_position, 149);
        assert_eq!(run.cycles, 50 + 300 - 1);
        assert_eq!(run.active_pes, 50);
    }

    #[test]
    fn longer_query_is_truncated_to_pe_count() {
        let reference = pseudo_random_reference(200, 5);
        let query = pseudo_random_reference(96, 9);
        let array = SystolicArray::new(SdtwConfig::hardware(), 64);
        let run = array.classify(&query, &reference);
        assert_eq!(run.active_pes, 64);
        assert_eq!(run.best.query_samples, 64);
        assert_eq!(run.cycles, (64 + 200 - 1) as u64);
    }

    #[test]
    fn last_row_is_fully_populated() {
        let reference = pseudo_random_reference(150, 11);
        let query = pseudo_random_reference(20, 13);
        let array = SystolicArray::new(SdtwConfig::hardware(), 2_000);
        let run = array.classify(&query, &reference);
        assert_eq!(run.last_row.len(), 150);
        assert!(run.last_row.iter().all(|&c| c != i32::MAX));
    }

    #[test]
    #[should_panic(expected = "query must not be empty")]
    fn empty_query_panics() {
        let array = SystolicArray::new(SdtwConfig::hardware(), 10);
        let _ = array.classify(&[], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        let _ = SystolicArray::new(SdtwConfig::hardware(), 0);
    }
}
