//! The SquiggleFilter processing element (paper §5.2, Figure 14).
//!
//! Each PE owns one (normalized, quantized) query sample and computes one
//! cell of the sDTW matrix per cycle as the reference streams past it. The
//! datapath is: take the minimum of the previous neighbour's outputs from one
//! and two cycles ago (optionally reduced by the match bonus), add the
//! absolute difference between the held query sample and the incoming
//! reference sample, and register the result for the next PE. The registered
//! state is exactly the RTL's: the cost, the dwell count and a valid bit.

use sf_sdtw::config::{bonus_for_dwell, SdtwConfig};

/// Area of one synthesized PE in mm² (paper: 1203 µm² at 28 nm).
pub const PE_AREA_MM2: f64 = 0.001203;
/// Power of one PE in watts (paper: 1.92 mW).
pub const PE_POWER_W: f64 = 0.00192;

/// The value a PE forwards to its right-hand neighbour each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PeOutput {
    /// Accumulated alignment cost of the cell computed this cycle.
    pub cost: i32,
    /// Number of query samples aligned to the current reference base on the
    /// best path ending at this cell (feeds the match bonus).
    pub dwell: u32,
    /// Whether this output corresponds to a real matrix cell (the wavefront
    /// has reached this PE) or is padding.
    pub valid: bool,
}

impl PeOutput {
    /// An invalid/padding output.
    pub fn invalid() -> Self {
        PeOutput {
            cost: i32::MAX,
            dwell: 0,
            valid: false,
        }
    }
}

/// One processing element of the systolic array.
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    /// The query sample held by this PE.
    query: i8,
    /// Neighbour output from one cycle ago (cell `(i-1, j)` when computing
    /// `(i, j)`).
    prev1: PeOutput,
    /// Neighbour output from two cycles ago (cell `(i-1, j-1)`).
    prev2: PeOutput,
    /// This PE's own output from the previous cycle (cell `(i, j-1)`),
    /// needed only when reference deletions are enabled.
    own_prev: PeOutput,
    config: SdtwConfig,
    /// Index of this PE in the array (0 = first query sample).
    index: usize,
}

impl ProcessingElement {
    /// Creates a PE holding `query` at position `index` in the array.
    pub fn new(index: usize, query: i8, config: SdtwConfig) -> Self {
        ProcessingElement {
            query,
            prev1: PeOutput::invalid(),
            prev2: PeOutput::invalid(),
            own_prev: PeOutput::invalid(),
            config,
            index,
        }
    }

    /// The query sample held by this PE.
    pub fn query(&self) -> i8 {
        self.query
    }

    /// Executes one cycle.
    ///
    /// * `reference` — the reference sample reaching this PE this cycle, or
    ///   `None` if the wavefront has not arrived / has passed.
    /// * `neighbour` — the output produced by PE `index - 1` *this* cycle
    ///   (it becomes this PE's `prev1` next cycle). For PE 0 pass `None`.
    ///
    /// Returns the output computed this cycle.
    pub fn tick(&mut self, reference: Option<i8>, neighbour: Option<PeOutput>) -> PeOutput {
        let output = match reference {
            None => PeOutput::invalid(),
            Some(r) => {
                let d = self.config.distance.eval_i8(self.query, r);
                if self.index == 0 {
                    // First query sample: subsequence DTW allows the alignment
                    // to start at any reference position.
                    PeOutput {
                        cost: d,
                        dwell: 1,
                        valid: true,
                    }
                } else {
                    // Vertical predecessor: (i-1, j) — neighbour's output last
                    // cycle.
                    let mut dwell = self.prev1.dwell.saturating_add(1);
                    let mut cost = if self.prev1.valid {
                        self.prev1.cost
                    } else {
                        i32::MAX
                    };
                    // Diagonal predecessor: (i-1, j-1) — neighbour's output two
                    // cycles ago, with the match bonus.
                    if self.prev2.valid {
                        let mut diag = self.prev2.cost;
                        if self.config.match_bonus {
                            diag -= bonus_for_dwell(self.prev2.dwell) as i32;
                        }
                        if diag < cost {
                            cost = diag;
                            dwell = 1;
                        }
                    }
                    // Horizontal predecessor: (i, j-1) — this PE's own output
                    // last cycle (reference deletion; removed in hardware).
                    if self.config.allow_reference_deletion
                        && self.own_prev.valid
                        && self.own_prev.cost < cost
                    {
                        cost = self.own_prev.cost;
                        dwell = 1;
                    }
                    if cost == i32::MAX {
                        // No valid predecessor: this cell is unreachable
                        // (cannot happen once the wavefront is established).
                        PeOutput::invalid()
                    } else {
                        PeOutput {
                            cost: cost.saturating_add(d),
                            dwell,
                            valid: true,
                        }
                    }
                }
            }
        };
        // Shift the delay line.
        self.prev2 = self.prev1;
        self.prev1 = neighbour.unwrap_or_else(PeOutput::invalid);
        self.own_prev = output;
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_sdtw::SdtwConfig;

    #[test]
    fn first_pe_computes_free_start_costs() {
        let mut pe = ProcessingElement::new(0, 10, SdtwConfig::hardware_without_bonus());
        let out = pe.tick(Some(14), None);
        assert!(out.valid);
        assert_eq!(out.cost, 4);
        let out = pe.tick(Some(-10), None);
        assert_eq!(out.cost, 20);
    }

    #[test]
    fn idle_pe_outputs_invalid() {
        let mut pe = ProcessingElement::new(3, 0, SdtwConfig::hardware());
        let out = pe.tick(None, None);
        assert!(!out.valid);
        assert!(!PeOutput::invalid().valid);
    }

    #[test]
    fn second_pe_uses_vertical_and_diagonal_predecessors() {
        let config = SdtwConfig::hardware_without_bonus();
        let mut pe = ProcessingElement::new(1, 5, config);
        // Cycle 0: neighbour produced (0, 0) with cost 7; we are idle.
        pe.tick(
            None,
            Some(PeOutput {
                cost: 7,
                dwell: 1,
                valid: true,
            }),
        );
        // Cycle 1: neighbour produced (0, 1) with cost 2; we compute (1, 0):
        // only vertical predecessor (0,0) = 7 is valid.
        let out = pe.tick(
            Some(5),
            Some(PeOutput {
                cost: 2,
                dwell: 1,
                valid: true,
            }),
        );
        assert_eq!(out.cost, 7); // |5-5| + 7
        assert_eq!(out.dwell, 2);
        // Cycle 2: compute (1, 1): vertical = (0,1) = 2, diagonal = (0,0) = 7.
        let out = pe.tick(Some(6), None);
        assert_eq!(out.cost, 2 + 1);
        assert_eq!(out.dwell, 2);
    }

    #[test]
    fn match_bonus_is_subtracted_on_diagonal_moves() {
        let config = SdtwConfig::hardware();
        let mut pe = ProcessingElement::new(1, 0, config);
        pe.tick(
            None,
            Some(PeOutput {
                cost: 100,
                dwell: 7,
                valid: true,
            }),
        );
        // Diagonal predecessor has dwell 7 → bonus 70; vertical is expensive.
        pe.tick(
            Some(0),
            Some(PeOutput {
                cost: 1_000,
                dwell: 1,
                valid: true,
            }),
        );
        let out = pe.tick(Some(0), None);
        // diag = 100 - 70 = 30 beats vertical 1000.
        assert_eq!(out.cost, 30);
        assert_eq!(out.dwell, 1);
    }

    #[test]
    fn area_and_power_match_paper_table4() {
        assert!((PE_AREA_MM2 - 0.0012).abs() < 0.0002);
        assert!((PE_POWER_W - 0.00192).abs() < 1e-5);
    }
}
