//! Cycle-accurate AIG simulation.
//!
//! Used to replay counterexample traces from the model checkers (every
//! trace is re-simulated before being reported — a falsified property is
//! never reported on the checker's word alone) and to cross-check the
//! word-level simulator in `veridic-sim` against the bit-blasted netlist.

use crate::{Aig, LatchId, Lit, Node, Var};

/// Mutable simulation state: one bit per latch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimState {
    latch_values: Vec<bool>,
}

impl SimState {
    /// Initial state: every latch at its declared init value.
    pub fn initial(aig: &Aig) -> Self {
        SimState {
            latch_values: aig.latches().iter().map(|l| l.init).collect(),
        }
    }

    /// Reads a latch value.
    pub fn latch(&self, id: LatchId) -> bool {
        self.latch_values[id.0 as usize]
    }

    /// Overwrites a latch value (used to seed states during induction
    /// counterexample replay).
    pub fn set_latch(&mut self, id: LatchId, v: bool) {
        self.latch_values[id.0 as usize] = v;
    }

    /// Evaluates one clock cycle: computes all node values under `inputs`
    /// (indexed like [`Aig::inputs`]) and advances every latch.
    ///
    /// Returns the node values of the *current* cycle, for probing
    /// outputs/bads/constraints before the state advanced.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the AIG's input count.
    pub fn step(&mut self, aig: &Aig, inputs: &[bool]) -> CycleValues {
        assert_eq!(
            inputs.len(),
            aig.num_inputs(),
            "input vector length mismatch"
        );
        let mut values = vec![false; aig.num_nodes()];
        for i in 0..aig.num_nodes() {
            let v = Var(i as u32);
            values[i] = match aig.node_kind(v) {
                Node::Const0 => false,
                Node::Input { index } => inputs[*index as usize],
                Node::Latch { index } => self.latch_values[*index as usize],
                Node::And { a, b } => {
                    let va = values[a.var().0 as usize] ^ a.is_compl();
                    let vb = values[b.var().0 as usize] ^ b.is_compl();
                    va && vb
                }
            };
        }
        let cycle = CycleValues { values };
        for (i, l) in aig.latches().iter().enumerate() {
            self.latch_values[i] = cycle.lit(l.next);
        }
        cycle
    }
}

/// All node values for one simulated cycle.
#[derive(Clone, Debug)]
pub struct CycleValues {
    values: Vec<bool>,
}

impl CycleValues {
    /// Value of a literal in this cycle.
    pub fn lit(&self, l: Lit) -> bool {
        self.values[l.var().0 as usize] ^ l.is_compl()
    }
}

impl Aig {
    /// Runs a bounded simulation from the initial state, returning for each
    /// cycle the values of all bads and whether all constraints held.
    ///
    /// `input_seq[k]` supplies the primary input values for cycle `k`.
    pub fn simulate(&self, input_seq: &[Vec<bool>]) -> Vec<CycleReport> {
        let mut st = SimState::initial(self);
        let mut out = Vec::with_capacity(input_seq.len());
        for inputs in input_seq {
            let cyc = st.step(self, inputs);
            out.push(CycleReport {
                bads: self.bads().iter().map(|b| cyc.lit(b.lit)).collect(),
                constraints_ok: self.constraints().iter().all(|c| cyc.lit(c.lit)),
                outputs: self.outputs().iter().map(|o| cyc.lit(o.lit)).collect(),
            });
        }
        out
    }
}

/// Summary of one simulated cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleReport {
    /// Value of each registered bad literal this cycle.
    pub bads: Vec<bool>,
    /// True if every invariant constraint held this cycle.
    pub constraints_ok: bool,
    /// Value of each registered output this cycle.
    pub outputs: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aig;

    /// A 2-bit counter built from latches; wraps at 4.
    fn counter() -> (Aig, Lit, Lit) {
        let mut g = Aig::new();
        let (l0, q0) = g.latch("b0", false);
        let (l1, q1) = g.latch("b1", false);
        g.set_next(l0, !q0);
        let n1 = g.xor(q1, q0);
        g.set_next(l1, n1);
        (g, q0, q1)
    }

    #[test]
    fn counter_counts() {
        let (g, q0, q1) = counter();
        let mut st = SimState::initial(&g);
        let mut seen = Vec::new();
        for _ in 0..5 {
            let cyc = st.step(&g, &[]);
            let v = (cyc.lit(q1) as u8) << 1 | cyc.lit(q0) as u8;
            seen.push(v);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn bads_and_constraints_reported() {
        let (mut g, q0, q1) = counter();
        let full = g.and(q0, q1);
        g.add_bad("count_is_3", full);
        let two = g.and(!q0, q1);
        g.add_constraint("not_two", !two);
        let reports = g.simulate(&vec![vec![]; 4]);
        assert_eq!(reports[0].bads, vec![false]);
        assert_eq!(reports[3].bads, vec![true]);
        assert!(reports[1].constraints_ok);
        assert!(!reports[2].constraints_ok); // count==2 violates constraint
    }

    #[test]
    fn inputs_drive_logic() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (lid, q) = g.latch("q", false);
        g.set_next(lid, a);
        g.add_output("q", q);
        let rep = g.simulate(&[vec![true], vec![false], vec![false]]);
        // q lags a by one cycle.
        assert_eq!(rep[0].outputs, vec![false]);
        assert_eq!(rep[1].outputs, vec![true]);
        assert_eq!(rep[2].outputs, vec![false]);
    }

    #[test]
    fn set_latch_seeds_state() {
        let (g, q0, _q1) = counter();
        let mut st = SimState::initial(&g);
        st.set_latch(LatchId(0), true);
        assert!(st.latch(LatchId(0)));
        let cyc = st.step(&g, &[]);
        assert!(cyc.lit(q0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_arity_panics() {
        let mut g = Aig::new();
        let _a = g.input("a");
        let mut st = SimState::initial(&g);
        st.step(&g, &[]);
    }
}
