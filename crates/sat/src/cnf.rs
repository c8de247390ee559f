//! CNF construction: fresh-variable management and Tseitin encoding of
//! And-Inverter Graphs for the bounded model checker.

use crate::{Lit, Solver};
use veridic_aig::hash::FxHashMap;
use veridic_aig::{Aig, LatchId, Lit as ALit, Var as AVar};

/// Builds CNF incrementally into a [`Solver`], mapping AIG nodes of one
/// *time frame* to solver literals.
///
/// BMC unrolls an AIG by calling [`CnfBuilder::encode_frame`] once per
/// cycle: frame `k+1`'s latch literals are frame `k`'s next-state
/// literals, and frame 0's latches are constants fixed to the initial
/// state (or free variables for k-induction).
#[derive(Debug)]
pub struct CnfBuilder<'a> {
    solver: &'a mut Solver,
}

/// The literal map of one encoded time frame.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    map: FxHashMap<AVar, Lit>,
    /// Solver literals for each AIG primary input of this frame.
    pub inputs: Vec<Lit>,
    /// Solver literals for each latch's *next* state leaving this frame.
    pub next_state: Vec<Lit>,
}

impl Frame {
    /// Maps an AIG literal to its solver literal in this frame.
    ///
    /// # Panics
    ///
    /// Panics if the node was outside the encoded cone.
    pub fn lit(&self, l: ALit) -> Lit {
        let base = *self
            .map
            .get(&l.var())
            .expect("AIG node was not encoded in this frame"); // lint: allow
        if l.is_compl() {
            !base
        } else {
            base
        }
    }

    /// True if the AIG literal was encoded in this frame.
    pub fn contains(&self, l: ALit) -> bool {
        self.map.contains_key(&l.var())
    }
}

impl<'a> CnfBuilder<'a> {
    /// Wraps a solver for CNF emission.
    pub fn new(solver: &'a mut Solver) -> Self {
        CnfBuilder { solver }
    }

    /// A literal that is constant true in the solver (lazily created as a
    /// unit-clause variable).
    fn true_lit(&mut self) -> Lit {
        let v = self.solver.new_var();
        let l = Lit::pos(v);
        self.solver.add_clause(&[l]);
        l
    }

    /// Encodes one time frame of `aig`.
    ///
    /// `latch_in[i]` supplies the solver literal holding latch `i`'s
    /// current state entering this frame; pass `None` to have the builder
    /// allocate free variables (used by induction for an arbitrary start
    /// state) or `Some(frame.next_state)` wiring from the previous frame.
    pub fn encode_frame(&mut self, aig: &Aig, latch_in: Option<&[Lit]>) -> Frame {
        let mut frame = Frame::default();
        let t = self.true_lit();
        frame.map.insert(AVar(0), !t); // constant false node
                                       // Inputs: fresh variables.
        for (var, _name) in aig.inputs() {
            let l = Lit::pos(self.solver.new_var());
            frame.map.insert(*var, l);
            frame.inputs.push(l);
        }
        // Latches: supplied or fresh.
        for (i, latch) in aig.latches().iter().enumerate() {
            let l = match latch_in {
                Some(lits) => lits[i],
                None => Lit::pos(self.solver.new_var()),
            };
            frame.map.insert(latch.var, l);
        }
        // ANDs in topological order.
        for v in aig.and_order() {
            let (a, b) = aig.and_fanins(v).expect("and_order yields AND nodes"); // lint: allow
            let la = frame.lit(a);
            let lb = frame.lit(b);
            let lo = Lit::pos(self.solver.new_var());
            // o <-> a & b
            self.solver.add_clause(&[!lo, la]);
            self.solver.add_clause(&[!lo, lb]);
            self.solver.add_clause(&[lo, !la, !lb]);
            frame.map.insert(v, lo);
        }
        // Next-state literals.
        for latch in aig.latches() {
            frame.next_state.push(frame.lit(latch.next));
        }
        frame
    }

    /// Adds unit clauses pinning latch-in literals of `frame` to the AIG's
    /// initial state. Call on frame 0 of a BMC run.
    pub fn assert_initial(&mut self, aig: &Aig, frame: &Frame) {
        for latch in aig.latches() {
            let l = frame.lit(ALit::new(latch.var, false));
            let unit = if latch.init { l } else { !l };
            self.solver.add_clause(&[unit]);
        }
    }

    /// Adds clauses requiring every constraint of `aig` to hold in `frame`.
    pub fn assert_constraints(&mut self, aig: &Aig, frame: &Frame) {
        for c in aig.constraints() {
            let l = frame.lit(c.lit);
            self.solver.add_clause(&[l]);
        }
    }

    /// Returns the latch-in literal of `latch` in `frame`.
    pub fn latch_lit(&self, aig: &Aig, frame: &Frame, latch: LatchId) -> Lit {
        frame.lit(ALit::new(aig.latch_info(latch).var, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    /// XOR circuit: SAT exactly when output can be 1.
    #[test]
    fn tseitin_xor_is_correct() {
        let mut aig = Aig::new();
        let a = aig.input("a");
        let b = aig.input("b");
        let y = aig.xor(a, b);

        let mut s = Solver::new();
        let mut cb = CnfBuilder::new(&mut s);
        let frame = cb.encode_frame(&aig, None);
        let ly = frame.lit(y);
        // Force y=1, a=1: then b must be 0.
        let la = frame.lit(a);
        let lb = frame.lit(b);
        assert_eq!(s.solve(&[ly, la]), SolveResult::Sat);
        assert_eq!(s.value(lb.var()), Some(lb.is_neg()), "b must be false");
        // y=1, a=1, b=1 impossible.
        assert_eq!(s.solve(&[ly, la, lb]), SolveResult::Unsat);
    }

    /// Exhaustive equivalence: CNF encoding agrees with AIG evaluation for
    /// a small mixed circuit.
    #[test]
    fn tseitin_matches_aig_semantics() {
        let mut aig = Aig::new();
        let ins: Vec<ALit> = (0..4).map(|i| aig.input(format!("i{i}"))).collect();
        let x = aig.xor(ins[0], ins[1]);
        let m = aig.mux(ins[2], x, ins[3]);
        let root = aig.and(m, ins[0]);

        for assignment in 0..16u32 {
            let want = aig.eval_comb(root, &|v| {
                let idx = aig.input_index(v).unwrap();
                assignment >> idx & 1 == 1
            });
            let mut s = Solver::new();
            let mut cb = CnfBuilder::new(&mut s);
            let frame = cb.encode_frame(&aig, None);
            let mut assumptions = Vec::new();
            for (idx, l) in frame.inputs.iter().enumerate() {
                let bit = assignment >> idx & 1 == 1;
                assumptions.push(if bit { *l } else { !*l });
            }
            let lroot = frame.lit(root);
            assumptions.push(if want { lroot } else { !lroot });
            assert_eq!(
                s.solve(&assumptions),
                SolveResult::Sat,
                "assignment {assignment:04b}"
            );
            // And the opposite value must be UNSAT.
            *assumptions.last_mut().unwrap() = if want { !lroot } else { lroot };
            assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        }
    }

    /// Two-frame unrolling of a toggle latch: q0=init=false, q1=!q0=true.
    #[test]
    fn frames_chain_latches() {
        let mut aig = Aig::new();
        let (id, q) = aig.latch("q", false);
        aig.set_next(id, !q);

        let mut s = Solver::new();
        let mut cb = CnfBuilder::new(&mut s);
        let f0 = cb.encode_frame(&aig, None);
        cb.assert_initial(&aig, &f0);
        let f1 = cb.encode_frame(&aig, Some(&f0.next_state));
        let q0 = f0.lit(q);
        let q1 = f1.lit(q);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(q0.var()).map(|v| v ^ q0.is_neg()), Some(false));
        assert_eq!(s.value(q1.var()).map(|v| v ^ q1.is_neg()), Some(true));
    }

    #[test]
    fn constraints_prune_models() {
        let mut aig = Aig::new();
        let a = aig.input("a");
        let b = aig.input("b");
        aig.add_constraint("a_is_true", a);
        let both = aig.and(a, b);

        let mut s = Solver::new();
        let mut cb = CnfBuilder::new(&mut s);
        let frame = cb.encode_frame(&aig, None);
        cb.assert_constraints(&aig, &frame);
        let lboth = frame.lit(both);
        let lb = frame.lit(b);
        // With constraint a=1, both <-> b.
        assert_eq!(s.solve(&[lboth, !lb]), SolveResult::Unsat);
        assert_eq!(s.solve(&[!lboth, lb]), SolveResult::Unsat);
        assert_eq!(s.solve(&[lboth, lb]), SolveResult::Sat);
    }
}
