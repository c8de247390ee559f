//! Cone-of-influence reduction.
//!
//! Model checking a single leaf-module property rarely needs the whole
//! design; [`Aig::extract_coi`] rebuilds a fresh AIG containing only the
//! logic that can affect the given roots (bads + constraints), shrinking
//! the state space the engines must handle. This is the mechanised half of
//! the paper's Divide-and-Conquer argument: each stereotype property has a
//! small cone.

use crate::hash::FxHashMap;
use crate::{Aig, LatchId, Lit, Node, Var};

/// The result of a cone-of-influence extraction.
#[derive(Clone, Debug)]
pub struct CoiResult {
    /// The reduced AIG.
    pub aig: Aig,
    /// Mapping from old literal roots (as passed in) to new literals, in
    /// the same order.
    pub roots: Vec<Lit>,
    /// Old latch id → new latch id, for trace mapping.
    pub latch_map: FxHashMap<LatchId, LatchId>,
    /// Old input var → new input var.
    pub input_map: FxHashMap<Var, Var>,
}

impl Aig {
    /// Extracts the cone of influence of `roots` into a fresh AIG.
    ///
    /// Latches reached transitively (through next-state functions) are
    /// kept, along with any inputs feeding the kept logic. Outputs, bads
    /// and constraints of the original AIG are *not* carried over; callers
    /// re-register the mapped roots as appropriate.
    pub fn extract_coi(&self, roots: &[Lit]) -> CoiResult {
        // Phase 1: find the set of needed vars via fixpoint over latch
        // next-state functions.
        let mut needed = vec![false; self.nodes.len()];
        let mut work: Vec<Var> = roots.iter().map(|l| l.var()).collect();
        while let Some(v) = work.pop() {
            if needed[v.0 as usize] {
                continue;
            }
            needed[v.0 as usize] = true;
            match &self.nodes[v.0 as usize] {
                Node::Const0 | Node::Input { .. } => {}
                Node::Latch { index } => {
                    work.push(self.latches[*index as usize].next.var());
                }
                Node::And { a, b } => {
                    work.push(a.var());
                    work.push(b.var());
                }
            }
        }
        // Phase 2: rebuild in index order (which is topological).
        let mut out = Aig::new();
        let mut lit_map: FxHashMap<Var, Lit> = FxHashMap::default();
        lit_map.insert(Var(0), Lit::FALSE);
        let mut latch_map = FxHashMap::default();
        let mut input_map = FxHashMap::default();
        let mut new_latches: Vec<(LatchId, LatchId)> = Vec::new();
        for (i, need) in needed.iter().enumerate() {
            if !need {
                continue;
            }
            let v = Var(i as u32);
            match &self.nodes[i] {
                Node::Const0 => {}
                Node::Input { index } => {
                    let name = self.inputs[*index as usize].1.clone();
                    let l = out.input(name);
                    input_map.insert(v, l.var());
                    lit_map.insert(v, l);
                }
                Node::Latch { index } => {
                    let old_id = LatchId(*index);
                    let info = &self.latches[*index as usize];
                    let (new_id, l) = out.latch(info.name.clone(), info.init);
                    latch_map.insert(old_id, new_id);
                    new_latches.push((old_id, new_id));
                    lit_map.insert(v, l);
                }
                Node::And { a, b } => {
                    let na = map_lit(*a, &lit_map);
                    let nb = map_lit(*b, &lit_map);
                    let l = out.and(na, nb);
                    lit_map.insert(v, l);
                }
            }
        }
        // Phase 3: wire latch next-state functions.
        for (old_id, new_id) in &new_latches {
            let next = self.latches[old_id.0 as usize].next;
            out.set_next(*new_id, map_lit(next, &lit_map));
        }
        let roots = roots.iter().map(|l| map_lit(*l, &lit_map)).collect();
        CoiResult {
            aig: out,
            roots,
            latch_map,
            input_map,
        }
    }
}

fn map_lit(l: Lit, lit_map: &FxHashMap<Var, Lit>) -> Lit {
    let base = *lit_map
        .get(&l.var())
        .expect("COI mapping missed a needed node"); // lint: allow
    if l.is_compl() {
        !base
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coi_drops_unrelated_logic() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let (l1, q1) = g.latch("q1", false);
        let (l2, q2) = g.latch("q2", true);
        let n1 = g.and(a, q1);
        g.set_next(l1, n1);
        let n2 = g.and(b, q2);
        g.set_next(l2, n2);
        let junk = g.and(c, b);
        g.add_output("junk", junk);
        // Root only involves q1/a.
        let root = g.and(q1, a);
        let r = g.extract_coi(&[root]);
        assert_eq!(r.aig.num_latches(), 1);
        assert_eq!(r.aig.num_inputs(), 1);
        assert!(r.latch_map.contains_key(&LatchId(0)));
        assert!(!r.latch_map.contains_key(&LatchId(1)));
    }

    #[test]
    fn coi_follows_latch_next_functions() {
        // q1.next depends on q2, so asking for q1 must pull q2 in.
        let mut g = Aig::new();
        let (l1, q1) = g.latch("q1", false);
        let (l2, q2) = g.latch("q2", false);
        let x = g.input("x");
        g.set_next(l1, q2);
        let n2 = g.and(q2, x);
        g.set_next(l2, n2);
        let r = g.extract_coi(&[q1]);
        assert_eq!(r.aig.num_latches(), 2);
        assert_eq!(r.aig.num_inputs(), 1);
        assert_eq!(r.latch_map.len(), 2);
        let _ = (l1, l2);
    }

    #[test]
    fn coi_preserves_semantics() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.xor(a, b);
        let y = g.and(x, a);
        let r = g.extract_coi(&[y]);
        let new_root = r.roots[0];
        for av in [false, true] {
            for bv in [false, true] {
                let old = g.eval_comb(y, &|v| if v == a.var() { av } else { bv });
                let new = r.aig.eval_comb(new_root, &|v| {
                    match r.aig.input_index(v) {
                        Some(i) => {
                            // Input order preserved: a then b.
                            if i == 0 {
                                av
                            } else {
                                bv
                            }
                        }
                        None => unreachable!(),
                    }
                });
                assert_eq!(old, new, "mismatch at a={av} b={bv}");
            }
        }
    }

    #[test]
    fn constant_root_maps_to_constant() {
        let g = Aig::new();
        let r = g.extract_coi(&[Lit::TRUE, Lit::FALSE]);
        assert_eq!(r.roots, vec![Lit::TRUE, Lit::FALSE]);
        assert_eq!(r.aig.num_nodes(), 1);
    }
}
