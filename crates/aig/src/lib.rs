//! # veridic-aig
//!
//! And-Inverter Graphs: the bit-level representation shared by every formal
//! engine in `veridic` (BDD reachability, POBDD, SAT-based BMC and
//! k-induction) and by counterexample replay.
//!
//! An [`Aig`] is a synchronous sequential circuit: primary inputs, latches
//! (with binary initial values), two-input AND nodes with optional inverters
//! on every edge, plus named *outputs*, *bad* markers (safety property
//! failures) and *invariant constraints* (environment assumptions).
//!
//! ```
//! use veridic_aig::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.input("a");
//! let b = aig.input("b");
//! let y = aig.xor(a, b);
//! aig.add_output("y", y);
//! assert_eq!(aig.num_ands(), 3); // xor = 3 ANDs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod coi;
pub mod hash;
mod sim;
pub mod structure;

pub use coi::CoiResult;
pub use sim::{CycleReport, CycleValues, SimState};

use crate::hash::FxHashMap;
use std::fmt;

/// A literal: a node variable with an optional inversion.
///
/// The LSB is the complement flag; `Lit::FALSE` is variable 0
/// uncomplemented and `Lit::TRUE` is its complement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a variable index and sign.
    pub fn new(var: Var, complement: bool) -> Lit {
        Lit(var.0 << 1 | complement as u32)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is complemented.
    pub fn is_compl(self) -> bool {
        self.0 & 1 == 1
    }

    /// True if this is one of the two constants.
    pub fn is_const(self) -> bool {
        self.var().0 == 0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Lit::FALSE {
            write!(f, "0")
        } else if *self == Lit::TRUE {
            write!(f, "1")
        } else {
            write!(
                f,
                "{}v{}",
                if self.is_compl() { "!" } else { "" },
                self.var().0
            )
        }
    }
}

/// A node variable index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a latch within an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LatchId(pub u32);

/// The defining record of an AIG node.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Node {
    /// Variable 0: constant false.
    Const0,
    /// Primary input.
    Input { index: u32 },
    /// Latch output.
    Latch { index: u32 },
    /// Two-input AND.
    And { a: Lit, b: Lit },
}

/// A latch: a single state bit with a next-state literal and initial value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Latch {
    /// The variable representing the latch's current-state output.
    pub var: Var,
    /// Next-state function; [`Lit::FALSE`] until set.
    pub next: Lit,
    /// Initial (reset) value.
    pub init: bool,
    /// Diagnostic name.
    pub name: String,
}

/// A named single-bit property or output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedLit {
    /// Human-readable name (RTL path for checkpoints).
    pub name: String,
    /// The literal.
    pub lit: Lit,
}

/// An And-Inverter Graph with latches, inputs, outputs, bads and
/// constraints.
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    inputs: Vec<(Var, String)>,
    latches: Vec<Latch>,
    outputs: Vec<NamedLit>,
    bads: Vec<NamedLit>,
    constraints: Vec<NamedLit>,
    strash: FxHashMap<(Lit, Lit), Var>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const0],
            inputs: Vec::new(),
            latches: Vec::new(),
            outputs: Vec::new(),
            bads: Vec::new(),
            constraints: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn input(&mut self, name: impl Into<String>) -> Lit {
        let var = Var(self.nodes.len() as u32);
        self.nodes.push(Node::Input {
            index: self.inputs.len() as u32,
        });
        self.inputs.push((var, name.into()));
        Lit::new(var, false)
    }

    /// Adds a latch with the given initial value; its next-state function
    /// starts as constant false and must be set with [`Aig::set_next`].
    pub fn latch(&mut self, name: impl Into<String>, init: bool) -> (LatchId, Lit) {
        let var = Var(self.nodes.len() as u32);
        self.nodes.push(Node::Latch {
            index: self.latches.len() as u32,
        });
        let id = LatchId(self.latches.len() as u32);
        self.latches.push(Latch {
            var,
            next: Lit::FALSE,
            init,
            name: name.into(),
        });
        (id, Lit::new(var, false))
    }

    /// Sets the next-state function of a latch.
    pub fn set_next(&mut self, latch: LatchId, next: Lit) {
        self.latches[latch.0 as usize].next = next;
    }

    /// Creates (or reuses) an AND node. Applies constant folding,
    /// idempotence and complement rules, and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Normalise operand order for hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if let Some(&v) = self.strash.get(&(a, b)) {
            return Lit::new(v, false);
        }
        let var = Var(self.nodes.len() as u32);
        self.nodes.push(Node::And { a, b });
        self.strash.insert((a, b), var);
        Lit::new(var, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR as three ANDs.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// XNOR (equivalence).
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// 2:1 multiplexer `c ? t : e`.
    pub fn mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        let n1 = self.and(c, t);
        let n2 = self.and(!c, e);
        self.or(n1, n2)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// Conjunction of many literals (true for empty input).
    pub fn and_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut acc = Lit::TRUE;
        for l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction of many literals (false for empty input).
    pub fn or_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut acc = Lit::FALSE;
        for l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Registers a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push(NamedLit {
            name: name.into(),
            lit,
        });
    }

    /// Registers a *bad* literal: the safety property is `never bad`.
    pub fn add_bad(&mut self, name: impl Into<String>, lit: Lit) {
        self.bads.push(NamedLit {
            name: name.into(),
            lit,
        });
    }

    /// Registers an invariant constraint: only paths on which every
    /// constraint holds in every cycle are considered.
    pub fn add_constraint(&mut self, name: impl Into<String>, lit: Lit) {
        self.constraints.push(NamedLit {
            name: name.into(),
            lit,
        });
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len() - self.latches.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of nodes of any kind including the constant.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A stable 64-bit structural fingerprint of the whole design:
    /// FNV-1a over the node table (inputs, latch next/init functions,
    /// AND fanins) and every named output/bad/constraint literal,
    /// in creation order.
    ///
    /// Two [`Aig`]s built by replaying the same construction calls hash
    /// identically across processes and runs (no pointer or
    /// hash-map-iteration input), which is what persistent checkpoint
    /// headers bind to: a checkpoint written against one design must
    /// refuse to resume against another.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut byte = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        let word = |w: u64, byte: &mut dyn FnMut(u8)| {
            for b in w.to_le_bytes() {
                byte(b);
            }
        };
        let lit = |l: Lit, byte: &mut dyn FnMut(u8)| {
            word(u64::from(l.var().0) << 1 | u64::from(l.is_compl()), byte);
        };
        let named = |tag: u8, items: &[NamedLit], byte: &mut dyn FnMut(u8)| {
            byte(tag);
            word(items.len() as u64, byte);
            for n in items {
                word(n.name.len() as u64, byte);
                for b in n.name.as_bytes() {
                    byte(*b);
                }
                lit(n.lit, byte);
            }
        };
        byte(b'A');
        word(self.inputs.len() as u64, &mut byte);
        for (var, name) in &self.inputs {
            word(u64::from(var.0), &mut byte);
            word(name.len() as u64, &mut byte);
            for b in name.as_bytes() {
                byte(*b);
            }
        }
        word(self.latches.len() as u64, &mut byte);
        for l in &self.latches {
            word(u64::from(l.var.0), &mut byte);
            lit(l.next, &mut byte);
            byte(l.init as u8);
            word(l.name.len() as u64, &mut byte);
            for b in l.name.as_bytes() {
                byte(*b);
            }
        }
        word(self.num_ands() as u64, &mut byte);
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::And { a, b } = n {
                word(i as u64, &mut byte);
                lit(*a, &mut byte);
                lit(*b, &mut byte);
            }
        }
        named(b'o', &self.outputs, &mut byte);
        named(b'b', &self.bads, &mut byte);
        named(b'c', &self.constraints, &mut byte);
        h
    }

    /// The latches, in creation order.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// The latch with the given id.
    pub fn latch_info(&self, id: LatchId) -> &Latch {
        &self.latches[id.0 as usize]
    }

    /// The primary inputs `(var, name)`, in creation order.
    pub fn inputs(&self) -> &[(Var, String)] {
        &self.inputs
    }

    /// Registered outputs.
    pub fn outputs(&self) -> &[NamedLit] {
        &self.outputs
    }

    /// Registered bad (property failure) literals.
    pub fn bads(&self) -> &[NamedLit] {
        &self.bads
    }

    /// Registered invariant constraints.
    pub fn constraints(&self) -> &[NamedLit] {
        &self.constraints
    }

    /// If `var` is an AND node, returns its fanins.
    pub fn and_fanins(&self, var: Var) -> Option<(Lit, Lit)> {
        match self.nodes[var.0 as usize] {
            Node::And { a, b } => Some((a, b)),
            _ => None,
        }
    }

    /// True if `var` is a primary input.
    pub fn is_input(&self, var: Var) -> bool {
        matches!(self.nodes[var.0 as usize], Node::Input { .. })
    }

    /// If `var` is an input, returns its index in [`Aig::inputs`].
    pub fn input_index(&self, var: Var) -> Option<usize> {
        match self.nodes[var.0 as usize] {
            Node::Input { index } => Some(index as usize),
            _ => None,
        }
    }

    /// If `var` is a latch output, returns its [`LatchId`].
    pub fn latch_id(&self, var: Var) -> Option<LatchId> {
        match self.nodes[var.0 as usize] {
            Node::Latch { index } => Some(LatchId(index)),
            _ => None,
        }
    }

    /// Collects the structural support (inputs and latches) of a literal.
    pub fn support(&self, root: Lit) -> (Vec<Var>, Vec<LatchId>) {
        let mut seen = vec![false; self.nodes.len()];
        let mut inputs = Vec::new();
        let mut latches = Vec::new();
        let mut stack = vec![root.var()];
        while let Some(v) = stack.pop() {
            if seen[v.0 as usize] {
                continue;
            }
            seen[v.0 as usize] = true;
            match &self.nodes[v.0 as usize] {
                Node::Const0 => {}
                Node::Input { .. } => inputs.push(v),
                Node::Latch { index } => latches.push(LatchId(*index)),
                Node::And { a, b } => {
                    stack.push(a.var());
                    stack.push(b.var());
                }
            }
        }
        inputs.sort();
        latches.sort();
        (inputs, latches)
    }

    /// Evaluates a literal combinationally given values for inputs and
    /// latch outputs.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is queried for a variable that is neither an input
    /// nor a latch and the cone contains unevaluated nodes (cannot happen
    /// for well-formed AIGs).
    pub fn eval_comb(&self, root: Lit, leaf: &dyn Fn(Var) -> bool) -> bool {
        let mut values: FxHashMap<Var, bool> = FxHashMap::default();
        let v = self.eval_var(root.var(), leaf, &mut values);
        v ^ root.is_compl()
    }

    fn eval_var(
        &self,
        var: Var,
        leaf: &dyn Fn(Var) -> bool,
        memo: &mut FxHashMap<Var, bool>,
    ) -> bool {
        if let Some(&v) = memo.get(&var) {
            return v;
        }
        let v = match self.nodes[var.0 as usize] {
            Node::Const0 => false,
            Node::Input { .. } | Node::Latch { .. } => leaf(var),
            Node::And { a, b } => {
                let va = self.eval_var(a.var(), leaf, memo) ^ a.is_compl();
                let vb = self.eval_var(b.var(), leaf, memo) ^ b.is_compl();
                va && vb
            }
        };
        memo.insert(var, v);
        v
    }

    /// Topological order of AND variables (fanins before fanouts). Node
    /// creation order is already topological, so this is the AND subset in
    /// index order.
    pub fn and_order(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len() as u32)
            .map(Var)
            .filter(|v| matches!(self.nodes[v.0 as usize], Node::And { .. }))
    }

    pub(crate) fn node_kind(&self, var: Var) -> &Node {
        &self.nodes[var.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let l = Lit::new(Var(5), true);
        assert_eq!(l.var(), Var(5));
        assert!(l.is_compl());
        assert_eq!(!l, Lit::new(Var(5), false));
        assert_eq!(!Lit::TRUE, Lit::FALSE);
    }

    #[test]
    fn and_constant_folding() {
        let mut g = Aig::new();
        let a = g.input("a");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn strashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_xnor_mux_truth_tables() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.xor(a, b);
        let nx = g.xnor(a, b);
        assert_eq!(x, !nx);
        let m = g.mux(a, b, !b);
        for av in [false, true] {
            for bv in [false, true] {
                let leaf = |v: Var| if v == a.var() { av } else { bv };
                assert_eq!(g.eval_comb(x, &leaf), av ^ bv);
                assert_eq!(g.eval_comb(m, &leaf), if av { bv } else { !bv });
            }
        }
    }

    #[test]
    fn implies_truth_table() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let i = g.implies(a, b);
        for av in [false, true] {
            for bv in [false, true] {
                let leaf = |v: Var| if v == a.var() { av } else { bv };
                assert_eq!(g.eval_comb(i, &leaf), !av || bv);
            }
        }
    }

    #[test]
    fn latch_roundtrip() {
        let mut g = Aig::new();
        let (id, q) = g.latch("state", true);
        g.set_next(id, !q);
        assert_eq!(g.num_latches(), 1);
        assert!(g.latch_info(id).init);
        assert_eq!(g.latch_info(id).next, !q);
        assert_eq!(g.latch_id(q.var()), Some(id));
    }

    #[test]
    fn support_walks_cones() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let _c = g.input("c");
        let (lid, q) = g.latch("q", false);
        let t = g.and(a, b);
        let root = g.and(t, q);
        g.set_next(lid, t);
        let (ins, ls) = g.support(root);
        assert_eq!(ins.len(), 2); // a, b but not c
        assert_eq!(ls, vec![lid]);
    }

    #[test]
    fn and_many_or_many() {
        let mut g = Aig::new();
        let xs: Vec<Lit> = (0..4).map(|i| g.input(format!("x{i}"))).collect();
        let all = g.and_many(xs.iter().copied());
        let any = g.or_many(xs.iter().copied());
        let none: Vec<Lit> = vec![];
        assert_eq!(g.and_many(none.iter().copied()), Lit::TRUE);
        assert_eq!(g.or_many(none.iter().copied()), Lit::FALSE);
        assert!(g.eval_comb(all, &|_| true));
        assert!(g.eval_comb(any, &|_| true));
        let leaf = |v: Var| g.input_index(v) == Some(2);
        assert!(!g.eval_comb(all, &leaf));
        assert!(g.eval_comb(any, &leaf));
    }

    #[test]
    fn counts_are_consistent() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let (_, q) = g.latch("q", false);
        let x = g.and(a, b);
        let _y = g.and(x, q);
        assert_eq!(g.num_inputs(), 2);
        assert_eq!(g.num_latches(), 1);
        assert_eq!(g.num_ands(), 2);
        assert_eq!(g.num_nodes(), 6);
    }
}
