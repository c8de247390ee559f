//! # veridic-sat
//!
//! A from-scratch CDCL SAT solver plus CNF construction utilities — the
//! falsification engine behind veridic's bounded model checking and
//! k-induction (the stand-in for the paper's "commercial formal
//! verification tool ... equipped with various formal solver algorithms").
//!
//! Features: two-literal watching, first-UIP conflict analysis with clause
//! learning, VSIDS decision heuristic with phase saving on a two-tier
//! order (a binary heap for bumped variables, a bitset in index order
//! for those still at activity zero), Luby restarts, activity-based
//! learnt-clause reduction over a flat clause arena that compacts
//! itself, incremental solving under assumptions (clauses may be added
//! between calls), and a deterministic conflict budget (the reproducible
//! "time-out" used by the resource-bounded verification flow). The
//! search itself is pinned, not just its answers: the search-exact
//! contract is in ARCHITECTURE.md, "SAT hot-path design".
//!
//! ```
//! use veridic_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod solver;

pub use cnf::CnfBuilder;
pub use solver::{SolveResult, Solver};

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index for watch lists.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
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
        write!(
            f,
            "{}x{}",
            if self.is_neg() { "!" } else { "" },
            self.var().0
        )
    }
}

#[cfg(test)]
mod lit_tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var(7);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(!p.is_neg());
        assert!(n.is_neg());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_ne!(p.index(), n.index());
    }
}
