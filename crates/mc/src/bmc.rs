//! SAT-based bounded model checking and k-induction.

use crate::engine::Budget;
use crate::{CheckStats, Trace};
use veridic_aig::Aig;
use veridic_sat::{CnfBuilder, Lit as SLit, SolveResult, Solver};

/// Outcome of a BMC run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcOutcome {
    /// A counterexample was found.
    Falsified(Trace),
    /// No counterexample up to the depth bound.
    NoCounterexample,
    /// The conflict budget ran out on the query of this depth.
    ResourceOut {
        /// The depth whose query ran out.
        depth: usize,
    },
    /// The cooperative round [`Budget`] stopped the run before this
    /// depth was queried; resume with `min_depth = next_depth` (the
    /// solver re-encodes the earlier frames deterministically but does
    /// not re-query them). Never returned by [`bmc_check`], which runs
    /// unbudgeted.
    Suspended {
        /// First depth the resumed run should query.
        next_depth: usize,
    },
}

impl BmcOutcome {
    /// The deepest depth `d` the run showed bad-free from the initial
    /// states — no bad at any depth `0..=d` — or `None` if it showed
    /// none: `max_depth` (the run's bound) when it is clean, `d - 1`
    /// when it falsifies, runs out or suspends at depth `d`. Depths
    /// below the run's `min_depth` count as shown by the earlier run
    /// that queried them.
    pub fn cleared_depth(&self, max_depth: usize) -> Option<usize> {
        match self {
            BmcOutcome::NoCounterexample => Some(max_depth),
            BmcOutcome::Falsified(t) => t.len().checked_sub(2),
            BmcOutcome::ResourceOut { depth } => depth.checked_sub(1),
            BmcOutcome::Suspended { next_depth } => next_depth.checked_sub(1),
        }
    }
}

/// Outcome of a k-induction run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InductionOutcome {
    /// Proved at the contained induction depth.
    Proved(usize),
    /// Not k-inductive up to the depth bound (property may still hold).
    Unknown,
    /// The conflict budget ran out.
    ResourceOut,
    /// The cooperative round [`Budget`] stopped the run before this k
    /// was attempted; resume from `next_k`. Never returned by
    /// [`induction_check`], which runs unbudgeted.
    Suspended {
        /// First induction depth the resumed run should attempt.
        next_k: usize,
    },
}

/// Bounded model checking of all bads of `aig` between depths
/// `min_depth..=max_depth` (cycle indices: a violation "at depth k" fires
/// in cycle k of a k+1-cycle trace).
///
/// Returns on the first (shallowest) counterexample.
pub fn bmc_check(
    aig: &Aig,
    min_depth: usize,
    max_depth: usize,
    conflict_budget: u64,
    stats: &mut CheckStats,
) -> BmcOutcome {
    bmc_check_budgeted(
        aig,
        min_depth,
        max_depth,
        conflict_budget,
        stats,
        &mut Budget::unlimited(),
    )
}

/// [`bmc_check`] under a cooperative round [`Budget`]: one budget round
/// is consumed per depth actually queried (depths below `min_depth` are
/// encoded for free). When the budget trips, the run suspends with the
/// next depth as its checkpoint.
pub fn bmc_check_budgeted(
    aig: &Aig,
    min_depth: usize,
    max_depth: usize,
    conflict_budget: u64,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> BmcOutcome {
    let mut solver = Solver::new();
    solver.set_conflict_budget(Some(conflict_budget));
    let mut frames = Vec::new();
    {
        let mut cb = CnfBuilder::new(&mut solver);
        let f0 = cb.encode_frame(aig, None);
        cb.assert_initial(aig, &f0);
        cb.assert_constraints(aig, &f0);
        frames.push(f0);
    }
    for k in 0..=max_depth {
        while frames.len() <= k {
            let prev_next: Vec<SLit> = frames.last().unwrap().next_state.clone(); // lint: allow
            let mut cb = CnfBuilder::new(&mut solver);
            let f = cb.encode_frame(aig, Some(&prev_next));
            cb.assert_constraints(aig, &f);
            frames.push(f);
        }
        if k < min_depth {
            continue;
        }
        if !budget.tick() {
            stats.sat_conflicts += solver.num_conflicts();
            return BmcOutcome::Suspended { next_depth: k };
        }
        // bad_k: OR of all bads in frame k, via a selector literal.
        let frame = &frames[k];
        let bad_lits: Vec<SLit> = aig.bads().iter().map(|b| frame.lit(b.lit)).collect();
        let sel = SLit::pos(solver.new_var());
        // sel -> (b1 | b2 | ...): clause (!sel, b1, b2, ...)
        let mut clause = vec![!sel];
        clause.extend(bad_lits.iter().copied());
        solver.add_clause(&clause);
        match solver.solve(&[sel]) {
            SolveResult::Sat => {
                // Which bad fired?
                let bad_index = bad_lits
                    .iter()
                    .position(|l| solver.value(l.var()).map(|v| v ^ l.is_neg()) == Some(true))
                    .expect("some bad literal is true in the model"); // lint: allow
                let mut inputs = Vec::with_capacity(k + 1);
                for frame in frames.iter().take(k + 1) {
                    let row: Vec<bool> = frame
                        .inputs
                        .iter()
                        .map(|l| {
                            solver
                                .value(l.var())
                                .map(|v| v ^ l.is_neg())
                                .unwrap_or(false)
                        })
                        .collect();
                    inputs.push(row);
                }
                stats.sat_conflicts += solver.num_conflicts();
                return BmcOutcome::Falsified(Trace { inputs, bad_index });
            }
            SolveResult::Unsat => {
                // Block this depth permanently (helps later queries).
                solver.add_clause(&[!sel]);
            }
            SolveResult::Unknown => {
                stats.sat_conflicts += solver.num_conflicts();
                return BmcOutcome::ResourceOut { depth: k };
            }
        }
    }
    stats.sat_conflicts += solver.num_conflicts();
    BmcOutcome::NoCounterexample
}

/// k-induction: proves `never bad` if, assuming no bad in `k` consecutive
/// constraint-satisfying cycles from an arbitrary state, no bad can occur
/// in the next cycle — together with a BMC base case the caller must
/// have established: no bad at depths `0..k` from the initial states
/// (so `max_k` must not exceed the depth BMC cleared plus one).
///
/// `simple_path` adds loop-free (all-states-distinct) constraints, which
/// makes the method complete for large enough `k` at quadratic clause
/// cost.
pub fn induction_check(
    aig: &Aig,
    max_k: usize,
    simple_path: bool,
    conflict_budget: u64,
    stats: &mut CheckStats,
) -> InductionOutcome {
    induction_check_budgeted(
        aig,
        1,
        max_k,
        simple_path,
        conflict_budget,
        stats,
        &mut Budget::unlimited(),
    )
}

/// [`induction_check`] under a cooperative round [`Budget`], starting
/// from `min_k` (a resumed run's checkpoint): one budget round per k
/// attempted. When the budget trips, the run suspends with the next k.
#[allow(clippy::too_many_arguments)]
pub fn induction_check_budgeted(
    aig: &Aig,
    min_k: usize,
    max_k: usize,
    simple_path: bool,
    conflict_budget: u64,
    stats: &mut CheckStats,
    budget: &mut Budget,
) -> InductionOutcome {
    for k in min_k.max(1)..=max_k {
        if !budget.tick() {
            return InductionOutcome::Suspended { next_k: k };
        }
        let mut solver = Solver::new();
        solver.set_conflict_budget(Some(conflict_budget));
        // Frames 0..=k from an arbitrary initial state.
        let mut frames = Vec::new();
        {
            let mut cb = CnfBuilder::new(&mut solver);
            let f0 = cb.encode_frame(aig, None);
            cb.assert_constraints(aig, &f0);
            frames.push(f0);
        }
        for _ in 0..k {
            let prev_next: Vec<SLit> = frames.last().unwrap().next_state.clone(); // lint: allow
            let mut cb = CnfBuilder::new(&mut solver);
            let f = cb.encode_frame(aig, Some(&prev_next));
            cb.assert_constraints(aig, &f);
            frames.push(f);
        }
        // No bad in frames 0..k.
        for frame in frames.iter().take(k) {
            for b in aig.bads() {
                solver.add_clause(&[!frame.lit(b.lit)]);
            }
        }
        // Simple path: all frame state vectors pairwise distinct.
        if simple_path && aig.num_latches() > 0 {
            let state_lits: Vec<Vec<SLit>> = frames
                .iter()
                .map(|f| {
                    aig.latches()
                        .iter()
                        .map(|l| f.lit(veridic_aig::Lit::new(l.var, false)))
                        .collect()
                })
                .collect();
            for i in 0..state_lits.len() {
                for j in i + 1..state_lits.len() {
                    // diff_ij: OR over bits of (s_i[b] != s_j[b]).
                    let mut diff_clause = Vec::new();
                    for (&x, &y) in state_lits[i].iter().zip(&state_lits[j]) {
                        let d = SLit::pos(solver.new_var());
                        // d -> (x != y): (!d, x, y), (!d, !x, !y)
                        solver.add_clause(&[!d, x, y]);
                        solver.add_clause(&[!d, !x, !y]);
                        diff_clause.push(d);
                    }
                    solver.add_clause(&diff_clause);
                }
            }
        }
        // Bad at frame k?
        let frame = &frames[k];
        let bad_lits: Vec<SLit> = aig.bads().iter().map(|b| frame.lit(b.lit)).collect();
        let mut clause = Vec::new();
        clause.extend(bad_lits.iter().copied());
        let sel = SLit::pos(solver.new_var());
        let mut cl = vec![!sel];
        cl.extend(clause);
        solver.add_clause(&cl);
        let res = solver.solve(&[sel]);
        stats.sat_conflicts += solver.num_conflicts();
        match res {
            SolveResult::Unsat => return InductionOutcome::Proved(k),
            SolveResult::Sat => continue, // not k-inductive; try larger k
            SolveResult::Unknown => return InductionOutcome::ResourceOut,
        }
    }
    InductionOutcome::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::Aig;

    fn toggle() -> Aig {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, !q);
        g.add_bad("q_and_next", q); // q is true every odd cycle
        g
    }

    #[test]
    fn bmc_finds_shallow_bug() {
        let g = toggle();
        let mut stats = CheckStats::default();
        match bmc_check(&g, 0, 5, 1_000_000, &mut stats) {
            BmcOutcome::Falsified(t) => {
                assert_eq!(t.len(), 2, "q first true in cycle 1");
                assert!(t.replays_on(&g));
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn bmc_min_depth_skips_shallow() {
        // Force extraction at exactly depth 3 (q true at odd depths).
        let g = toggle();
        let mut stats = CheckStats::default();
        match bmc_check(&g, 3, 3, 1_000_000, &mut stats) {
            BmcOutcome::Falsified(t) => assert_eq!(t.len(), 4),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn bmc_clean_design_reports_none() {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, q);
        g.add_bad("never", q);
        let mut stats = CheckStats::default();
        assert_eq!(
            bmc_check(&g, 0, 10, 1_000_000, &mut stats),
            BmcOutcome::NoCounterexample
        );
    }

    #[test]
    fn induction_proves_stuck_latch() {
        let mut g = Aig::new();
        let (id, q) = g.latch("q", false);
        g.set_next(id, q);
        g.add_bad("never", q);
        let mut stats = CheckStats::default();
        match induction_check(&g, 5, true, 1_000_000, &mut stats) {
            InductionOutcome::Proved(k) => assert_eq!(k, 1),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn induction_needs_simple_path_for_counters() {
        // 3-bit counter that wraps at 6 (never reaches 7): plain induction
        // fails at small k, simple-path proves it.
        let mut g = Aig::new();
        let qs: Vec<_> = (0..3).map(|i| g.latch(format!("c{i}"), false)).collect();
        let (q0, q1, q2) = (qs[0].1, qs[1].1, qs[2].1);
        // at5 = q2 & !q1 & q0 (value 5) -> wrap to 0
        let n01 = g.and(q2, !q1);
        let at5 = g.and(n01, q0);
        let mut carry = veridic_aig::Lit::TRUE;
        let mut nexts = Vec::new();
        for (_, q) in &qs {
            let inc = g.xor(*q, carry);
            carry = g.and(*q, carry);
            nexts.push(inc);
        }
        for (i, (id, _)) in qs.iter().enumerate() {
            let nx = g.and(nexts[i], !at5);
            g.set_next(*id, nx);
        }
        // bad: value 7
        let b01 = g.and(q0, q1);
        let bad = g.and(b01, q2);
        g.add_bad("seven", bad);
        let mut stats = CheckStats::default();
        // With simple path it proves within k <= 8.
        match induction_check(&g, 8, true, 1_000_000, &mut stats) {
            InductionOutcome::Proved(_) => {}
            other => panic!("expected proof with simple-path, got {other:?}"),
        }
    }

    /// `lits`, read as a little-endian number, equals `value`.
    fn equals(g: &mut Aig, lits: &[veridic_aig::Lit], value: u64) -> veridic_aig::Lit {
        let bits: Vec<_> = lits
            .iter()
            .enumerate()
            .map(|(i, &q)| if value >> i & 1 == 1 { q } else { !q })
            .collect();
        g.and_many(bits)
    }

    /// Two `bits`-wide counters sharing one input: `a` counts up while
    /// `en` is high, `b` while it is low. The bad fires when `a == x` and
    /// `b == y` together, which needs at least `x + y` cycles.
    fn split_counters(bits: usize, x: u64, y: u64) -> Aig {
        let mut g = Aig::new();
        let en = g.input("en");
        let mut at = Vec::new();
        for (name, inc, target) in [("a", en, x), ("b", !en, y)] {
            let latches: Vec<_> = (0..bits)
                .map(|i| g.latch(format!("{name}{i}"), false))
                .collect();
            let mut carry = inc;
            for &(id, q) in &latches {
                let next = g.xor(q, carry);
                carry = g.and(q, carry);
                g.set_next(id, next);
            }
            let qs: Vec<_> = latches.iter().map(|&(_, q)| q).collect();
            at.push(equals(&mut g, &qs, target));
        }
        let bad = g.and(at[0], at[1]);
        g.add_bad("both_at_target", bad);
        g
    }

    /// A `bits`-wide counter that counts while input `en` is high and
    /// wraps to 0 after `wrap`; the bad fires at all-ones, unreachable
    /// when `wrap` is below it.
    fn wrapping_counter(bits: usize, wrap: u64) -> Aig {
        let mut g = Aig::new();
        let en = g.input("en");
        let latches: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let qs: Vec<_> = latches.iter().map(|&(_, q)| q).collect();
        let at_wrap = equals(&mut g, &qs, wrap);
        let mut carry = en;
        for &(id, q) in &latches {
            let inc = g.xor(q, carry);
            carry = g.and(q, carry);
            let next = g.and(inc, !at_wrap);
            g.set_next(id, next);
        }
        let all_ones = equals(&mut g, &qs, (1 << bits) - 1);
        g.add_bad("all_ones", all_ones);
        g
    }

    #[test]
    fn search_counts_on_counters() {
        // Pins the SAT work of both engines on a design that needs real
        // search (proving `x + y` unreachable within fewer cycles is a
        // counting argument): any change to the solver's decision or
        // propagation order shows up in `sat_conflicts`, which the
        // campaign goldens compare.
        let mut bmc_stats = CheckStats::default();
        let bmc = bmc_check(&split_counters(5, 13, 12), 0, 24, 1_000_000, &mut bmc_stats);
        let mut ind_stats = CheckStats::default();
        let ind = induction_check(
            &wrapping_counter(7, 100),
            40,
            true,
            1_000_000,
            &mut ind_stats,
        );
        assert_eq!(
            (bmc, bmc_stats.sat_conflicts, ind, ind_stats.sat_conflicts),
            (
                BmcOutcome::NoCounterexample,
                7576,
                InductionOutcome::Proved(27),
                3337
            )
        );
        // The model behind a counterexample is search-dependent too.
        let g = split_counters(5, 13, 12);
        let mut cex_stats = CheckStats::default();
        let BmcOutcome::Falsified(trace) = bmc_check(&g, 0, 30, 1_000_000, &mut cex_stats) else {
            panic!("13 + 12 cycles reach the target");
        };
        assert!(trace.replays_on(&g));
        let en: String = trace
            .inputs
            .iter()
            .map(|row| if row[0] { '1' } else { '0' })
            .collect();
        assert_eq!(
            (en.as_str(), cex_stats.sat_conflicts),
            ("00001010110000011011111110", 7582)
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A zero conflict budget still lets a query that needs no
        // conflict through: the first decisions on a latched 12-input
        // parity already satisfy it at depth 1.
        let mut g = Aig::new();
        let ins: Vec<_> = (0..12).map(|i| g.input(format!("x{i}"))).collect();
        let mut parity = veridic_aig::Lit::FALSE;
        for l in &ins {
            parity = g.xor(parity, *l);
        }
        let (id, q) = g.latch("q", false);
        g.set_next(id, parity);
        g.add_bad("parity_high", q);
        let mut stats = CheckStats::default();
        let mut first = vec![false; 12];
        first[11] = true;
        let trace = Trace {
            inputs: vec![first, vec![false; 12]],
            bad_index: 0,
        };
        assert_eq!(
            (bmc_check(&g, 0, 3, 0, &mut stats), stats.sat_conflicts),
            (BmcOutcome::Falsified(trace), 0)
        );
        // A query that needs search stops at the budget, having cleared
        // the depths before it.
        let mut stats = CheckStats::default();
        let outcome = bmc_check(&split_counters(5, 13, 12), 0, 24, 1000, &mut stats);
        assert_eq!(
            (outcome.clone(), stats.sat_conflicts),
            (BmcOutcome::ResourceOut { depth: 20 }, 1000)
        );
        assert_eq!(outcome.cleared_depth(24), Some(19));
    }
}
