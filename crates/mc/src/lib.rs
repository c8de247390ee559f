//! # veridic-mc
//!
//! Model-checking engines over And-Inverter Graphs, scheduled by a
//! first-class **engine portfolio**:
//!
//! * **SAT BMC** — bounded unrolling for fast falsification and
//!   counterexample extraction (the "commercial tool" role).
//! * **k-induction** — SAT-based unbounded proof with simple-path
//!   strengthening.
//! * **POBDD UMC** — partitioned-OBDD reachability, the reproduction of
//!   the paper's in-house engine \[Jain, IWLS 2004\]: forward symbolic
//!   reachability with clustered transition relations and early
//!   quantification, per window of the state space (unbounded proof).
//! * **BDD UMC** — monolithic forward reachability: the same fixpoint
//!   with zero split variables, one window.
//!
//! Each engine implements the [`Engine`] trait; a [`Portfolio`] owns an
//! ordered policy over them. The default policy is the paper's cascade
//! (BMC → induction → BDD UMC → POBDD), and the flat [`check`] entry
//! point is a thin shim over it. Every engine loop cooperates with a
//! [`Budget`]/[`CancelToken`], and both BDD engines run one fixpoint,
//! [`reach_session`], which checkpoints its state through
//! `veridic_bdd::transfer`, so a run checked in budget slices
//! ([`Portfolio::check_bad_with_budget`], then
//! [`Portfolio::resume_bad_with_budget`]) reaches the same verdict as
//! an uninterrupted one. An induction proof stands on the depth BMC
//! cleared before it: induction tries only the k whose base case BMC
//! has shown.
//!
//! All engines run under **deterministic resource budgets** (BDD node
//! quotas, SAT conflict quotas, depth limits). Exhausting a budget yields
//! [`Verdict::ResourceOut`] — the reproducible analogue of the paper's
//! model-checker "time-out" that motivates divide-and-conquer property
//! partitioning (Fig. 7).
//!
//! Every [`Verdict::Falsified`] trace is **replayed on the AIG simulator**
//! before being returned; a trace that does not actually violate the
//! property is a checker bug and panics.
//!
//! ```
//! use veridic_aig::Aig;
//! use veridic_mc::{CheckOptions, Portfolio, Verdict};
//!
//! // A latch that is never true: proving `never q` succeeds.
//! let mut aig = Aig::new();
//! let (id, q) = aig.latch("q", false);
//! aig.set_next(id, q);
//! aig.add_bad("q_high", q);
//! let opts = CheckOptions::builder().pobdd_window_vars(1).build();
//! let result = Portfolio::default().check(&aig, &opts);
//! assert!(matches!(result.verdict, Verdict::Proved { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd_engine;
mod bmc;
mod checkpoint;
mod cone;
mod engine;
mod options;
mod pobdd;
mod portfolio;

pub use bdd_engine::{BddEngineOutcome, BuildError, TransitionSystem};
pub use bmc::{
    bmc_check, bmc_check_budgeted, induction_check, induction_check_budgeted, BmcOutcome,
    InductionOutcome,
};
pub use checkpoint::{CheckpointMisfit, EngineCheckpoint, ReachCheckpoint};
pub use cone::{ConeCache, ConeMiss};
pub use engine::{
    Budget, CancelToken, Engine, EngineCtx, EngineEvent, EngineId, EngineOutcome, EventOutcome,
    EventResources,
};
pub use options::{CheckOptions, CheckOptionsBuilder};
pub use pobdd::reach_session;
pub use portfolio::{
    BddUmcEngine, BmcEngine, InductionEngine, PobddEngine, Portfolio, PortfolioOutcome,
    RunCheckpoint, PREANALYSIS,
};

use veridic_aig::Aig;

/// A counterexample trace: per-cycle primary-input assignments starting
/// from the initial state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// `inputs[k][i]` is input `i`'s value in cycle `k` (indexed like
    /// [`Aig::inputs`]).
    pub inputs: Vec<Vec<bool>>,
    /// Index of the violated bad in [`Aig::bads`].
    pub bad_index: usize,
}

impl Trace {
    /// Length in cycles.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True if the trace has no cycles.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Replays the trace on `aig`; returns true iff the bad fires in the
    /// final cycle and every constraint holds in every cycle.
    pub fn replays_on(&self, aig: &Aig) -> bool {
        let reports = aig.simulate(&self.inputs);
        let Some(last) = reports.last() else {
            return false;
        };
        reports.iter().all(|r| r.constraints_ok) && last.bads[self.bad_index]
    }
}

/// The verdict of a property check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds on all reachable states.
    Proved {
        /// Engine that concluded ("bmc-induction", "bdd-umc", "pobdd-umc").
        engine: &'static str,
    },
    /// The property is violated; a replayed counterexample is attached.
    Falsified(Trace),
    /// Every configured engine exhausted its budget.
    ResourceOut {
        /// Human-readable account of what ran out.
        reason: String,
    },
}

impl Verdict {
    /// True for [`Verdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved { .. })
    }

    /// True for [`Verdict::Falsified`].
    pub fn is_falsified(&self) -> bool {
        matches!(self, Verdict::Falsified(_))
    }
}

/// Statistics of the static pre-analysis stage
/// ([`CheckOptions::preanalysis`]): how many bads it swept, what it
/// folded, and how many properties it concluded without an engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreanalysisStats {
    /// Bads the ternary sweep ran on (every checked bad when the stage
    /// is enabled; resumed bads are not double-counted).
    pub bads_analyzed: usize,
    /// Sequentially-stuck latches found (summed over bads; a latch in
    /// several bad cones counts once per cone, like the COI stats).
    pub stuck_latches: usize,
    /// AND nodes eliminated by constant folding (summed over bads).
    pub folded_ands: usize,
    /// Bads concluded statically — vacuous proofs and trivial
    /// falsifications — with **zero** engine invocations.
    pub vacuous: usize,
}

/// Cone-of-influence size of one checked bad, recorded per bad so
/// multi-bad checks don't smear (the summary fields used to be
/// overwritten by whichever bad was checked last).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadCoiStats {
    /// Name of the bad (from [`Aig::bads`]).
    pub bad: String,
    /// Latches in this bad's cone of influence.
    pub latches: usize,
    /// ANDs in this bad's cone of influence.
    pub ands: usize,
}

/// Per-check statistics for reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckStats {
    /// The typed engine log: every engine attempt, in schedule order,
    /// with its bad-output attribution, outcome and resource deltas.
    /// Replaces the old stringly-typed `engines_tried: Vec<String>`
    /// field; the legacy strings are [`CheckStats::engines_tried`]
    /// away.
    pub events: Vec<EngineEvent>,
    /// AIG latches after cone-of-influence reduction: the **maximum**
    /// over all checked bads (see [`CheckStats::per_bad_coi`] for the
    /// per-bad breakdown).
    pub coi_latches: usize,
    /// AIG ANDs after COI (maximum over all checked bads).
    pub coi_ands: usize,
    /// Per-bad COI sizes, in check order.
    pub per_bad_coi: Vec<BadCoiStats>,
    /// What the static pre-analysis stage swept, folded and concluded
    /// (all zero when [`CheckOptions::preanalysis`] is off).
    pub preanalysis: PreanalysisStats,
    /// Peak **live** BDD nodes (if a BDD engine ran): the garbage
    /// collector's high-water mark, recorded on every exit path
    /// including quota-exhausted transition-system builds.
    pub bdd_nodes: usize,
    /// Total BDD nodes ever allocated across BDD engine runs
    /// (GC-independent; `bdd_allocated > bdd_nodes` measures how much
    /// garbage collection reclaimed).
    pub bdd_allocated: u64,
    /// Number of times a BDD engine hit the node quota (build or run).
    pub bdd_quota_hits: usize,
    /// Total SAT conflicts (across all SAT calls).
    pub sat_conflicts: u64,
    /// Reachability rounds **completed** by the concluding BDD engine.
    /// A round that concludes the check (fixpoint or falsification)
    /// counts as completed; a round aborted by the node quota does not
    /// — both engines follow this convention, so a quota failure during
    /// the depth-d image reports d-1 everywhere.
    pub iterations: usize,
    /// Total hyperedge span of the natural variable order, recorded by
    /// the FORCE static-order pass ([`CheckOptions::static_order`]).
    /// Zero when the pass is off — the pass makes no calls at all then,
    /// keeping off-runs byte-identical to previous releases.
    pub static_order_span_before: u64,
    /// Total hyperedge span of the adopted FORCE order (paired with
    /// [`CheckStats::static_order_span_before`]: the ratio is the
    /// locality the static order bought before the first image).
    pub static_order_span_after: u64,
}

impl CheckStats {
    /// Renders the event log as the historical `engines_tried` strings
    /// (`"<bad>/<engine>: <outcome>"`, in schedule order) — the exact
    /// text Tables 2/3 and the Fig. 7 demos have always printed.
    pub fn engines_tried(&self) -> Vec<String> {
        self.events.iter().map(EngineEvent::render).collect()
    }
}

/// The result of [`check`]: verdict plus statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics.
    pub stats: CheckStats,
}

/// Checks every bad of `aig` (each separately; first failure wins) under
/// the given budgets.
///
/// A thin compatibility shim over [`Portfolio::check`] with the default
/// policy — COI reduction → BMC (falsification) → k-induction (proof) →
/// BDD forward UMC → POBDD UMC. Engines that exhaust their budget hand
/// over to the next; if all do, the result is [`Verdict::ResourceOut`].
/// Prefer holding a [`Portfolio`] when checking many properties (the
/// policy is built once; [`Portfolio::check_bad`] checks one bad) or
/// when budgets/checkpoints are needed.
///
/// # Panics
///
/// Panics if an engine returns a counterexample that does not replay on
/// the AIG (a checker bug, never a property of the design).
pub fn check(aig: &Aig, opts: &CheckOptions) -> CheckResult {
    Portfolio::default().check(aig, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::Aig;

    /// n-bit counter with a bad at a given count value.
    fn counter_aig(bits: u32, bad_at: u64) -> Aig {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = veridic_aig::Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        let hit: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, (_, q))| if bad_at >> i & 1 == 1 { *q } else { !*q })
            .collect();
        let bad = g.and_many(hit);
        g.add_bad(format!("count_is_{bad_at}"), bad);
        g
    }

    #[test]
    fn counter_reaches_its_values() {
        // 4-bit counter reaches 9 at depth 9.
        let g = counter_aig(4, 9);
        let r = check(&g, &CheckOptions::default());
        match r.verdict {
            Verdict::Falsified(t) => assert_eq!(t.len(), 10, "count 9 first true in cycle 9"),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_bad_is_proved() {
        let mut g = Aig::new();
        let (l0, q0) = g.latch("b0", false);
        g.set_next(l0, !q0);
        let (l1, q1) = g.latch("b1", false);
        let n1 = g.xor(q1, q0);
        g.set_next(l1, n1);
        let (l2, q2) = g.latch("stuck", false);
        g.set_next(l2, q2); // stays 0
        g.add_bad("stuck_high", q2);
        let r = check(&g, &CheckOptions::default());
        assert!(matches!(r.verdict, Verdict::Proved { .. }), "{r:?}");
    }

    #[test]
    fn constraints_block_counterexamples() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        g.set_next(id, a);
        g.add_bad("q_high", q);
        g.add_constraint("a_low", !a);
        let r = check(&g, &CheckOptions::default());
        assert!(matches!(r.verdict, Verdict::Proved { .. }), "{r:?}");
        // Without the constraint it must be falsified at depth 1.
        let mut g2 = Aig::new();
        let a = g2.input("a");
        let (id, q) = g2.latch("q", false);
        g2.set_next(id, a);
        g2.add_bad("q_high", q);
        let r2 = check(&g2, &CheckOptions::default());
        match r2.verdict {
            Verdict::Falsified(t) => {
                assert_eq!(t.len(), 2);
                assert!(t.inputs[0][0], "input must be driven high in cycle 0");
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_resources_out_on_wide_counter() {
        // A 24-bit counter needs 2^24-1 steps to reach all-ones: both BMC
        // (depth 4) and the BDD engine (64 iterations) run out.
        let g = counter_aig(24, (1 << 24) - 1);
        let r = check(&g, &CheckOptions::tiny_budget());
        assert!(matches!(r.verdict, Verdict::ResourceOut { .. }), "{r:?}");
    }

    #[test]
    fn engines_agree_on_verdicts() {
        for bad_at in [0u64, 3, 7, 12] {
            let g = counter_aig(4, bad_at);
            let sat = check(
                &g,
                &CheckOptions {
                    sat_only: true,
                    ..Default::default()
                },
            );
            let bdd = check(
                &g,
                &CheckOptions {
                    bdd_only: true,
                    ..Default::default()
                },
            );
            match (&sat.verdict, &bdd.verdict) {
                (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                    assert_eq!(a.len(), b.len(), "cex depth must agree at bad_at={bad_at}");
                }
                (a, b) => panic!("disagreement at bad_at={bad_at}: {a:?} vs {b:?}"),
            }
        }
    }

    /// Regression: `check()` used to overwrite `coi_latches`/`coi_ands`
    /// per bad (last checked wins) and left `engines_tried` entries
    /// unattributed, so a multi-bad property's stats described whichever
    /// bad happened to be checked last. The fix records per-bad COI
    /// sizes, max-aggregates the summary, and prefixes engine entries
    /// with the bad name.
    #[test]
    fn multi_bad_stats_are_attributed_per_bad() {
        // Bad 0: a 3-latch false shift register (3-latch cone, proved).
        // Bad 1: a single stuck latch (1-latch cone, proved).
        let mut g = Aig::new();
        let (a0, q0) = g.latch("a0", false);
        g.set_next(a0, q0); // stuck false
        let (a1, q1) = g.latch("a1", false);
        g.set_next(a1, q0);
        let (a2, q2) = g.latch("a2", false);
        g.set_next(a2, q1);
        g.add_bad("chain_high", q2);
        let (s, qs) = g.latch("stuck", false);
        g.set_next(s, qs);
        g.add_bad("stuck_high", qs);
        let r = check(&g, &CheckOptions::default());
        assert!(
            matches!(r.verdict, Verdict::Proved { .. }),
            "{:?}",
            r.verdict
        );
        // Per-bad COI breakdown, in check order.
        assert_eq!(r.stats.per_bad_coi.len(), 2);
        assert_eq!(r.stats.per_bad_coi[0].bad, "chain_high");
        assert_eq!(r.stats.per_bad_coi[0].latches, 3);
        assert_eq!(r.stats.per_bad_coi[1].bad, "stuck_high");
        assert_eq!(r.stats.per_bad_coi[1].latches, 1);
        // Summary is the max over bads — the old code reported the last
        // checked bad's 1-latch cone here.
        assert_eq!(r.stats.coi_latches, 3);
        // Engine attempts are attributed to their bad — both in the
        // typed event log and in its legacy rendering.
        assert!(!r.stats.events.is_empty());
        for ev in &r.stats.events {
            assert!(
                ev.bad == "chain_high" || ev.bad == "stuck_high",
                "unattributed engine event: {ev:?}"
            );
        }
        let rendered = r.stats.engines_tried();
        for e in &rendered {
            assert!(
                e.starts_with("chain_high/") || e.starts_with("stuck_high/"),
                "unattributed engine entry: {e}"
            );
        }
        assert!(rendered.iter().any(|e| e.starts_with("chain_high/")));
        assert!(rendered.iter().any(|e| e.starts_with("stuck_high/")));
    }

    #[test]
    fn multi_bad_check_reports_first_failure() {
        let mut g = counter_aig(3, 7);
        // Add a second, unreachable bad: count 7 with bit pattern... use a
        // stuck latch.
        let (l, q) = g.latch("never", false);
        g.set_next(l, q);
        g.add_bad("never_high", q);
        let r = check(&g, &CheckOptions::default());
        match r.verdict {
            Verdict::Falsified(t) => assert_eq!(t.bad_index, 0),
            other => panic!("expected falsification, got {other:?}"),
        }
    }
}
