//! The portfolio scheduler: an ordered, per-engine-budgeted policy over
//! [`Engine`] implementations, with a typed event log and
//! checkpoint/resume.
//!
//! [`Portfolio::default`] reproduces the historical hard-coded cascade
//! exactly — BMC → k-induction → BDD UMC → POBDD UMC, gated by the
//! `bdd_only`/`sat_only`/`pobdd_window_vars` options — verdicts, stats
//! and rendered event strings included. Beyond the cascade it adds what
//! the flat `check()` entry point never could:
//!
//! * **custom policies** — any ordering of any [`Engine`]
//!   implementations, each with an optional round cap
//!   ([`Portfolio::with_budgeted`]), so a scheduler can say "give BMC
//!   10 frames, then go straight to the BDD engines";
//! * **cooperative interruption** — a [`Budget`] (round limit and/or
//!   [`CancelToken`]) threaded into every engine loop;
//! * **resumable runs** — when the budget trips, the run suspends into
//!   a [`RunCheckpoint`] carrying the engine's serialized state (BDD
//!   reached/frontier sets travel through [`veridic_bdd::transfer`]'s
//!   level-ordered export) and [`Portfolio::resume`] continues it with
//!   identical verdicts.

use crate::bmc::{self, BmcOutcome, InductionOutcome};
use crate::checkpoint::EngineCheckpoint;
use crate::engine::{
    Budget, Engine, EngineCtx, EngineEvent, EngineId, EngineOutcome, EventOutcome, EventResources,
};
use crate::{
    bdd_engine, pobdd, BadCoiStats, CheckOptions, CheckResult, CheckStats, Trace, Verdict,
};
use veridic_aig::analyze::{fold_constants, ternary_sweep, ternary_sweep_constrained, Ternary};
use veridic_aig::Aig;

/// Display name of the static pre-analysis stage in event logs and
/// proof attributions (`"<bad>/preanalysis: proved"`).
pub const PREANALYSIS: &str = "preanalysis";

// ---------------------------------------------------------------------
// The four built-in engines.
// ---------------------------------------------------------------------

/// SAT bounded model checking: fast falsification up to
/// [`CheckOptions::bmc_depth`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcEngine;

impl Engine for BmcEngine {
    fn id(&self) -> EngineId {
        EngineId::Bmc
    }

    fn supports(&self, _aig: &Aig) -> bool {
        true
    }

    fn enabled(&self, opts: &CheckOptions) -> bool {
        !opts.bdd_only
    }

    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome {
        let min_depth = match ctx.resume {
            Some(EngineCheckpoint::Bmc { next_depth }) => *next_depth,
            _ => 0,
        };
        match bmc::bmc_check_budgeted(
            ctx.aig,
            min_depth,
            ctx.opts.bmc_depth,
            ctx.opts.sat_conflicts,
            ctx.stats,
            ctx.budget,
        ) {
            BmcOutcome::Falsified(t) => EngineOutcome::Falsified(t),
            BmcOutcome::NoCounterexample => EngineOutcome::Inconclusive,
            BmcOutcome::ResourceOut => EngineOutcome::ResourceOut {
                reason: format!("BMC conflict budget ({})", ctx.opts.sat_conflicts),
            },
            BmcOutcome::Suspended { next_depth } => {
                EngineOutcome::Suspended(EngineCheckpoint::Bmc { next_depth })
            }
        }
    }
}

/// SAT k-induction: unbounded proof up to
/// [`CheckOptions::induction_depth`].
#[derive(Clone, Copy, Debug, Default)]
pub struct InductionEngine;

impl Engine for InductionEngine {
    fn id(&self) -> EngineId {
        EngineId::Induction
    }

    fn supports(&self, _aig: &Aig) -> bool {
        true
    }

    fn enabled(&self, opts: &CheckOptions) -> bool {
        !opts.bdd_only
    }

    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome {
        let min_k = match ctx.resume {
            Some(EngineCheckpoint::Induction { next_k }) => *next_k,
            _ => 1,
        };
        match bmc::induction_check_budgeted(
            ctx.aig,
            min_k,
            ctx.opts.induction_depth,
            ctx.opts.simple_path,
            ctx.opts.sat_conflicts,
            ctx.stats,
            ctx.budget,
        ) {
            InductionOutcome::Proved(k) => EngineOutcome::Proved { k: Some(k) },
            InductionOutcome::Unknown => EngineOutcome::Inconclusive,
            InductionOutcome::ResourceOut => {
                EngineOutcome::ResourceOut { reason: "induction conflict budget".into() }
            }
            InductionOutcome::Suspended { next_k } => {
                EngineOutcome::Suspended(EngineCheckpoint::Induction { next_k })
            }
        }
    }
}

/// Monolithic BDD forward reachability under the live-node quota.
#[derive(Clone, Copy, Debug, Default)]
pub struct BddUmcEngine;

impl Engine for BddUmcEngine {
    fn id(&self) -> EngineId {
        EngineId::BddUmc
    }

    fn supports(&self, _aig: &Aig) -> bool {
        true
    }

    fn enabled(&self, opts: &CheckOptions) -> bool {
        !opts.sat_only
    }

    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome {
        let resume = match ctx.resume {
            Some(EngineCheckpoint::Reach(r)) => Some(r),
            _ => None,
        };
        match bdd_engine::bdd_umc_session(
            ctx.aig,
            ctx.opts.bdd_nodes,
            ctx.opts.max_iterations,
            ctx.opts.static_order,
            ctx.stats,
            ctx.budget,
            resume,
        ) {
            bdd_engine::BddEngineOutcome::Proved => EngineOutcome::Proved { k: None },
            bdd_engine::BddEngineOutcome::FalsifiedAtDepth(k) => {
                EngineOutcome::FalsifiedAtDepth(k)
            }
            bdd_engine::BddEngineOutcome::ResourceOut => EngineOutcome::ResourceOut {
                reason: format!("BDD node quota ({})", ctx.opts.bdd_nodes),
            },
            bdd_engine::BddEngineOutcome::Suspended(ck) => {
                EngineOutcome::Suspended(EngineCheckpoint::Reach(ck))
            }
            bdd_engine::BddEngineOutcome::Yielded => EngineOutcome::Yielded,
        }
    }
}

/// Partitioned-OBDD reachability (the paper's in-house engine) over
/// [`CheckOptions::pobdd_window_vars`] splitting variables.
#[derive(Clone, Copy, Debug, Default)]
pub struct PobddEngine;

impl Engine for PobddEngine {
    fn id(&self) -> EngineId {
        EngineId::PobddUmc
    }

    fn supports(&self, _aig: &Aig) -> bool {
        true
    }

    fn enabled(&self, opts: &CheckOptions) -> bool {
        !opts.sat_only && opts.pobdd_window_vars > 0
    }

    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome {
        let resume = match ctx.resume {
            Some(EngineCheckpoint::Reach(r)) => Some(r),
            _ => None,
        };
        match pobdd::pobdd_reach_session(
            ctx.aig,
            ctx.opts.pobdd_window_vars,
            ctx.opts.bdd_nodes,
            ctx.opts.max_iterations,
            ctx.opts.static_order,
            ctx.stats,
            ctx.budget,
            resume,
        ) {
            bdd_engine::BddEngineOutcome::Proved => EngineOutcome::Proved { k: None },
            bdd_engine::BddEngineOutcome::FalsifiedAtDepth(k) => {
                EngineOutcome::FalsifiedAtDepth(k)
            }
            bdd_engine::BddEngineOutcome::ResourceOut => {
                EngineOutcome::ResourceOut { reason: "POBDD node quota".into() }
            }
            bdd_engine::BddEngineOutcome::Suspended(ck) => {
                EngineOutcome::Suspended(EngineCheckpoint::Reach(ck))
            }
            bdd_engine::BddEngineOutcome::Yielded => EngineOutcome::Yielded,
        }
    }
}

// ---------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------

/// One slot of a portfolio policy: an engine plus an optional cap on
/// the budget rounds it may consume per run before the scheduler moves
/// on to the next slot.
struct EngineSlot {
    engine: Box<dyn Engine>,
    rounds: Option<u64>,
}

/// A suspended portfolio run: everything [`Portfolio::resume`] needs to
/// continue where the budget tripped — which bad, which engine slot,
/// the engine's serialized state, the statistics (event log included)
/// accumulated so far, and the resource-out reasons already collected
/// for the suspended bad.
///
/// Owns plain data only (the BDD state travels as
/// [`veridic_bdd::transfer::ExportedBdd`]), so it is `Send` and can
/// outlive every manager of the original run.
#[derive(Clone, Debug)]
pub struct RunCheckpoint {
    /// Index of the bad the run was suspended on (earlier bads proved).
    pub bad_index: usize,
    /// Index of the suspended engine in the portfolio's slot order.
    pub slot: usize,
    /// The engine's resumable state.
    pub state: EngineCheckpoint,
    /// Statistics at suspension; resume continues accumulating here.
    pub stats: CheckStats,
    /// Resource-out reasons collected for the suspended bad's earlier
    /// engines (they feed the final verdict if nothing concludes).
    pub reasons: Vec<String>,
}

/// What a budgeted portfolio run produced: a finished [`CheckResult`]
/// or a [`RunCheckpoint`] to resume from.
#[derive(Clone, Debug)]
pub enum PortfolioOutcome {
    /// The run concluded.
    Done(CheckResult),
    /// The budget tripped; resume with [`Portfolio::resume`].
    Suspended(RunCheckpoint),
}

impl PortfolioOutcome {
    /// Unwraps the finished result; panics on a suspension.
    pub fn expect_done(self, msg: &str) -> CheckResult {
        match self {
            PortfolioOutcome::Done(r) => r,
            PortfolioOutcome::Suspended(_) => panic!("{msg}"),
        }
    }

    /// The checkpoint, if the run suspended.
    pub fn into_checkpoint(self) -> Option<RunCheckpoint> {
        match self {
            PortfolioOutcome::Done(_) => None,
            PortfolioOutcome::Suspended(ck) => Some(ck),
        }
    }
}

/// An ordered, per-engine-budgeted verification policy.
///
/// The default value is the paper's cascade (see the module docs);
/// [`Portfolio::empty`] + [`Portfolio::with`] build custom policies,
/// including ones over user-implemented [`Engine`]s. A portfolio is
/// `Send + Sync` and is shared by reference across campaign worker
/// threads — it owns no per-run state.
pub struct Portfolio {
    slots: Vec<EngineSlot>,
}

impl Default for Portfolio {
    /// The historical cascade: BMC → k-induction → BDD UMC → POBDD UMC,
    /// every slot unbudgeted (the options' own depth/conflict/node
    /// limits are the only resource bounds, exactly as before).
    fn default() -> Self {
        Portfolio::empty()
            .with(Box::new(BmcEngine))
            .with(Box::new(InductionEngine))
            .with(Box::new(BddUmcEngine))
            .with(Box::new(PobddEngine))
    }
}

impl Portfolio {
    /// A policy with no engines; chain [`Portfolio::with`] /
    /// [`Portfolio::with_budgeted`] to populate it.
    pub fn empty() -> Self {
        Portfolio { slots: Vec::new() }
    }

    /// Appends an engine with no per-slot round cap.
    #[must_use]
    pub fn with(mut self, engine: Box<dyn Engine>) -> Self {
        self.slots.push(EngineSlot { engine, rounds: None });
        self
    }

    /// Appends an engine capped at `rounds` budget rounds per run; when
    /// the cap trips the scheduler records a suspension event and moves
    /// on to the next slot (the run as a whole keeps going).
    #[must_use]
    pub fn with_budgeted(mut self, engine: Box<dyn Engine>, rounds: u64) -> Self {
        self.slots.push(EngineSlot { engine, rounds: Some(rounds) });
        self
    }

    /// The policy's engine identities, in schedule order.
    pub fn engine_ids(&self) -> Vec<EngineId> {
        self.slots.iter().map(|s| s.engine.id()).collect()
    }

    /// Number of engine slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the policy has no engines.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Checks every bad of `aig` (each separately; first failure wins)
    /// under the given budgets, unbudgeted — the drop-in replacement
    /// for the legacy `check()` cascade.
    ///
    /// # Panics
    ///
    /// Panics if an engine returns a counterexample that does not
    /// replay on the AIG (a checker bug, never a property of the
    /// design).
    pub fn check(&self, aig: &Aig, opts: &CheckOptions) -> CheckResult {
        self.run_with_budget(aig, opts, &mut Budget::unlimited())
            .expect_done("an unlimited budget cannot suspend")
    }

    /// Checks a single bad (by index into [`Aig::bads`]), accumulating
    /// into `stats` — the drop-in replacement for the legacy
    /// `check_one`.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`].
    pub fn check_bad(
        &self,
        aig: &Aig,
        bad_index: usize,
        opts: &CheckOptions,
        stats: &mut CheckStats,
    ) -> Verdict {
        match self.check_bad_inner(aig, bad_index, opts, stats, &mut Budget::unlimited(), None) {
            Ok(verdict) => verdict,
            Err(_) => unreachable!("an unlimited budget cannot suspend"),
        }
    }

    /// Runs the full multi-bad check under a cooperative [`Budget`].
    /// When the budget trips (round limit reached or the paired
    /// [`crate::CancelToken`] cancelled), the run suspends into a
    /// [`RunCheckpoint`] instead of finishing.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`].
    pub fn run_with_budget(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        budget: &mut Budget,
    ) -> PortfolioOutcome {
        self.drive(aig, opts, budget, CheckStats::default(), 0, None)
    }

    /// Continues a suspended run, unbudgeted (it will conclude).
    ///
    /// The AIG and options must be the ones the checkpoint was taken
    /// under; the window split and engine schedule are re-derived from
    /// them deterministically. For a BDD-engine checkpoint, verdict,
    /// falsification depth and completed-round counts are identical to
    /// an uninterrupted run (the reached/frontier sets travel in the
    /// checkpoint). A SAT-engine checkpoint is a cursor: the resumed
    /// run rebuilds a fresh solver — with a reset per-call conflict
    /// budget and without the first session's learned clauses — so a
    /// run whose binding constraint was `sat_conflicts` may conclude
    /// differently than if it had never been interrupted; the schedule
    /// (which depths/ks get queried) is still exact.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`]; additionally panics if the checkpoint
    /// does not fit this portfolio and AIG — a slot index out of
    /// range, a bad index the AIG does not have, or an engine-state
    /// variant the named slot's engine cannot consume (all the signs
    /// of a checkpoint resumed against the wrong run; silently
    /// continuing would produce wrong verdicts).
    pub fn resume(&self, aig: &Aig, opts: &CheckOptions, checkpoint: RunCheckpoint) -> PortfolioOutcome {
        self.resume_with_budget(aig, opts, checkpoint, &mut Budget::unlimited())
    }

    /// [`Portfolio::resume`] under a fresh cooperative budget — a run
    /// can be suspended and resumed any number of times.
    pub fn resume_with_budget(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        checkpoint: RunCheckpoint,
        budget: &mut Budget,
    ) -> PortfolioOutcome {
        self.validate_checkpoint(aig, opts, &checkpoint);
        let RunCheckpoint { bad_index, slot, state, stats, reasons } = checkpoint;
        self.drive(aig, opts, budget, stats, bad_index, Some((slot, state, reasons)))
    }

    /// Checks a **single** bad under a cooperative budget: the
    /// suspendable counterpart of [`Portfolio::check_bad`], and the
    /// primitive out-of-process campaign workers are built on — each
    /// property is one bad of a multi-bad unit AIG, checked in budget
    /// slices with the [`RunCheckpoint`] persisted between slices.
    ///
    /// `stats` seeds the run's statistics (normally
    /// `CheckStats::default()`); on suspension the accumulated stats
    /// travel inside the checkpoint, exactly as in
    /// [`Portfolio::run_with_budget`]. A run driven to completion
    /// through any sequence of
    /// [`Portfolio::resume_bad_with_budget`] slices reaches the same
    /// verdict as an un-sliced [`Portfolio::check_bad`] (BDD state
    /// resumes exactly; see [`Portfolio::resume`] for the SAT-cursor
    /// caveat), with suspension events marking the slice boundaries.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`].
    pub fn check_bad_with_budget(
        &self,
        aig: &Aig,
        bad_index: usize,
        opts: &CheckOptions,
        stats: CheckStats,
        budget: &mut Budget,
    ) -> PortfolioOutcome {
        let mut stats = stats;
        match self.check_bad_inner(aig, bad_index, opts, &mut stats, budget, None) {
            Ok(verdict) => PortfolioOutcome::Done(CheckResult { verdict, stats }),
            Err((slot, state, reasons)) => {
                PortfolioOutcome::Suspended(RunCheckpoint { bad_index, slot, state, stats, reasons })
            }
        }
    }

    /// Continues a suspended **single-bad** run for one more budget
    /// slice. Unlike [`Portfolio::resume_with_budget`] it stops at the
    /// checkpoint's bad: a conclusion is returned as `Done` without
    /// rolling on to the AIG's later bads — the out-of-process campaign
    /// checks every property as its own single-bad run.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::resume`] (same checkpoint-compatibility
    /// validation).
    pub fn resume_bad_with_budget(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        checkpoint: RunCheckpoint,
        budget: &mut Budget,
    ) -> PortfolioOutcome {
        self.validate_checkpoint(aig, opts, &checkpoint);
        let RunCheckpoint { bad_index, slot, state, stats, reasons } = checkpoint;
        let mut stats = stats;
        match self.check_bad_inner(aig, bad_index, opts, &mut stats, budget, Some((slot, state, reasons)))
        {
            Ok(verdict) => PortfolioOutcome::Done(CheckResult { verdict, stats }),
            Err((slot, state, reasons)) => {
                PortfolioOutcome::Suspended(RunCheckpoint { bad_index, slot, state, stats, reasons })
            }
        }
    }

    /// The resume-compatibility guard shared by every resume entry
    /// point: a checkpoint must name a slot this portfolio has, a bad
    /// the AIG has, an engine state the named slot can consume, and a
    /// slot still enabled under the options — all the signs of a
    /// checkpoint resumed against the wrong run, where silently
    /// continuing would produce wrong verdicts.
    fn validate_checkpoint(&self, aig: &Aig, opts: &CheckOptions, checkpoint: &RunCheckpoint) {
        let (slot, bad_index, state) = (checkpoint.slot, checkpoint.bad_index, &checkpoint.state);
        assert!(slot < self.slots.len(), "checkpoint slot {slot} out of range");
        assert!(
            bad_index < aig.bads().len(),
            "checkpoint bad index {bad_index} out of range: the AIG has {} bads — \
             resume must be given the AIG the run was suspended on",
            aig.bads().len()
        );
        let slot_id = self.slots[slot].engine.id();
        let compatible = match (state, slot_id) {
            (EngineCheckpoint::Bmc { .. }, EngineId::Bmc) => true,
            (EngineCheckpoint::Induction { .. }, EngineId::Induction) => true,
            (EngineCheckpoint::Reach(_), EngineId::BddUmc | EngineId::PobddUmc) => true,
            // Custom engines define their own checkpoint discipline
            // over the closed `EngineCheckpoint` variants, so a custom
            // slot accepts any of them — which also means this guard
            // cannot catch a wrong-portfolio resume that happens to
            // land on a custom slot; the slot-index and bad-index
            // asserts are the only protection there.
            (_, EngineId::Custom(_)) => true,
            _ => false,
        };
        assert!(
            compatible,
            "checkpoint state does not fit slot {slot} ({slot_id}) — \
             resume must be given the portfolio the run was suspended under"
        );
        assert!(
            self.slots[slot].engine.enabled(opts),
            "checkpoint slot {slot} ({slot_id}) is disabled under these options — \
             resume must be given the options the run was suspended under"
        );
    }

    /// The multi-bad loop shared by fresh and resumed runs.
    fn drive(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        budget: &mut Budget,
        mut stats: CheckStats,
        first_bad: usize,
        mut resume: Option<(usize, EngineCheckpoint, Vec<String>)>,
    ) -> PortfolioOutcome {
        for bad_index in first_bad..aig.bads().len() {
            let resumed = resume.take();
            match self.check_bad_inner(aig, bad_index, opts, &mut stats, budget, resumed) {
                Ok(Verdict::Proved { .. }) => continue,
                Ok(other) => {
                    return PortfolioOutcome::Done(CheckResult { verdict: other, stats })
                }
                Err((slot, state, reasons)) => {
                    return PortfolioOutcome::Suspended(RunCheckpoint {
                        bad_index,
                        slot,
                        state,
                        stats,
                        reasons,
                    })
                }
            }
        }
        PortfolioOutcome::Done(CheckResult {
            verdict: Verdict::Proved { engine: "portfolio" },
            stats,
        })
    }

    /// Schedules the slots over one bad. `Ok` is a verdict; `Err` is a
    /// suspension `(slot, engine checkpoint, reasons so far)`.
    #[allow(clippy::type_complexity)]
    fn check_bad_inner(
        &self,
        aig: &Aig,
        bad_index: usize,
        opts: &CheckOptions,
        stats: &mut CheckStats,
        budget: &mut Budget,
        resume: Option<(usize, EngineCheckpoint, Vec<String>)>,
    ) -> Result<Verdict, (usize, EngineCheckpoint, Vec<String>)> {
        // Cone of influence: bad + all constraints (constraints must
        // keep their meaning on every path).
        let bad = aig.bads()[bad_index].lit;
        let mut roots = vec![bad];
        roots.extend(aig.constraints().iter().map(|c| c.lit));
        let coi = aig.extract_coi(&roots);
        let mut sub = coi.aig;
        let bad_name = aig.bads()[bad_index].name.clone();
        sub.add_bad(bad_name.clone(), coi.roots[0]);
        for (i, c) in aig.constraints().iter().enumerate() {
            sub.add_constraint(c.name.clone(), coi.roots[1 + i]);
        }
        // Per-bad COI sizes: the summary fields aggregate by max so a
        // multi-bad check reports its hardest cone instead of whichever
        // bad happened to be checked last. A resumed bad recorded its
        // entry in the original session.
        if resume.is_none() {
            stats.coi_latches = stats.coi_latches.max(sub.num_latches());
            stats.coi_ands = stats.coi_ands.max(sub.num_ands());
            stats.per_bad_coi.push(BadCoiStats {
                bad: bad_name.clone(),
                latches: sub.num_latches(),
                ands: sub.num_ands(),
            });
        }

        // Static pre-analysis: ternary constant sweep over the cone.
        // Statically-constant bads/constraints conclude right here with
        // zero engine invocations; stuck latches are folded out of the
        // AIG every engine sees. When the sweep finds nothing stuck the
        // fold is skipped entirely and the engines run on `sub`
        // unchanged — which is what keeps preanalysis-on byte-identical
        // to preanalysis-off on designs with nothing to fold. Resumed
        // bads re-derive the same fold deterministically (their
        // checkpoints were taken against the folded AIG) but do not
        // re-count the stats, mirroring the COI accounting above.
        let folded = if opts.preanalysis {
            let sweep = ternary_sweep(&sub);
            if resume.is_none() {
                stats.preanalysis.bads_analyzed += 1;
                stats.preanalysis.stuck_latches += sweep.stuck_count();
            }
            let pre_event = |stats: &mut CheckStats, outcome: EventOutcome| {
                stats.events.push(EngineEvent {
                    bad: bad_name.clone(),
                    engine: EngineId::Custom(PREANALYSIS),
                    outcome,
                    resources: EventResources::default(),
                });
            };
            let bad_value = sweep.lit_value(sub.bads()[0].lit);
            let constraint_values: Vec<Ternary> =
                sub.constraints().iter().map(|c| sweep.lit_value(c.lit)).collect();
            // A constant-false bad can never fire; a constant-false
            // constraint leaves no valid path at all. Either way the
            // property holds on every reachable constrained state.
            if bad_value == Ternary::False
                || constraint_values.contains(&Ternary::False)
            {
                stats.preanalysis.vacuous += 1;
                pre_event(stats, EventOutcome::Proved);
                return Ok(Verdict::Proved { engine: PREANALYSIS });
            }
            // A constant-true bad fires in the initial state under any
            // inputs; when every constraint is constant-true as well,
            // any single-cycle trace is a counterexample. (If some
            // constraint is X the engines must pick the inputs.)
            if bad_value == Ternary::True
                && constraint_values.iter().all(|v| *v == Ternary::True)
            {
                stats.preanalysis.vacuous += 1;
                let full = Trace { inputs: vec![vec![false; aig.num_inputs()]], bad_index };
                assert!(full.replays_on(aig), "preanalysis counterexample failed replay");
                pre_event(stats, EventOutcome::FalsifiedAtDepth(0));
                return Ok(Verdict::Falsified(full));
            }
            // Constraint-aware refinement: re-run the sweep with every
            // constant-true constraint literal *forced* into the
            // lattice (`ternary_sweep_constrained`). One-sided by
            // design: forcing only ever strengthens the Proved
            // direction — a contradiction inside the forced closure, a
            // bad pinned false under the constraints, or a constraint
            // pinned false all mean no constrained path reaches the
            // bad. It is never used to fabricate a counterexample; the
            // depth-0 falsification above deliberately requires the
            // *unconstrained* sweep to pin everything, so traces stay
            // engine-built whenever a constraint is X.
            if !sub.constraints().is_empty() {
                let cs = ternary_sweep_constrained(&sub);
                let vacuous = cs.contradiction
                    || cs.sweep.lit_value(sub.bads()[0].lit) == Ternary::False
                    || sub
                        .constraints()
                        .iter()
                        .any(|c| cs.sweep.lit_value(c.lit) == Ternary::False);
                if vacuous {
                    stats.preanalysis.vacuous += 1;
                    pre_event(stats, EventOutcome::Proved);
                    return Ok(Verdict::Proved { engine: PREANALYSIS });
                }
            }
            match fold_constants(&sub, &sweep) {
                Some(fold) => {
                    if resume.is_none() {
                        stats.preanalysis.folded_ands += fold.folded_ands;
                    }
                    Some(fold.aig)
                }
                None => None,
            }
        } else {
            None
        };
        // The AIG the engines run on: folded when the sweep found
        // stuck latches, the COI cone otherwise. The fold preserves
        // all inputs in creation order, so `expand_trace` below works
        // unchanged on traces from either.
        let engine_aig: &Aig = folded.as_ref().unwrap_or(&sub);

        // Map a trace on the reduced AIG back to the full input space.
        let expand_trace = |t: Trace| -> Trace {
            let mut full = vec![vec![false; aig.num_inputs()]; t.inputs.len()];
            for (old_var, new_var) in &coi.input_map {
                let old_idx = aig.input_index(*old_var).expect("input var"); // lint: allow
                let new_idx = sub.input_index(*new_var).expect("mapped input var"); // lint: allow
                for (dst, src) in full.iter_mut().zip(&t.inputs) {
                    dst[old_idx] = src[new_idx];
                }
            }
            Trace { inputs: full, bad_index }
        };

        let (first_slot, mut engine_resume, mut reasons) = match resume {
            Some((slot, state, reasons)) => (slot, Some(state), reasons),
            None => (0, None, Vec::new()),
        };

        for (slot_index, slot) in self.slots.iter().enumerate().skip(first_slot) {
            let engine = slot.engine.as_ref();
            if !engine.enabled(opts) || !engine.supports(engine_aig) {
                continue;
            }
            let id = engine.id();
            let sat_before = stats.sat_conflicts;
            let alloc_before = stats.bdd_allocated;
            let mut eng_budget = budget.child(slot.rounds);
            let resume_state = engine_resume.take();
            let outcome = {
                let mut ctx = EngineCtx {
                    aig: engine_aig,
                    bad_name: &bad_name,
                    opts,
                    budget: &mut eng_budget,
                    stats,
                    resume: resume_state.as_ref(),
                };
                engine.run(&mut ctx)
            };
            let rounds = eng_budget.used();
            budget.charge(rounds);
            let resources = EventResources {
                sat_conflicts: stats.sat_conflicts - sat_before,
                bdd_allocated: stats.bdd_allocated - alloc_before,
                bdd_peak_live: stats.bdd_nodes,
                rounds,
            };
            let push = |stats: &mut CheckStats, outcome: EventOutcome| {
                stats.events.push(EngineEvent {
                    bad: bad_name.clone(),
                    engine: id,
                    outcome,
                    resources,
                });
            };
            match outcome {
                EngineOutcome::Proved { k } => {
                    let event = match k {
                        Some(k) => EventOutcome::ProvedAtK(k),
                        None => EventOutcome::Proved,
                    };
                    push(stats, event);
                    return Ok(Verdict::Proved { engine: id.proved_name() });
                }
                EngineOutcome::Falsified(t) => {
                    let full = expand_trace(t);
                    assert!(
                        full.replays_on(aig),
                        "{} counterexample failed replay",
                        replay_blame(id)
                    );
                    push(stats, EventOutcome::Falsified);
                    return Ok(Verdict::Falsified(full));
                }
                EngineOutcome::FalsifiedAtDepth(k) => {
                    push(stats, EventOutcome::FalsifiedAtDepth(k));
                    // Extract the trace with a depth-pinned BMC run.
                    match bmc::bmc_check(engine_aig, k, k, u64::MAX, stats) {
                        BmcOutcome::Falsified(t) => {
                            let full = expand_trace(t);
                            assert!(
                                full.replays_on(aig),
                                "{} counterexample failed replay",
                                replay_blame(id)
                            );
                            return Ok(Verdict::Falsified(full));
                        }
                        other => panic!(
                            "{} reported depth-{k} violation but BMC disagrees: {other:?}",
                            extraction_blame(id)
                        ),
                    }
                }
                EngineOutcome::Inconclusive => {
                    let event = match id {
                        EngineId::Bmc => EventOutcome::CleanToDepth(opts.bmc_depth),
                        _ => EventOutcome::Inconclusive,
                    };
                    push(stats, event);
                }
                EngineOutcome::ResourceOut { reason } => {
                    push(stats, EventOutcome::ResourceOut);
                    reasons.push(reason);
                }
                EngineOutcome::Suspended(state) => {
                    push(stats, EventOutcome::Suspended);
                    if budget.is_exhausted() {
                        // The run-wide budget (or its cancel token)
                        // tripped: suspend the whole run, resumably.
                        return Err((slot_index, state, reasons));
                    }
                    // Only this slot's round cap tripped: hand over to
                    // the next engine, like a resource-out with a
                    // budget-flavored reason. The engine checkpoint is
                    // dropped — the policy chose breadth over depth.
                    // (Engines with expensive checkpoints detect this
                    // case themselves via `checkpoint_worthwhile` and
                    // return `Yielded` below instead.)
                    reasons.push(format!("{id} round budget"));
                }
                EngineOutcome::Yielded => {
                    // Slot-cap handover with no checkpoint built.
                    push(stats, EventOutcome::Suspended);
                    reasons.push(format!("{id} round budget"));
                }
            }
        }

        Ok(Verdict::ResourceOut {
            reason: if reasons.is_empty() {
                "no engine concluded within its budget".to_string()
            } else {
                reasons.join("; ")
            },
        })
    }
}

/// The historical replay-assertion attribution for the built-in
/// engines.
fn replay_blame(id: EngineId) -> &'static str {
    match id {
        EngineId::Bmc => "BMC",
        EngineId::Induction => "induction",
        EngineId::BddUmc => "BDD",
        EngineId::PobddUmc => "POBDD",
        EngineId::Custom(name) => name,
    }
}

/// The historical "engine reported depth-k but BMC disagrees"
/// attribution (`"BDD engine"` for the monolithic engine, `"POBDD"`
/// for the partitioned one).
fn extraction_blame(id: EngineId) -> &'static str {
    match id {
        EngineId::BddUmc => "BDD engine",
        EngineId::PobddUmc => "POBDD",
        other => other.as_str(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use veridic_aig::Lit;

    /// Adds a `bits`-wide ripple counter to `g`; returns the state
    /// literals.
    fn add_counter(g: &mut Aig, bits: u32) -> Vec<Lit> {
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        qs.into_iter().map(|(_, q)| q).collect()
    }

    /// The literal "counter state equals `at`".
    fn count_is(g: &mut Aig, qs: &[Lit], at: u64) -> Lit {
        let hit: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| if at >> i & 1 == 1 { *q } else { !*q })
            .collect();
        g.and_many(hit)
    }

    fn counter_aig(bits: u32, bad_at: u64) -> Aig {
        let mut g = Aig::new();
        let qs = add_counter(&mut g, bits);
        let bad = count_is(&mut g, &qs, bad_at);
        g.add_bad(format!("count_is_{bad_at}"), bad);
        g
    }

    /// Portfolio self-consistency on one design: repeated runs are
    /// deterministic down to every statistic, and the SAT-only and
    /// BDD-only halves of the portfolio agree with the full cascade on
    /// verdict and counterexample depth. (The pre-redesign cascade this
    /// used to diff against byte-for-byte was retired after PR 5; the
    /// determinism half of that contract lives on here, the
    /// cross-engine half in `tests/portfolio_equivalence.rs`.)
    fn assert_self_consistent(aig: &Aig, opts: &CheckOptions) {
        let first = Portfolio::default().check(aig, opts);
        let again = Portfolio::default().check(aig, opts);
        assert_eq!(first.verdict, again.verdict);
        assert_eq!(first.stats, again.stats, "repeat runs must be deterministic");
        if !(opts.bdd_only || opts.sat_only) {
            for restricted in [
                CheckOptions { bdd_only: true, ..opts.clone() },
                CheckOptions { sat_only: true, ..opts.clone() },
            ] {
                let half = Portfolio::default().check(aig, &restricted);
                match (&first.verdict, &half.verdict) {
                    (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                        assert_eq!(a.len(), b.len(), "cex depth must agree");
                        assert_eq!(a.bad_index, b.bad_index);
                    }
                    (Verdict::Proved { .. }, Verdict::Proved { .. }) => {}
                    // A half-portfolio has fewer engines than the full
                    // cascade, so running out of budget is consistent
                    // with any full-cascade outcome.
                    (_, Verdict::ResourceOut { .. }) => {}
                    (a, b) => panic!("portfolio halves disagree: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn default_policy_is_deterministic_and_self_consistent() {
        for bad_at in [0u64, 5, 9] {
            let g = counter_aig(4, bad_at);
            assert_self_consistent(&g, &CheckOptions::default());
        }
        // Resource-out path (tiny budget on a wide counter).
        let g = counter_aig(24, (1 << 24) - 1);
        let r = Portfolio::default().check(&g, &CheckOptions::tiny_budget());
        assert!(matches!(r.verdict, Verdict::ResourceOut { .. }), "{:?}", r.verdict);
        assert_self_consistent(&g, &CheckOptions::tiny_budget());
    }

    #[test]
    fn default_policy_schedule_is_the_paper_cascade() {
        assert_eq!(
            Portfolio::default().engine_ids(),
            vec![EngineId::Bmc, EngineId::Induction, EngineId::BddUmc, EngineId::PobddUmc]
        );
    }

    /// A custom engine that concludes instantly, and one whose
    /// `supports` declines the AIG (it must be skipped without a
    /// trace in the event log).
    #[test]
    fn custom_engines_schedule_and_skip() {
        struct InstantProof;
        impl Engine for InstantProof {
            fn id(&self) -> EngineId {
                EngineId::Custom("oracle")
            }
            fn supports(&self, _aig: &Aig) -> bool {
                true
            }
            fn run(&self, _ctx: &mut EngineCtx<'_>) -> EngineOutcome {
                EngineOutcome::Proved { k: None }
            }
        }
        struct NeverApplies;
        impl Engine for NeverApplies {
            fn id(&self) -> EngineId {
                EngineId::Custom("picky")
            }
            fn supports(&self, _aig: &Aig) -> bool {
                false
            }
            fn run(&self, _ctx: &mut EngineCtx<'_>) -> EngineOutcome {
                panic!("unsupported engines must not run")
            }
        }
        let g = counter_aig(3, 7);
        let portfolio =
            Portfolio::empty().with(Box::new(NeverApplies)).with(Box::new(InstantProof));
        let mut stats = CheckStats::default();
        let verdict = portfolio.check_bad(&g, 0, &CheckOptions::default(), &mut stats);
        assert_eq!(verdict, Verdict::Proved { engine: "oracle" });
        assert_eq!(stats.events.len(), 1, "the skipped engine leaves no event");
        assert_eq!(stats.events[0].engine, EngineId::Custom("oracle"));
        assert_eq!(stats.engines_tried(), vec!["count_is_7/oracle: proved".to_string()]);
        // The multi-bad entry point aggregates proofs as "portfolio",
        // exactly like the legacy cascade.
        let r = portfolio.check(&g, &CheckOptions::default());
        assert_eq!(r.verdict, Verdict::Proved { engine: "portfolio" });
    }

    /// A per-slot round cap is a handover, not a run suspension: the
    /// capped engine logs a suspension event and the cascade continues
    /// to a conclusive verdict.
    #[test]
    fn slot_budget_hands_over_to_next_engine() {
        let g = counter_aig(4, 9);
        // BMC capped at 2 depths (the bug is at depth 9): it suspends,
        // the BDD engine concludes.
        let portfolio = Portfolio::empty()
            .with_budgeted(Box::new(BmcEngine), 2)
            .with(Box::new(BddUmcEngine));
        let r = portfolio.check(&g, &CheckOptions::default());
        assert!(r.verdict.is_falsified(), "{:?}", r.verdict);
        let rendered = r.stats.engines_tried();
        assert_eq!(rendered[0], "count_is_9/bmc: suspended");
        assert_eq!(rendered[1], "count_is_9/bdd-umc: bad reachable at depth 9");
        assert_eq!(r.stats.events[0].resources.rounds, 2, "the cap bounds the rounds");

        // A capped *BDD* slot yields (no checkpoint is built for a
        // handover the scheduler would discard) and the next engine
        // still concludes.
        let opts = CheckOptions::builder().bdd_only(true).build();
        let capped = Portfolio::empty()
            .with_budgeted(Box::new(PobddEngine), 3)
            .with(Box::new(BddUmcEngine));
        let r = capped.check(&g, &opts);
        assert!(r.verdict.is_falsified(), "{:?}", r.verdict);
        let rendered = r.stats.engines_tried();
        assert_eq!(rendered[0], "count_is_9/pobdd-umc: suspended");
        assert_eq!(rendered[1], "count_is_9/bdd-umc: bad reachable at depth 9");
    }

    /// Global-budget suspension and resume: verdict, falsification
    /// depth and completed-round count must equal an uninterrupted run.
    #[test]
    fn killed_bdd_umc_resumes_identically() {
        let g = counter_aig(6, 50);
        let opts = CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build();
        let portfolio = Portfolio::default();
        let uninterrupted = portfolio.check(&g, &opts);

        let suspended = portfolio.run_with_budget(&g, &opts, &mut Budget::rounds(20));
        let ck = match suspended {
            PortfolioOutcome::Suspended(ck) => ck,
            PortfolioOutcome::Done(r) => panic!("20 rounds must not conclude: {:?}", r.verdict),
        };
        assert_eq!(ck.state.reach_depth(), Some(20), "suspended after 20 completed rounds");
        assert_eq!(ck.stats.iterations, 20);

        let resumed = portfolio
            .resume(&g, &opts, ck)
            .expect_done("unbudgeted resume concludes");
        assert_eq!(resumed.verdict, uninterrupted.verdict);
        match (&resumed.verdict, &uninterrupted.verdict) {
            (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                assert_eq!(a.len(), b.len(), "falsification depth must survive the kill")
            }
            other => panic!("expected falsifications, got {other:?}"),
        }
        assert_eq!(resumed.stats.iterations, uninterrupted.stats.iterations);
        // The event log shows the interruption: suspended, then the
        // final conclusion from the same engine.
        let rendered = resumed.stats.engines_tried();
        assert!(rendered.contains(&"count_is_50/bdd-umc: suspended".to_string()), "{rendered:?}");
        assert!(
            rendered.contains(&"count_is_50/bdd-umc: bad reachable at depth 50".to_string()),
            "{rendered:?}"
        );
    }

    /// A run can be suspended and resumed repeatedly, and a proof (not
    /// just a falsification) survives the interruptions.
    #[test]
    fn repeated_suspension_still_proves() {
        // Counter + stuck latch: the bad needs both (so COI reduction
        // keeps the counter) but is unreachable (stuck stays 0); the
        // fixpoint takes 2^4 rounds.
        let mut g = Aig::new();
        let qs = add_counter(&mut g, 4);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        let full = count_is(&mut g, &qs, 15);
        let bad = g.and(s, full);
        g.add_bad("never", bad);
        // Preanalysis would conclude this stuck-latch design instantly;
        // this test is about the suspension machinery, so switch it off.
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .preanalysis(false)
            .build();
        let portfolio = Portfolio::default();
        let uninterrupted = portfolio.check(&g, &opts);
        assert!(uninterrupted.verdict.is_proved());

        let mut outcome = portfolio.run_with_budget(&g, &opts, &mut Budget::rounds(3));
        let mut hops = 0;
        let resumed = loop {
            match outcome {
                PortfolioOutcome::Done(r) => break r,
                PortfolioOutcome::Suspended(ck) => {
                    hops += 1;
                    assert!(hops < 100, "resume must make progress");
                    outcome = portfolio.resume_with_budget(&g, &opts, ck, &mut Budget::rounds(3));
                }
            }
        };
        assert!(hops >= 2, "the tiny budget must suspend repeatedly (got {hops})");
        assert_eq!(resumed.verdict, uninterrupted.verdict);
        assert_eq!(resumed.stats.iterations, uninterrupted.stats.iterations);
    }

    /// A pre-cancelled token suspends before the first round, and the
    /// checkpoint still resumes to the right verdict.
    #[test]
    fn cancel_token_suspends_resumably() {
        let g = counter_aig(5, 21);
        let opts = CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build();
        let portfolio = Portfolio::default();
        let token = CancelToken::new();
        token.cancel();
        let mut budget = Budget::unlimited().with_cancel(&token);
        let ck = portfolio
            .run_with_budget(&g, &opts, &mut budget)
            .into_checkpoint()
            .expect("cancelled run suspends");
        assert_eq!(ck.state.reach_depth(), Some(0), "no round ran");
        let resumed = portfolio.resume(&g, &opts, ck).expect_done("resume concludes");
        match resumed.verdict {
            Verdict::Falsified(t) => assert_eq!(t.len(), 22),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    /// Suspension inside the *SAT* engines checkpoints a cursor: BMC
    /// resumes at its next depth and still finds the bug at the same
    /// depth.
    #[test]
    fn killed_bmc_resumes_at_next_depth() {
        let g = counter_aig(4, 9);
        let opts = CheckOptions::default();
        let portfolio = Portfolio::default();
        let ck = portfolio
            .run_with_budget(&g, &opts, &mut Budget::rounds(4))
            .into_checkpoint()
            .expect("4 rounds cannot reach depth 9");
        assert_eq!(ck.state, EngineCheckpoint::Bmc { next_depth: 4 });
        let resumed = portfolio.resume(&g, &opts, ck).expect_done("resume concludes");
        match resumed.verdict {
            Verdict::Falsified(t) => assert_eq!(t.len(), 10),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    /// A checkpoint resumed against the wrong portfolio must fail loud
    /// (a reordered policy would silently mis-schedule otherwise).
    #[test]
    #[should_panic(expected = "does not fit slot")]
    fn resume_rejects_mismatched_portfolio() {
        let g = counter_aig(6, 50);
        let opts = CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build();
        let ck = Portfolio::default()
            .run_with_budget(&g, &opts, &mut Budget::rounds(5))
            .into_checkpoint()
            .expect("5 rounds must suspend");
        // Same slot count, different order: slot 2 is now induction.
        let reordered = Portfolio::empty()
            .with(Box::new(BddUmcEngine))
            .with(Box::new(BmcEngine))
            .with(Box::new(InductionEngine))
            .with(Box::new(PobddEngine));
        let _ = reordered.resume(&g, &opts, ck);
    }

    /// A checkpoint resumed against the wrong AIG must fail loud (the
    /// suspended bad index no longer exists → spurious proof).
    #[test]
    #[should_panic(expected = "bad index")]
    fn resume_rejects_mismatched_aig() {
        // Two bads: a stuck latch (proved) then a deep counter value
        // (suspends), so the checkpoint's bad index is 1.
        let mut g = Aig::new();
        let qs = add_counter(&mut g, 5);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        g.add_bad("never", s);
        let deep = count_is(&mut g, &qs, 21);
        g.add_bad("count_is_21", deep);
        let opts = CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build();
        let portfolio = Portfolio::default();
        let ck = portfolio
            .run_with_budget(&g, &opts, &mut Budget::rounds(10))
            .into_checkpoint()
            .expect("the deep bad suspends");
        let other = counter_aig(4, 9); // one bad only
        let _ = portfolio.resume(&other, &opts, ck);
    }

    /// The vacuity short-circuit: a statically-constant bad concludes
    /// with zero engine invocations — the event log shows a single
    /// zero-round preanalysis entry and the stats report the vacuous
    /// verdict plus the folded-latch count.
    #[test]
    fn preanalysis_concludes_vacuous_bad_without_engines() {
        // bad = stuck0 AND full-count: the sweep pins stuck0 at 0, so
        // the bad is constant false however deep the counter runs.
        let mut g = Aig::new();
        let qs = add_counter(&mut g, 4);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        let full = count_is(&mut g, &qs, 15);
        let bad = g.and(s, full);
        g.add_bad("never", bad);
        let r = Portfolio::default().check(&g, &CheckOptions::default());
        assert_eq!(r.verdict, Verdict::Proved { engine: "portfolio" });
        assert_eq!(r.stats.events.len(), 1, "no engine may run: {:?}", r.stats.events);
        assert_eq!(r.stats.events[0].engine, EngineId::Custom(PREANALYSIS));
        assert_eq!(r.stats.events[0].resources.rounds, 0);
        assert_eq!(r.stats.events[0].resources.sat_conflicts, 0);
        assert_eq!(r.stats.events[0].resources.bdd_allocated, 0);
        assert_eq!(r.stats.engines_tried(), vec!["never/preanalysis: proved".to_string()]);
        assert_eq!(r.stats.preanalysis.vacuous, 1);
        assert_eq!(r.stats.preanalysis.bads_analyzed, 1);
        assert_eq!(r.stats.preanalysis.stuck_latches, 1, "the stuck latch is counted");
        assert_eq!(r.stats.sat_conflicts, 0);
        assert_eq!(r.stats.bdd_allocated, 0);
        assert_eq!(r.stats.iterations, 0);
        // The single-bad entry point attributes the proof to the stage.
        let mut stats = CheckStats::default();
        let verdict =
            Portfolio::default().check_bad(&g, 0, &CheckOptions::default(), &mut stats);
        assert_eq!(verdict, Verdict::Proved { engine: PREANALYSIS });
    }

    /// A constant-**true** bad (under constant-true-or-absent
    /// constraints) is trivially falsified at depth 0, again with zero
    /// engine invocations, and the replayed trace is a real one.
    #[test]
    fn preanalysis_trivially_falsifies_constant_true_bad() {
        let mut g = Aig::new();
        let _x = g.input("x");
        let (l, s) = g.latch("stuck1", true);
        g.set_next(l, s);
        g.add_bad("always", s);
        let r = Portfolio::default().check(&g, &CheckOptions::default());
        match &r.verdict {
            Verdict::Falsified(t) => {
                assert_eq!(t.len(), 1, "depth-0 counterexample");
                assert!(t.replays_on(&g));
            }
            other => panic!("expected falsification, got {other:?}"),
        }
        assert_eq!(r.stats.events.len(), 1);
        assert_eq!(
            r.stats.engines_tried(),
            vec!["always/preanalysis: bad at depth 0".to_string()]
        );
        assert_eq!(r.stats.preanalysis.vacuous, 1);
    }

    /// A constant-false constraint makes every property vacuous: no
    /// valid path exists, so the bad is proved without an engine.
    #[test]
    fn preanalysis_proves_under_constant_false_constraint() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (l, s) = g.latch("stuck0", false);
        g.set_next(l, s);
        let (ql, q) = g.latch("q", false);
        g.set_next(ql, a);
        g.add_bad("q_high", q);
        g.add_constraint("impossible", s);
        let r = Portfolio::default().check(&g, &CheckOptions::default());
        assert_eq!(r.verdict, Verdict::Proved { engine: "portfolio" });
        assert_eq!(r.stats.events.len(), 1);
        assert_eq!(r.stats.events[0].engine, EngineId::Custom(PREANALYSIS));
        assert_eq!(r.stats.preanalysis.vacuous, 1);
    }

    /// When the bad is constant-true but a constraint is *not* statically
    /// constant, preanalysis must NOT fabricate a trace — the engines
    /// pick inputs that satisfy the constraint.
    #[test]
    fn preanalysis_defers_constrained_trivial_bads_to_engines() {
        let mut g = Aig::new();
        let a = g.input("a");
        let (l, s) = g.latch("stuck1", true);
        g.set_next(l, s);
        g.add_bad("always", s);
        g.add_constraint("a_high", a);
        let r = Portfolio::default().check(&g, &CheckOptions::default());
        match &r.verdict {
            Verdict::Falsified(t) => {
                assert!(t.replays_on(&g));
                assert!(t.inputs[0][0], "the constraint forces a=1");
            }
            other => panic!("expected falsification, got {other:?}"),
        }
        assert!(
            r.stats.events.iter().all(|e| e.engine != EngineId::Custom(PREANALYSIS)),
            "no preanalysis conclusion when a constraint is X: {:?}",
            r.stats.events
        );
    }

    /// Folding a stuck latch out of a live property changes neither the
    /// verdict nor the falsification depth nor the iteration counts
    /// relative to preanalysis-off — and on designs with nothing to
    /// fold the whole stats block is identical.
    #[test]
    fn preanalysis_folding_is_verdict_and_depth_neutral() {
        // bad = count_is(9) OR stuck0: the stuck leg folds away, the
        // counter leg is live at depth 9.
        let mut g = Aig::new();
        let qs = add_counter(&mut g, 4);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        let hit = count_is(&mut g, &qs, 9);
        let bad = g.or(hit, s);
        g.add_bad("count_or_stuck", bad);
        let on = Portfolio::default().check(&g, &CheckOptions::default());
        let off = Portfolio::default()
            .check(&g, &CheckOptions::builder().preanalysis(false).build());
        match (&on.verdict, &off.verdict) {
            (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                assert_eq!(a.len(), b.len(), "folding must not move the depth");
                assert_eq!(a.bad_index, b.bad_index);
            }
            other => panic!("expected two falsifications, got {other:?}"),
        }
        assert_eq!(on.stats.iterations, off.stats.iterations);
        assert!(on.stats.preanalysis.stuck_latches >= 1);
        assert!(on.stats.preanalysis.folded_ands >= 1);
        assert_eq!(off.stats.preanalysis, crate::PreanalysisStats::default());

        // Nothing stuck → the identity fast-path: stats byte-identical
        // except the preanalysis counters themselves.
        let clean = counter_aig(4, 9);
        let on = Portfolio::default().check(&clean, &CheckOptions::default());
        let off = Portfolio::default()
            .check(&clean, &CheckOptions::builder().preanalysis(false).build());
        assert_eq!(on.verdict, off.verdict);
        let mut on_stats = on.stats.clone();
        on_stats.preanalysis = crate::PreanalysisStats::default();
        assert_eq!(on_stats, off.stats, "identity fast-path must be byte-identical");
    }

    /// Multi-bad runs resume past already-proved bads: the checkpoint
    /// records the bad index, and the resumed result covers the rest.
    #[test]
    fn multi_bad_resume_continues_from_suspended_bad() {
        // Bad 0: a stuck latch (proved quickly). Bad 1: deep counter
        // value (suspends under a small budget).
        let mut g = Aig::new();
        let qs = add_counter(&mut g, 5);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        g.add_bad("never", s);
        let deep = count_is(&mut g, &qs, 21);
        g.add_bad("count_is_21", deep);
        let opts = CheckOptions::builder().bdd_only(true).pobdd_window_vars(0).build();
        let portfolio = Portfolio::default();
        let ck = portfolio
            .run_with_budget(&g, &opts, &mut Budget::rounds(10))
            .into_checkpoint()
            .expect("the deep bad suspends");
        assert_eq!(ck.bad_index, 1, "bad 0 proved before the budget tripped");
        let resumed = portfolio.resume(&g, &opts, ck).expect_done("resume concludes");
        match &resumed.verdict {
            Verdict::Falsified(t) => {
                assert_eq!(t.bad_index, 1);
                assert_eq!(t.len(), 22);
            }
            other => panic!("expected falsification, got {other:?}"),
        }
        // The per-bad COI record is not duplicated by the resume.
        assert_eq!(resumed.stats.per_bad_coi.len(), 2);
    }
}
