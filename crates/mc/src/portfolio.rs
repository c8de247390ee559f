//! The portfolio scheduler: an ordered policy over [`Engine`]
//! implementations, with a typed event log and checkpoint/resume.
//!
//! [`Portfolio::default`] reproduces the historical hard-coded cascade
//! exactly — BMC → k-induction → BDD UMC → POBDD UMC, gated by the
//! `bdd_only`/`sat_only`/`pobdd_window_vars` options — verdicts, stats
//! and rendered event strings included. A portfolio schedules one bad
//! in one of two ways:
//!
//! * **whole** — [`Portfolio::check_bad`] (and [`Portfolio::check`],
//!   which calls it on every bad of the AIG in turn);
//! * **in budget slices** — [`Portfolio::check_bad_with_budget`] runs
//!   under a cooperative [`Budget`] (round limit and/or
//!   [`CancelToken`](crate::CancelToken)) threaded into every engine
//!   loop; when it trips, the run suspends into a [`RunCheckpoint`]
//!   carrying the engine's serialized state (BDD reached/frontier sets
//!   travel through [`veridic_bdd::transfer`]'s level-ordered export),
//!   and [`Portfolio::resume_bad_with_budget`] continues it for the
//!   next slice with identical verdicts.

use crate::bdd_engine::BddEngineOutcome;
use crate::bmc::{self, BmcOutcome, InductionOutcome};
use crate::checkpoint::{CheckpointMisfit, EngineCheckpoint};
use crate::cone::Cone;
use crate::engine::{
    Budget, Engine, EngineCtx, EngineEvent, EngineId, EngineOutcome, EventOutcome, EventResources,
};
use crate::{pobdd, BadCoiStats, CheckOptions, CheckResult, CheckStats, Trace, Verdict};
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
        let outcome = bmc::bmc_check_budgeted(
            ctx.aig,
            min_depth,
            ctx.opts.bmc_depth,
            ctx.opts.sat_conflicts,
            ctx.stats,
            ctx.budget,
        );
        ctx.cleared_depth = ctx
            .cleared_depth
            .max(outcome.cleared_depth(ctx.opts.bmc_depth));
        match outcome {
            BmcOutcome::Falsified(t) => EngineOutcome::Falsified(t),
            BmcOutcome::NoCounterexample => EngineOutcome::Inconclusive,
            BmcOutcome::ResourceOut { .. } => EngineOutcome::ResourceOut {
                reason: format!("BMC conflict budget ({})", ctx.opts.sat_conflicts),
            },
            BmcOutcome::Suspended { next_depth } => {
                EngineOutcome::Suspended(EngineCheckpoint::Bmc { next_depth })
            }
        }
    }
}

/// SAT k-induction: unbounded proof up to
/// [`CheckOptions::induction_depth`], and no deeper than the base case
/// an earlier engine established: only `k ≤ d + 1` for the run's
/// [`EngineCtx::cleared_depth`] `d`. With no depth cleared (no BMC ahead
/// of it, or BMC cleared nothing) it proves nothing and reports
/// inconclusive.
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
        // A step case at k needs the base case: no bad at depths 0..k.
        let max_k = ctx
            .cleared_depth
            .map_or(0, |d| ctx.opts.induction_depth.min(d.saturating_add(1)));
        match bmc::induction_check_budgeted(
            ctx.aig,
            min_k,
            max_k,
            ctx.opts.simple_path,
            ctx.opts.sat_conflicts,
            ctx.stats,
            ctx.budget,
        ) {
            InductionOutcome::Proved(k) => EngineOutcome::Proved { k: Some(k) },
            InductionOutcome::Unknown => EngineOutcome::Inconclusive,
            InductionOutcome::ResourceOut => EngineOutcome::ResourceOut {
                reason: "induction conflict budget".into(),
            },
            InductionOutcome::Suspended { next_k } => {
                EngineOutcome::Suspended(EngineCheckpoint::Induction { next_k })
            }
        }
    }
}

/// Monolithic BDD forward reachability under the live-node quota: the
/// reachability fixpoint with one window.
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
        let reason = format!("BDD node quota ({})", ctx.opts.bdd_nodes);
        run_reach(ctx, 0, reason)
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
        let window_vars = ctx.opts.pobdd_window_vars;
        run_reach(ctx, window_vars, "POBDD node quota".into())
    }
}

/// Runs the reachability fixpoint on `window_vars` split variables for
/// a BDD engine, resuming its checkpoint if the ctx has one; `reason`
/// is the engine's resource-out account.
fn run_reach(ctx: &mut EngineCtx<'_>, window_vars: u32, reason: String) -> EngineOutcome {
    let resume = match ctx.resume {
        Some(EngineCheckpoint::Reach(r)) => Some(r),
        _ => None,
    };
    match pobdd::reach_session(
        ctx.aig,
        window_vars,
        ctx.opts,
        ctx.stats,
        ctx.budget,
        resume,
    ) {
        BddEngineOutcome::Proved => EngineOutcome::Proved { k: None },
        BddEngineOutcome::FalsifiedAtDepth(k) => EngineOutcome::FalsifiedAtDepth(k),
        BddEngineOutcome::ResourceOut => EngineOutcome::ResourceOut { reason },
        BddEngineOutcome::Suspended(ck) => EngineOutcome::Suspended(EngineCheckpoint::Reach(ck)),
        BddEngineOutcome::Misfit(misfit) => EngineOutcome::Misfit(misfit),
    }
}

// ---------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------

/// A suspended portfolio run: everything
/// [`Portfolio::resume_bad_with_budget`] needs to continue where the
/// budget tripped — which bad, which engine slot, the engine's
/// serialized state, the statistics (event log included) accumulated so
/// far, the resource-out reasons already collected for the bad, and the
/// depth BMC has cleared.
///
/// Owns plain data only (the BDD state travels as
/// [`veridic_bdd::transfer::ExportedBdd`]), so it is `Send` and can
/// outlive every manager of the original run.
#[derive(Clone, Debug)]
pub struct RunCheckpoint {
    /// Index of the bad the run checks, into [`Aig::bads`].
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
    /// The depth the run has shown bad-free from the initial states
    /// ([`EngineCtx::cleared_depth`]), so an induction engine resumed in
    /// a later slice keeps to the base case BMC established.
    pub cleared_depth: Option<usize>,
}

/// Where a single-bad run stands between budget slices: the part of a
/// [`RunCheckpoint`] the scheduler continues from.
struct Cursor {
    slot: usize,
    state: EngineCheckpoint,
    reasons: Vec<String>,
    cleared_depth: Option<usize>,
}

/// What a budgeted portfolio run produced: a finished [`CheckResult`]
/// or a [`RunCheckpoint`] to resume from.
#[derive(Clone, Debug)]
pub enum PortfolioOutcome {
    /// The run concluded.
    Done(CheckResult),
    /// The budget tripped; resume with
    /// [`Portfolio::resume_bad_with_budget`].
    Suspended(RunCheckpoint),
}

/// An ordered verification policy.
///
/// The default value is the paper's cascade (see the module docs);
/// [`Portfolio::empty`] + [`Portfolio::with`] build custom policies,
/// including ones over user-implemented [`Engine`]s. A portfolio is
/// `Send + Sync` and is shared by reference across campaign worker
/// threads — it owns no per-run state.
pub struct Portfolio {
    slots: Vec<Box<dyn Engine>>,
}

impl Default for Portfolio {
    /// The historical cascade: BMC → k-induction → BDD UMC → POBDD UMC
    /// (the options' own depth/conflict/node limits are the only
    /// resource bounds, exactly as before).
    fn default() -> Self {
        Portfolio::empty()
            .with(Box::new(BmcEngine))
            .with(Box::new(InductionEngine))
            .with(Box::new(BddUmcEngine))
            .with(Box::new(PobddEngine))
    }
}

impl Portfolio {
    /// A policy with no engines; chain [`Portfolio::with`] to populate
    /// it.
    pub fn empty() -> Self {
        Portfolio { slots: Vec::new() }
    }

    /// Appends an engine.
    #[must_use]
    pub fn with(mut self, engine: Box<dyn Engine>) -> Self {
        self.slots.push(engine);
        self
    }

    /// The policy's engine identities, in schedule order.
    pub fn engine_ids(&self) -> Vec<EngineId> {
        self.slots.iter().map(|e| e.id()).collect()
    }

    /// Number of engine slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the policy has no engines.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Checks every bad of `aig` in turn with [`Portfolio::check_bad`],
    /// stopping at the first one that is not proved (that bad's verdict
    /// is the result); if every bad is proved the verdict is
    /// `Proved { engine: "portfolio" }`. The statistics accumulate over
    /// every bad checked.
    ///
    /// # Panics
    ///
    /// Panics if an engine returns a counterexample that does not
    /// replay on the AIG (a checker bug, never a property of the
    /// design).
    pub fn check(&self, aig: &Aig, opts: &CheckOptions) -> CheckResult {
        let mut stats = CheckStats::default();
        for bad_index in 0..aig.bads().len() {
            let verdict = self.check_bad(aig, bad_index, opts, &mut stats);
            if !verdict.is_proved() {
                return CheckResult { verdict, stats };
            }
        }
        CheckResult {
            verdict: Verdict::Proved {
                engine: "portfolio",
            },
            stats,
        }
    }

    /// Checks a single bad (by index into [`Aig::bads`]), unbudgeted,
    /// accumulating into `stats`.
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
        self.check_cone(aig, &Cone::of(aig, bad_index), opts, stats)
    }

    /// [`Portfolio::check_bad`] over the bad's cone, already extracted.
    pub(crate) fn check_cone(
        &self,
        aig: &Aig,
        cone: &Cone,
        opts: &CheckOptions,
        stats: &mut CheckStats,
    ) -> Verdict {
        match self.check_bad_inner(aig, cone, opts, stats, &mut Budget::unlimited(), None) {
            Ok(verdict) => verdict,
            Err(Halt::Suspended(..)) => unreachable!("an unlimited budget cannot suspend"),
            Err(Halt::Misfit(_)) => unreachable!("a fresh run has no checkpoint to refuse"),
        }
    }

    /// Checks a **single** bad under a cooperative [`Budget`]: the
    /// suspendable counterpart of [`Portfolio::check_bad`], and the
    /// primitive out-of-process campaign workers are built on — each
    /// property is one bad of a multi-bad unit AIG, checked in budget
    /// slices with the [`RunCheckpoint`] persisted between slices.
    ///
    /// When the budget trips (round limit reached or the paired
    /// [`crate::CancelToken`] cancelled), the run suspends into a
    /// [`RunCheckpoint`] carrying the statistics accumulated so far. A
    /// run driven to completion through any sequence of
    /// [`Portfolio::resume_bad_with_budget`] slices reaches the same
    /// verdict as an un-sliced [`Portfolio::check_bad`] (BDD state
    /// resumes exactly; see [`Portfolio::resume_bad_with_budget`] for
    /// the SAT-cursor caveat), with suspension events marking the
    /// slice boundaries.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`].
    pub fn check_bad_with_budget(
        &self,
        aig: &Aig,
        bad_index: usize,
        opts: &CheckOptions,
        budget: &mut Budget,
    ) -> PortfolioOutcome {
        match self.slice(aig, bad_index, opts, CheckStats::default(), budget, None) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("a fresh run has no checkpoint to refuse"),
        }
    }

    /// Continues a suspended run of [`Portfolio::check_bad_with_budget`]
    /// for one more budget slice; a run can be suspended and resumed
    /// any number of times.
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
    /// # Errors
    ///
    /// A [`CheckpointMisfit`] if the checkpoint does not fit this
    /// portfolio, AIG and options: a slot index out of range, a bad
    /// index the AIG does not have, an engine state the named slot's
    /// engine cannot take, a slot the options disable, or a BDD
    /// checkpoint on a window split the engine does not derive or with
    /// a node outside the system's variable space. These are the signs of a
    /// checkpoint resumed against another run, where continuing would
    /// give wrong verdicts. Nothing of the run has been resumed then,
    /// so the caller can start it afresh.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`].
    pub fn resume_bad_with_budget(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        checkpoint: RunCheckpoint,
        budget: &mut Budget,
    ) -> Result<PortfolioOutcome, CheckpointMisfit> {
        self.validate_checkpoint(aig, opts, &checkpoint)?;
        let RunCheckpoint {
            bad_index,
            slot,
            state,
            stats,
            reasons,
            cleared_depth,
        } = checkpoint;
        let cursor = Cursor {
            slot,
            state,
            reasons,
            cleared_depth,
        };
        self.slice(aig, bad_index, opts, stats, budget, Some(cursor))
    }

    /// One budget slice of a single-bad run, fresh or resumed.
    fn slice(
        &self,
        aig: &Aig,
        bad_index: usize,
        opts: &CheckOptions,
        mut stats: CheckStats,
        budget: &mut Budget,
        resume: Option<Cursor>,
    ) -> Result<PortfolioOutcome, CheckpointMisfit> {
        let cone = Cone::of(aig, bad_index);
        match self.check_bad_inner(aig, &cone, opts, &mut stats, budget, resume) {
            Ok(verdict) => Ok(PortfolioOutcome::Done(CheckResult { verdict, stats })),
            Err(Halt::Suspended(cursor)) => Ok(PortfolioOutcome::Suspended(RunCheckpoint {
                bad_index,
                slot: cursor.slot,
                state: cursor.state,
                stats,
                reasons: cursor.reasons,
                cleared_depth: cursor.cleared_depth,
            })),
            Err(Halt::Misfit(misfit)) => Err(misfit),
        }
    }

    /// The resume-compatibility guard of
    /// [`Portfolio::resume_bad_with_budget`]: a checkpoint must name a
    /// slot this portfolio has, a bad the AIG has, an engine state the
    /// named slot can take, and a slot still enabled under the options.
    /// The engine itself checks what only it can derive (a BDD window
    /// split and variable space).
    fn validate_checkpoint(
        &self,
        aig: &Aig,
        opts: &CheckOptions,
        checkpoint: &RunCheckpoint,
    ) -> Result<(), CheckpointMisfit> {
        let (slot, bad_index) = (checkpoint.slot, checkpoint.bad_index);
        let Some(engine) = self.slots.get(slot) else {
            return Err(CheckpointMisfit::SlotOutOfRange {
                slot,
                slots: self.slots.len(),
            });
        };
        if bad_index >= aig.bads().len() {
            return Err(CheckpointMisfit::BadOutOfRange {
                bad_index,
                bads: aig.bads().len(),
            });
        }
        let id = engine.id();
        let fits = match (&checkpoint.state, id) {
            (EngineCheckpoint::Bmc { .. }, EngineId::Bmc) => true,
            (EngineCheckpoint::Induction { .. }, EngineId::Induction) => true,
            (EngineCheckpoint::Reach(_), EngineId::BddUmc | EngineId::PobddUmc) => true,
            // A custom engine checks its own state: it answers
            // `EngineOutcome::Misfit` to one it cannot take.
            (_, EngineId::Custom(_)) => true,
            _ => false,
        };
        if !fits {
            return Err(CheckpointMisfit::WrongState { slot, engine: id });
        }
        if !engine.enabled(opts) {
            return Err(CheckpointMisfit::SlotDisabled { slot, engine: id });
        }
        Ok(())
    }

    /// Schedules the slots over one bad of `aig`, given its cone. `Ok`
    /// is a verdict.
    fn check_bad_inner(
        &self,
        aig: &Aig,
        cone: &Cone,
        opts: &CheckOptions,
        stats: &mut CheckStats,
        budget: &mut Budget,
        resume: Option<Cursor>,
    ) -> Result<Verdict, Halt> {
        let sub = &cone.aig;
        let bad_name = &sub.bads()[0].name;
        // Per-bad COI sizes: the summary fields aggregate by max so a
        // multi-bad check reports its hardest cone instead of whichever
        // bad happened to be checked last. A resumed run recorded its
        // entry in its first slice.
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
        // runs re-derive the same fold deterministically (their
        // checkpoints were taken against the folded AIG) but do not
        // re-count the stats, mirroring the COI accounting above.
        let folded = if opts.preanalysis {
            let sweep = ternary_sweep(sub);
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
            let constraint_values: Vec<Ternary> = sub
                .constraints()
                .iter()
                .map(|c| sweep.lit_value(c.lit))
                .collect();
            // A constant-false bad can never fire; a constant-false
            // constraint leaves no valid path at all. Either way the
            // property holds on every reachable constrained state.
            if bad_value == Ternary::False || constraint_values.contains(&Ternary::False) {
                stats.preanalysis.vacuous += 1;
                pre_event(stats, EventOutcome::Proved);
                return Ok(Verdict::Proved {
                    engine: PREANALYSIS,
                });
            }
            // A constant-true bad fires in the initial state under any
            // inputs; when every constraint is constant-true as well,
            // any single-cycle trace is a counterexample. (If some
            // constraint is X the engines must pick the inputs.)
            if bad_value == Ternary::True && constraint_values.iter().all(|v| *v == Ternary::True) {
                stats.preanalysis.vacuous += 1;
                let step = Trace {
                    inputs: vec![vec![false; sub.num_inputs()]],
                    bad_index: 0,
                };
                let full = cone.replayed(aig, &step, PREANALYSIS);
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
                let cs = ternary_sweep_constrained(sub);
                let vacuous = cs.contradiction
                    || cs.sweep.lit_value(sub.bads()[0].lit) == Ternary::False
                    || sub
                        .constraints()
                        .iter()
                        .any(|c| cs.sweep.lit_value(c.lit) == Ternary::False);
                if vacuous {
                    stats.preanalysis.vacuous += 1;
                    pre_event(stats, EventOutcome::Proved);
                    return Ok(Verdict::Proved {
                        engine: PREANALYSIS,
                    });
                }
            }
            match fold_constants(sub, &sweep) {
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
        // all inputs in creation order, so `Cone::replayed` maps traces
        // from either back to the full input space.
        let engine_aig: &Aig = folded.as_ref().unwrap_or(sub);

        let (first_slot, mut engine_resume, mut reasons, mut cleared_depth) = match resume {
            Some(c) => (c.slot, Some(c.state), c.reasons, c.cleared_depth),
            None => (0, None, Vec::new(), None),
        };

        for (slot_index, engine) in self.slots.iter().enumerate().skip(first_slot) {
            if !engine.enabled(opts) || !engine.supports(engine_aig) {
                continue;
            }
            let id = engine.id();
            let sat_before = stats.sat_conflicts;
            let alloc_before = stats.bdd_allocated;
            let mut eng_budget = budget.child();
            let resume_state = engine_resume.take();
            let outcome = {
                let mut ctx = EngineCtx {
                    aig: engine_aig,
                    bad_name,
                    opts,
                    budget: &mut eng_budget,
                    stats,
                    resume: resume_state.as_ref(),
                    cleared_depth,
                };
                let outcome = engine.run(&mut ctx);
                cleared_depth = ctx.cleared_depth;
                outcome
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
                    return Ok(Verdict::Proved {
                        engine: id.proved_name(),
                    });
                }
                EngineOutcome::Falsified(t) => {
                    let full = cone.replayed(aig, &t, replay_blame(id));
                    push(stats, EventOutcome::Falsified);
                    return Ok(Verdict::Falsified(full));
                }
                EngineOutcome::FalsifiedAtDepth(k) => {
                    push(stats, EventOutcome::FalsifiedAtDepth(k));
                    // Extract the trace with a depth-pinned BMC run.
                    match bmc::bmc_check(engine_aig, k, k, u64::MAX, stats) {
                        BmcOutcome::Falsified(t) => {
                            let full = cone.replayed(aig, &t, replay_blame(id));
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
                    return Err(Halt::Suspended(Box::new(Cursor {
                        slot: slot_index,
                        state,
                        reasons,
                        cleared_depth,
                    })));
                }
                EngineOutcome::Misfit(misfit) => {
                    assert!(
                        resume_state.is_some(),
                        "{id} refused a checkpoint it was not given"
                    );
                    return Err(Halt::Misfit(misfit));
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

/// Why [`Portfolio::check_bad_inner`] stopped without a verdict.
enum Halt {
    /// The budget tripped: where the run stands.
    Suspended(Box<Cursor>),
    /// The resumed engine refused its checkpoint.
    Misfit(CheckpointMisfit),
}

/// The historical replay-assertion attribution for the built-in
/// engines.
pub(crate) fn replay_blame(id: EngineId) -> &'static str {
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

    /// Bad 0: a stuck latch (proved at once). Bad 1: a 5-bit counter
    /// reaching 21 (depth 21, so small budgets suspend it).
    fn stuck_and_deep_aig() -> Aig {
        let mut g = Aig::new();
        let qs = add_counter(&mut g, 5);
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        g.add_bad("never", s);
        let deep = count_is(&mut g, &qs, 21);
        g.add_bad("count_is_21", deep);
        g
    }

    /// Resumes `ck` unbudgeted, which must conclude.
    fn resume_to_end(
        p: &Portfolio,
        g: &Aig,
        opts: &CheckOptions,
        ck: RunCheckpoint,
    ) -> CheckResult {
        match p.resume_bad_with_budget(g, opts, ck, &mut Budget::unlimited()) {
            Ok(PortfolioOutcome::Done(r)) => r,
            Ok(PortfolioOutcome::Suspended(ck)) => panic!("run suspended at slot {}", ck.slot),
            Err(misfit) => panic!("checkpoint refused: {misfit}"),
        }
    }

    fn suspended(outcome: PortfolioOutcome) -> RunCheckpoint {
        match outcome {
            PortfolioOutcome::Suspended(ck) => ck,
            PortfolioOutcome::Done(r) => panic!("run concluded: {:?}", r.verdict),
        }
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
        assert_eq!(
            first.stats, again.stats,
            "repeat runs must be deterministic"
        );
        if !(opts.bdd_only || opts.sat_only) {
            for restricted in [
                CheckOptions {
                    bdd_only: true,
                    ..opts.clone()
                },
                CheckOptions {
                    sat_only: true,
                    ..opts.clone()
                },
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
        assert!(
            matches!(r.verdict, Verdict::ResourceOut { .. }),
            "{:?}",
            r.verdict
        );
        assert_self_consistent(&g, &CheckOptions::tiny_budget());
    }

    #[test]
    fn default_policy_schedule_is_the_paper_cascade() {
        assert_eq!(
            Portfolio::default().engine_ids(),
            vec![
                EngineId::Bmc,
                EngineId::Induction,
                EngineId::BddUmc,
                EngineId::PobddUmc
            ]
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
        let portfolio = Portfolio::empty()
            .with(Box::new(NeverApplies))
            .with(Box::new(InstantProof));
        let mut stats = CheckStats::default();
        let verdict = portfolio.check_bad(&g, 0, &CheckOptions::default(), &mut stats);
        assert_eq!(verdict, Verdict::Proved { engine: "oracle" });
        assert_eq!(stats.events.len(), 1, "the skipped engine leaves no event");
        assert_eq!(stats.events[0].engine, EngineId::Custom("oracle"));
        assert_eq!(
            stats.engines_tried(),
            vec!["count_is_7/oracle: proved".to_string()]
        );
        // The multi-bad entry point aggregates proofs as "portfolio",
        // exactly like the legacy cascade.
        let r = portfolio.check(&g, &CheckOptions::default());
        assert_eq!(
            r.verdict,
            Verdict::Proved {
                engine: "portfolio"
            }
        );
    }

    /// Global-budget suspension and resume: verdict, falsification
    /// depth and completed-round count must equal an uninterrupted run.
    #[test]
    fn killed_bdd_umc_resumes_identically() {
        let g = counter_aig(6, 50);
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build();
        let portfolio = Portfolio::default();
        let uninterrupted = portfolio.check(&g, &opts);

        let ck = suspended(portfolio.check_bad_with_budget(&g, 0, &opts, &mut Budget::rounds(20)));
        assert_eq!(
            ck.state.reach_depth(),
            Some(20),
            "suspended after 20 completed rounds"
        );
        assert_eq!(ck.stats.iterations, 20);

        let resumed = resume_to_end(&portfolio, &g, &opts, ck);
        assert_eq!(resumed.verdict, uninterrupted.verdict);
        match (&resumed.verdict, &uninterrupted.verdict) {
            (Verdict::Falsified(a), Verdict::Falsified(b)) => {
                assert_eq!(
                    a.len(),
                    b.len(),
                    "falsification depth must survive the kill"
                )
            }
            other => panic!("expected falsifications, got {other:?}"),
        }
        assert_eq!(resumed.stats.iterations, uninterrupted.stats.iterations);
        // The event log shows the interruption: suspended, then the
        // final conclusion from the same engine.
        let rendered = resumed.stats.engines_tried();
        assert!(
            rendered.contains(&"count_is_50/bdd-umc: suspended".to_string()),
            "{rendered:?}"
        );
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
        let mut stats = CheckStats::default();
        let uninterrupted = portfolio.check_bad(&g, 0, &opts, &mut stats);
        assert!(uninterrupted.is_proved());

        let mut outcome = portfolio.check_bad_with_budget(&g, 0, &opts, &mut Budget::rounds(3));
        let mut hops = 0;
        let resumed = loop {
            match outcome {
                PortfolioOutcome::Done(r) => break r,
                PortfolioOutcome::Suspended(ck) => {
                    hops += 1;
                    assert!(hops < 100, "resume must make progress");
                    outcome = portfolio
                        .resume_bad_with_budget(&g, &opts, ck, &mut Budget::rounds(3))
                        .expect("the run's own checkpoint fits");
                }
            }
        };
        assert!(
            hops >= 2,
            "the tiny budget must suspend repeatedly (got {hops})"
        );
        assert_eq!(resumed.verdict, uninterrupted);
        assert_eq!(resumed.stats.iterations, stats.iterations);
    }

    /// A pre-cancelled token suspends before the first round, and the
    /// checkpoint still resumes to the right verdict.
    #[test]
    fn cancel_token_suspends_resumably() {
        let g = counter_aig(5, 21);
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build();
        let portfolio = Portfolio::default();
        let token = CancelToken::new();
        token.cancel();
        let mut budget = Budget::unlimited().with_cancel(&token);
        let ck = suspended(portfolio.check_bad_with_budget(&g, 0, &opts, &mut budget));
        assert_eq!(ck.state.reach_depth(), Some(0), "no round ran");
        let resumed = resume_to_end(&portfolio, &g, &opts, ck);
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
        let ck = suspended(portfolio.check_bad_with_budget(&g, 0, &opts, &mut Budget::rounds(4)));
        assert_eq!(ck.state, EngineCheckpoint::Bmc { next_depth: 4 });
        let resumed = resume_to_end(&portfolio, &g, &opts, ck);
        match resumed.verdict {
            Verdict::Falsified(t) => assert_eq!(t.len(), 10),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    /// A checkpoint resumed against the wrong portfolio is refused (a
    /// reordered policy would silently mis-schedule otherwise).
    #[test]
    fn resume_rejects_mismatched_portfolio() {
        let g = counter_aig(6, 50);
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build();
        let ck = suspended(Portfolio::default().check_bad_with_budget(
            &g,
            0,
            &opts,
            &mut Budget::rounds(5),
        ));
        // Same slot count, different order: slot 2 is now induction.
        let reordered = Portfolio::empty()
            .with(Box::new(BddUmcEngine))
            .with(Box::new(BmcEngine))
            .with(Box::new(InductionEngine))
            .with(Box::new(PobddEngine));
        let refused = reordered.resume_bad_with_budget(&g, &opts, ck, &mut Budget::unlimited());
        let misfit = CheckpointMisfit::WrongState {
            slot: 2,
            engine: EngineId::Induction,
        };
        assert_eq!(refused.err(), Some(misfit));
    }

    /// A checkpoint resumed against the wrong AIG is refused (the
    /// suspended bad index no longer exists → spurious proof).
    #[test]
    fn resume_rejects_mismatched_aig() {
        let g = stuck_and_deep_aig();
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build();
        let portfolio = Portfolio::default();
        let ck = suspended(portfolio.check_bad_with_budget(&g, 1, &opts, &mut Budget::rounds(10)));
        let other = counter_aig(4, 9); // one bad only
        let refused = portfolio.resume_bad_with_budget(&other, &opts, ck, &mut Budget::unlimited());
        assert_eq!(
            refused.err(),
            Some(CheckpointMisfit::BadOutOfRange {
                bad_index: 1,
                bads: 1
            })
        );
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
        assert_eq!(
            r.verdict,
            Verdict::Proved {
                engine: "portfolio"
            }
        );
        assert_eq!(
            r.stats.events.len(),
            1,
            "no engine may run: {:?}",
            r.stats.events
        );
        assert_eq!(r.stats.events[0].engine, EngineId::Custom(PREANALYSIS));
        assert_eq!(r.stats.events[0].resources.rounds, 0);
        assert_eq!(r.stats.events[0].resources.sat_conflicts, 0);
        assert_eq!(r.stats.events[0].resources.bdd_allocated, 0);
        assert_eq!(
            r.stats.engines_tried(),
            vec!["never/preanalysis: proved".to_string()]
        );
        assert_eq!(r.stats.preanalysis.vacuous, 1);
        assert_eq!(r.stats.preanalysis.bads_analyzed, 1);
        assert_eq!(
            r.stats.preanalysis.stuck_latches, 1,
            "the stuck latch is counted"
        );
        assert_eq!(r.stats.sat_conflicts, 0);
        assert_eq!(r.stats.bdd_allocated, 0);
        assert_eq!(r.stats.iterations, 0);
        // The single-bad entry point attributes the proof to the stage.
        let mut stats = CheckStats::default();
        let verdict = Portfolio::default().check_bad(&g, 0, &CheckOptions::default(), &mut stats);
        assert_eq!(
            verdict,
            Verdict::Proved {
                engine: PREANALYSIS
            }
        );
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
        assert_eq!(
            r.verdict,
            Verdict::Proved {
                engine: "portfolio"
            }
        );
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
            r.stats
                .events
                .iter()
                .all(|e| e.engine != EngineId::Custom(PREANALYSIS)),
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
        let off =
            Portfolio::default().check(&g, &CheckOptions::builder().preanalysis(false).build());
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
        let off =
            Portfolio::default().check(&clean, &CheckOptions::builder().preanalysis(false).build());
        assert_eq!(on.verdict, off.verdict);
        let mut on_stats = on.stats.clone();
        on_stats.preanalysis = crate::PreanalysisStats::default();
        assert_eq!(
            on_stats, off.stats,
            "identity fast-path must be byte-identical"
        );
    }

    /// A run on a later bad of a multi-bad AIG resumes on that bad:
    /// the checkpoint records the bad index, the resumed verdict is that
    /// bad's, and the resume does not add a second per-bad COI record.
    #[test]
    fn multi_bad_resume_continues_from_suspended_bad() {
        let g = stuck_and_deep_aig();
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build();
        let portfolio = Portfolio::default();
        let ck = suspended(portfolio.check_bad_with_budget(&g, 1, &opts, &mut Budget::rounds(10)));
        assert_eq!(ck.bad_index, 1);
        assert_eq!(ck.stats.per_bad_coi.len(), 1);
        let resumed = resume_to_end(&portfolio, &g, &opts, ck);
        match &resumed.verdict {
            Verdict::Falsified(t) => {
                assert_eq!(t.bad_index, 1);
                assert_eq!(t.len(), 22);
            }
            other => panic!("expected falsification, got {other:?}"),
        }
        assert_eq!(
            resumed.stats.per_bad_coi.len(),
            1,
            "the resume must not re-record the cone"
        );
        assert_eq!(resumed.stats.per_bad_coi[0].bad, "count_is_21");
    }
}
