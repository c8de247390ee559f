//! The typed engine abstraction of the verification portfolio: the
//! [`Engine`] trait the four built-in engines implement, the
//! cooperative [`Budget`]/[`CancelToken`] threaded through every engine
//! loop, and the structured [`EngineEvent`] log that replaced the
//! stringly-typed `engines_tried` vector.

use crate::checkpoint::{CheckpointMisfit, EngineCheckpoint};
use crate::{CheckOptions, CheckStats, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use veridic_aig::Aig;

/// Identity of a portfolio engine. The built-in four cover the paper's
/// tool mix; custom [`Engine`] implementations use [`EngineId::Custom`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineId {
    /// SAT bounded model checking (falsification).
    Bmc,
    /// SAT k-induction (proof).
    Induction,
    /// Monolithic BDD forward reachability (proof/falsification).
    BddUmc,
    /// Partitioned-OBDD reachability (proof/falsification).
    PobddUmc,
    /// A user-supplied engine; the string is its stable display name.
    Custom(&'static str),
}

impl EngineId {
    /// The short name used in event renderings (`"bmc"`, `"bdd-umc"`…).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineId::Bmc => "bmc",
            EngineId::Induction => "induction",
            EngineId::BddUmc => "bdd-umc",
            EngineId::PobddUmc => "pobdd-umc",
            EngineId::Custom(name) => name,
        }
    }

    /// The name a [`crate::Verdict::Proved`] carries when this engine
    /// concludes (the historical strings: induction proofs are
    /// attributed to `"bmc-induction"`).
    pub fn proved_name(&self) -> &'static str {
        match self {
            EngineId::Bmc => "bmc",
            EngineId::Induction => "bmc-induction",
            EngineId::BddUmc => "bdd-umc",
            EngineId::PobddUmc => "pobdd-umc",
            EngineId::Custom(name) => name,
        }
    }

    /// The inverse of [`EngineId::as_str`] for the built-in engines
    /// (plus the [`crate::PREANALYSIS`] pseudo-engine); `None` for
    /// anything else. Deserializers use this to rebuild an `EngineId`
    /// from a persisted name without leaking a fresh `'static` string
    /// for the common cases.
    pub fn from_name(name: &str) -> Option<EngineId> {
        match name {
            "bmc" => Some(EngineId::Bmc),
            "induction" => Some(EngineId::Induction),
            "bdd-umc" => Some(EngineId::BddUmc),
            "pobdd-umc" => Some(EngineId::PobddUmc),
            crate::PREANALYSIS => Some(EngineId::Custom(crate::PREANALYSIS)),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared cancellation flag: cloneable, `Send`, flipped once. Hand a
/// clone to [`Budget::with_cancel`] and call [`CancelToken::cancel`]
/// from anywhere (a signal handler, a watchdog thread, a test) to make
/// every engine loop holding the paired budget stop at its next tick —
/// the BDD engines answer by checkpointing their fixpoint state.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; irreversible.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A cooperative resource budget threaded into every engine loop.
///
/// The unit is one **engine round**: a BMC depth solved, an induction
/// k attempted, a reachability image computed. Engines call
/// [`Budget::tick`] before starting a round; a `false` answer means
/// "stop now" — SAT engines suspend with their next depth/k, BDD
/// engines serialize their reached/frontier sets through the
/// `veridic_bdd::transfer` layer so the run can resume mid-fixpoint
/// (see `Portfolio::resume_bad_with_budget`).
///
/// [`Budget::unlimited`] never says stop; it is what the compatibility
/// shims use, so un-budgeted runs behave exactly like the pre-portfolio
/// cascade.
#[derive(Clone, Debug)]
pub struct Budget {
    rounds_left: Option<u64>,
    cancel: Option<CancelToken>,
    used: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No round limit, no cancellation.
    pub fn unlimited() -> Self {
        Budget {
            rounds_left: None,
            cancel: None,
            used: 0,
        }
    }

    /// At most `n` engine rounds across the run.
    pub fn rounds(n: u64) -> Self {
        Budget {
            rounds_left: Some(n),
            cancel: None,
            used: 0,
        }
    }

    /// Attaches a cancellation token (checked at every tick).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// True if the next [`Budget::tick`] would refuse.
    pub fn is_exhausted(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) || self.rounds_left == Some(0)
    }

    /// Consumes one round. Returns `false` — without consuming — once
    /// the budget is exhausted or the paired token cancelled; the
    /// caller must then stop (suspending if it can checkpoint).
    pub fn tick(&mut self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        if let Some(r) = &mut self.rounds_left {
            *r -= 1;
        }
        self.used += 1;
        true
    }

    /// Rounds consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// A child budget with whatever rounds this budget has left,
    /// sharing the cancellation token, and counting its own
    /// [`Budget::used`] from zero. The scheduler hands each engine run
    /// one, so the run's round count is attributable to it; charge the
    /// child's consumption back with [`Budget::charge`].
    pub fn child(&self) -> Budget {
        Budget {
            rounds_left: self.rounds_left,
            cancel: self.cancel.clone(),
            used: 0,
        }
    }

    /// Deducts `rounds` from this budget (saturating), accounting for
    /// work a child budget performed.
    pub fn charge(&mut self, rounds: u64) {
        if let Some(r) = &mut self.rounds_left {
            *r = r.saturating_sub(rounds);
        }
        self.used += rounds;
    }
}

/// Everything an [`Engine`] sees for one run: the cone-of-influence
/// reduced AIG (bad 0 is the property under check), the budgets, the
/// mutable statistics sink, and — when resuming — the checkpoint to
/// continue from.
pub struct EngineCtx<'a> {
    /// The COI-reduced AIG: exactly one bad (index 0) plus the original
    /// constraints.
    pub aig: &'a Aig,
    /// Name of the bad output under check, for attribution only: a run
    /// must not depend on it (see the [`Engine`] determinism contract).
    /// No built-in engine reads it.
    pub bad_name: &'a str,
    /// The configured budgets and knobs.
    pub opts: &'a CheckOptions,
    /// The cooperative round budget for this engine run: a
    /// [`Budget::child`] of the run's budget, so its [`Budget::used`]
    /// counts this engine run's rounds only.
    pub budget: &'a mut Budget,
    /// Statistics sink (shared across the whole check).
    pub stats: &'a mut CheckStats,
    /// A checkpoint from a previous [`EngineOutcome::Suspended`] of the
    /// *same* engine on the *same* AIG, if this run is a resume.
    pub resume: Option<&'a EngineCheckpoint>,
    /// The deepest depth `d` the run has shown bad-free from the
    /// initial states so far — no bad at any depth `0..=d` — or `None`
    /// if no engine has shown any. The scheduler carries it from
    /// engine to engine and across budget slices: an engine that
    /// clears depths raises it (BMC), an engine whose proof needs a
    /// base case reads it (k-induction tries only `k ≤ d + 1`).
    pub cleared_depth: Option<usize>,
}

/// What one engine run concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineOutcome {
    /// Property proved. `k` is the induction depth when the engine is
    /// k-induction, `None` otherwise.
    Proved {
        /// Induction depth of the proof, if the method has one.
        k: Option<usize>,
    },
    /// A concrete counterexample on the ctx's (reduced) AIG.
    Falsified(Trace),
    /// The bad is reachable at exactly this depth but the engine does
    /// not produce input traces (the BDD engines); the scheduler
    /// extracts the trace with a depth-pinned BMC run.
    FalsifiedAtDepth(usize),
    /// The engine finished without concluding (BMC clean to its depth
    /// bound, induction not k-inductive within its k bound).
    Inconclusive,
    /// A per-engine resource (conflicts, nodes, iterations) ran out;
    /// the reason is the human-readable account the portfolio verdict
    /// aggregates.
    ResourceOut {
        /// What ran out, e.g. `"BDD node quota (2097152)"`.
        reason: String,
    },
    /// The cooperative [`Budget`] said stop; the checkpoint resumes the
    /// run where it left off.
    Suspended(EngineCheckpoint),
    /// The [`EngineCtx::resume`] checkpoint does not fit this run (a BDD
    /// engine's window split, say), so the engine did not resume it.
    /// The scheduler stops, and
    /// [`crate::Portfolio::resume_bad_with_budget`] returns the misfit.
    /// Only a run given a checkpoint may answer this.
    Misfit(CheckpointMisfit),
}

/// A verification engine the [`crate::Portfolio`] can schedule.
///
/// Implementations must be `Send + Sync`: one portfolio instance is
/// shared by reference across campaign worker threads.
///
/// The contract mirrors the paper's tool portfolio: an engine is given
/// a single-bad COI-reduced AIG and budgets, runs until it concludes or
/// a budget trips, and reports a typed [`EngineOutcome`]. Engines never
/// push events — attribution (bad name, resource deltas) is the
/// scheduler's job, which is what keeps the event log uniform across
/// engine implementations.
///
/// **Determinism contract.** [`Engine::run`] must be a deterministic
/// function of the cone it is given ([`EngineCtx::aig`] without its
/// names), the options, the resume state and the depth cleared before
/// it ([`EngineCtx::cleared_depth`]): the same inputs give the same
/// outcome, the same statistics and the same cleared depth, in any
/// thread and any process.
/// [`EngineCtx::bad_name`] is for attribution only. The campaign's
/// [`crate::ConeCache`] relies on this: it checks each distinct cone
/// once and replays that result for every property with the same cone.
pub trait Engine: Send + Sync {
    /// Stable identity for events and verdict attribution.
    fn id(&self) -> EngineId;

    /// Structural capability check: can this engine meaningfully run on
    /// `aig` at all? The scheduler skips (without an event) engines
    /// that answer `false`. The built-in engines accept everything —
    /// this hook exists for custom engines with narrower domains
    /// (combinational-only, single-latch, …).
    fn supports(&self, aig: &Aig) -> bool;

    /// Configuration gate: is this engine enabled under `opts`? This is
    /// where the historical `bdd_only`/`sat_only`/`pobdd_window_vars`
    /// switches live, so `Portfolio::default()` reproduces the legacy
    /// cascade for every option combination.
    fn enabled(&self, _opts: &CheckOptions) -> bool {
        true
    }

    /// Runs the engine until it concludes, exhausts a per-engine
    /// resource, or the ctx budget trips. A deterministic function of
    /// the cone, the options, the resume state and the cleared depth
    /// (see the trait docs).
    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome;
}

/// Resource snapshot attached to an [`EngineEvent`]: the deltas of the
/// check's statistics attributable to that engine run. Deterministic
/// for a fixed input (no wall clock).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventResources {
    /// SAT conflicts this run added.
    pub sat_conflicts: u64,
    /// BDD nodes this run allocated.
    pub bdd_allocated: u64,
    /// Peak live BDD nodes observed by the end of this run (a running
    /// maximum over the check, not a per-run figure).
    pub bdd_peak_live: usize,
    /// Budget rounds this run consumed.
    pub rounds: u64,
}

/// How an engine run ended, as recorded in the event log.
///
/// [`EngineEvent::render`] maps these back to the exact legacy
/// `engines_tried` strings, which is what keeps the Table 2/3 text
/// byte-identical across the API redesign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventOutcome {
    /// A counterexample was produced (and replayed).
    Falsified,
    /// BMC exhausted its depth bound without a counterexample.
    CleanToDepth(usize),
    /// Induction proved at this k.
    ProvedAtK(usize),
    /// The engine finished inconclusively.
    Inconclusive,
    /// A BDD engine proved the fixpoint bad-free.
    Proved,
    /// A BDD engine found the bad reachable at this depth.
    FalsifiedAtDepth(usize),
    /// A per-engine resource ran out.
    ResourceOut,
    /// The cooperative budget suspended the run (resumable).
    Suspended,
}

/// One entry of the typed engine log: which engine ran for which bad
/// output, how it ended, and what it consumed. Replaces the
/// stringly-typed `engines_tried: Vec<String>`; the legacy strings are
/// one [`EngineEvent::render`] away.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineEvent {
    /// Name of the bad output the engine ran for.
    pub bad: String,
    /// The engine.
    pub engine: EngineId,
    /// How the run ended.
    pub outcome: EventOutcome,
    /// Stat deltas attributable to the run.
    pub resources: EventResources,
}

impl EngineEvent {
    /// Renders the exact legacy `engines_tried` string for this event
    /// (`"<bad>/<engine>: <outcome>"`), preserving the historical
    /// per-engine phrasing: the monolithic BDD engine said `"bad
    /// reachable at depth k"` where the POBDD engine said `"bad at
    /// depth k"`.
    pub fn render(&self) -> String {
        let engine = self.engine.as_str();
        let bad = &self.bad;
        match &self.outcome {
            EventOutcome::Falsified => format!("{bad}/{engine}: falsified"),
            EventOutcome::CleanToDepth(d) => format!("{bad}/{engine}: clean to depth {d}"),
            EventOutcome::ProvedAtK(k) => format!("{bad}/{engine}: proved at k={k}"),
            EventOutcome::Inconclusive => format!("{bad}/{engine}: inconclusive"),
            EventOutcome::Proved => format!("{bad}/{engine}: proved"),
            EventOutcome::FalsifiedAtDepth(k) => match self.engine {
                EngineId::BddUmc => format!("{bad}/{engine}: bad reachable at depth {k}"),
                _ => format!("{bad}/{engine}: bad at depth {k}"),
            },
            EventOutcome::ResourceOut => format!("{bad}/{engine}: resource-out"),
            EventOutcome::Suspended => format!("{bad}/{engine}: suspended"),
        }
    }
}

impl std::fmt::Display for EngineEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rounds_tick_down() {
        let mut b = Budget::rounds(2);
        assert!(b.tick());
        assert!(b.tick());
        assert!(!b.tick(), "third tick must refuse");
        assert!(b.is_exhausted());
        assert_eq!(b.used(), 2);
    }

    #[test]
    fn unlimited_budget_never_stops() {
        let mut b = Budget::unlimited();
        for _ in 0..1000 {
            assert!(b.tick());
        }
        assert!(!b.is_exhausted());
        assert_eq!(b.used(), 1000);
    }

    #[test]
    fn cancel_token_stops_all_holders() {
        let token = CancelToken::new();
        let mut a = Budget::unlimited().with_cancel(&token);
        let mut b = Budget::rounds(10).with_cancel(&token);
        assert!(a.tick() && b.tick());
        token.cancel();
        assert!(!a.tick() && !b.tick());
    }

    #[test]
    fn child_budget_merges_caps_and_charges_back() {
        let mut parent = Budget::rounds(10);
        let mut child = parent.child();
        assert!(child.tick() && child.tick() && child.tick());
        assert_eq!(child.used(), 3, "a child counts its own rounds");
        assert_eq!(parent.used(), 0, "until they are charged back");
        parent.charge(child.used());
        assert_eq!(parent.used(), 3);
        let next = parent.child();
        assert_eq!(next.rounds_left, Some(7), "parent remainder must bind");
        assert_eq!(next.used(), 0);
        // A child shares its parent's cancellation token.
        let token = CancelToken::new();
        let mut child = Budget::unlimited().with_cancel(&token).child();
        assert!(child.tick());
        token.cancel();
        assert!(
            !child.tick(),
            "cancelling the parent's token stops the child"
        );
    }

    #[test]
    fn render_matches_legacy_strings() {
        let ev = |engine, outcome| EngineEvent {
            bad: "q_high".into(),
            engine,
            outcome,
            resources: EventResources::default(),
        };
        assert_eq!(
            ev(EngineId::Bmc, EventOutcome::Falsified).render(),
            "q_high/bmc: falsified"
        );
        assert_eq!(
            ev(EngineId::Bmc, EventOutcome::CleanToDepth(30)).render(),
            "q_high/bmc: clean to depth 30"
        );
        assert_eq!(
            ev(EngineId::Induction, EventOutcome::ProvedAtK(2)).render(),
            "q_high/induction: proved at k=2"
        );
        assert_eq!(
            ev(EngineId::BddUmc, EventOutcome::FalsifiedAtDepth(9)).render(),
            "q_high/bdd-umc: bad reachable at depth 9"
        );
        assert_eq!(
            ev(EngineId::PobddUmc, EventOutcome::FalsifiedAtDepth(9)).render(),
            "q_high/pobdd-umc: bad at depth 9"
        );
        assert_eq!(
            ev(EngineId::PobddUmc, EventOutcome::ResourceOut).render(),
            "q_high/pobdd-umc: resource-out"
        );
    }
}
