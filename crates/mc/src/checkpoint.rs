//! Resumable engine state: what a suspended engine hands the scheduler
//! so a later [`crate::Portfolio::resume_bad_with_budget`] can continue
//! the run.
//!
//! The SAT engines checkpoint a cursor (their solver state is rebuilt
//! deterministically on resume); the BDD engines serialize their
//! reached/frontier sets through [`veridic_bdd::transfer`]'s
//! level-ordered export — the checkpoint owns no manager references, is
//! `Send`, and imports into a *fresh* manager, so a killed reachability
//! run resumes mid-fixpoint with an identical verdict, falsification
//! depth and completed-round count.

use std::fmt;

use veridic_bdd::transfer::{DeltaBdd, ExportedBdd};

use crate::engine::EngineId;

/// Mid-fixpoint state of a BDD reachability engine (monolithic or
/// partitioned): per-window reached and frontier sets at the end of a
/// completed round, in the transfer layer's manager-independent format.
///
/// The monolithic engine has exactly one window; the POBDD engine one
/// entry per window cube, indexed like its window list (which is
/// deterministically re-derived from the AIG on resume).
///
/// The frontier is a subset of the reached set by construction (it is
/// the states first reached in the last completed round), so its cone
/// heavily overlaps the reached cone — each window's frontier is
/// therefore stored as a [`DeltaBdd`] against the *same window's*
/// `reached` export, shipping only the handful of nodes the frontier
/// adds. Resume rebuilds it with
/// [`veridic_bdd::transfer::import_delta`] over the paired baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct ReachCheckpoint {
    /// Completed reachability rounds at suspension (the next round to
    /// run is `depth + 1`).
    pub depth: usize,
    /// Per-window reached sets.
    pub reached: Vec<ExportedBdd>,
    /// Per-window frontiers, delta-encoded against the same window's
    /// `reached` export.
    pub frontier: Vec<DeltaBdd>,
    /// The window-variable count the partition was built with (0 for
    /// the monolithic engine); resume re-derives the same windows and
    /// verifies the count matches.
    pub window_vars: u32,
}

impl ReachCheckpoint {
    /// Checks that this checkpoint was taken on the window split the
    /// resuming engine derives: `window_vars` split variables and one
    /// reached and one frontier set for each of its `windows` windows.
    pub(crate) fn check_windows(
        &self,
        window_vars: u32,
        windows: usize,
    ) -> Result<(), CheckpointMisfit> {
        if self.window_vars != window_vars {
            let found = self.window_vars;
            return Err(CheckpointMisfit::WindowVars {
                expected: window_vars,
                found,
            });
        }
        if (self.reached.len(), self.frontier.len()) != (windows, windows) {
            return Err(CheckpointMisfit::WindowCount {
                expected: windows,
                reached: self.reached.len(),
                frontier: self.frontier.len(),
            });
        }
        Ok(())
    }
}

/// Why a checkpoint that decoded cleanly cannot resume a run: it does
/// not fit the portfolio, AIG or options it was handed with. Continuing
/// would not be the suspended run, so
/// [`crate::Portfolio::resume_bad_with_budget`] refuses the checkpoint,
/// and the caller can start the run afresh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointMisfit {
    /// The slot index is past the portfolio's last engine.
    SlotOutOfRange {
        /// The checkpoint's slot.
        slot: usize,
        /// The portfolio's engine count.
        slots: usize,
    },
    /// The bad index is past the AIG's last bad.
    BadOutOfRange {
        /// The checkpoint's bad index.
        bad_index: usize,
        /// The AIG's bad count.
        bads: usize,
    },
    /// The slot's engine cannot take this kind of engine state.
    WrongState {
        /// The checkpoint's slot.
        slot: usize,
        /// The engine in that slot.
        engine: EngineId,
    },
    /// The slot's engine is disabled under the options.
    SlotDisabled {
        /// The checkpoint's slot.
        slot: usize,
        /// The engine in that slot.
        engine: EngineId,
    },
    /// A reachability checkpoint split on another number of window
    /// variables than the resuming engine.
    WindowVars {
        /// The engine's count (0 for the monolithic engine).
        expected: u32,
        /// The checkpoint's count.
        found: u32,
    },
    /// A reachability checkpoint with another number of windows than
    /// the split the resuming engine derives.
    WindowCount {
        /// The engine's window count (1 for the monolithic engine).
        expected: usize,
        /// The checkpoint's reached sets.
        reached: usize,
        /// The checkpoint's frontier sets.
        frontier: usize,
    },
}

impl fmt::Display for CheckpointMisfit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointMisfit::SlotOutOfRange { slot, slots } => {
                write!(f, "it names engine slot {slot}, the portfolio has {slots} slots")
            }
            CheckpointMisfit::BadOutOfRange { bad_index, bads } => {
                write!(f, "it is for bad {bad_index}, the AIG has {bads} bads")
            }
            CheckpointMisfit::WrongState { slot, engine } => {
                write!(f, "its engine state does not fit slot {slot} ({engine})")
            }
            CheckpointMisfit::SlotDisabled { slot, engine } => {
                write!(f, "slot {slot} ({engine}) is disabled under these options")
            }
            CheckpointMisfit::WindowVars { expected, found } => {
                write!(f, "it splits on {found} window variables, the engine on {expected}")
            }
            CheckpointMisfit::WindowCount { expected, reached, frontier } => write!(
                f,
                "it has {reached} reached and {frontier} frontier sets, the engine {expected} windows"
            ),
        }
    }
}

impl std::error::Error for CheckpointMisfit {}

/// A suspended engine's resumable state.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineCheckpoint {
    /// BMC: the next unrolling depth to query. Frames below it are
    /// re-encoded on resume (deterministic) but not re-queried.
    Bmc {
        /// First depth the resumed run will query.
        next_depth: usize,
    },
    /// k-induction: the next k to attempt.
    Induction {
        /// First induction depth the resumed run will attempt.
        next_k: usize,
    },
    /// A BDD reachability fixpoint (monolithic or partitioned).
    Reach(ReachCheckpoint),
}

impl EngineCheckpoint {
    /// The completed reachability depth, if this is a BDD checkpoint.
    pub fn reach_depth(&self) -> Option<usize> {
        match self {
            EngineCheckpoint::Reach(r) => Some(r.depth),
            _ => None,
        }
    }
}
