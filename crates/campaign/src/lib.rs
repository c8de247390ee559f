//! Verification as a service for the Umezawa–Shimizu methodology:
//! persistent checkpoints, a crash-recoverable campaign daemon, and an
//! adaptive engine scheduler.
//!
//! The crate turns `veridic`'s one-shot campaign run into a durable
//! service over a campaign **directory**:
//!
//! - [`codec`] + [`store`] — a compact versioned binary format for
//!   [`veridic_mc::RunCheckpoint`] (including the exported-ROBDD
//!   reachability state), FNV-checksummed and fingerprint-pinned to
//!   the AIG and [`veridic_mc::CheckOptions`] that produced it, with
//!   atomic write-to-temp-then-rename persistence. Corrupt or stale
//!   files fail loud with typed errors — never a silent wrong resume.
//! - [`journal`] — one append-only state machine per property
//!   (`pending` → `running <pid> <start-time>` → `done <record>`); the
//!   last parseable line wins, so torn writes degrade instead of
//!   corrupt.
//! - [`daemon`] + [`worker`] — the service: properties are sharded
//!   across OS processes (`current_exe() --worker`) over a
//!   length-prefixed pipe protocol; verdicts stream to
//!   `results.ndjson`; a killed daemon restarts by reaping orphaned
//!   `running` entries and resuming each property from its last
//!   checkpoint, reproducing the uninterrupted run's Table 2
//!   byte-for-byte.
//! - [`scheduler`] — an opt-in adaptive alternative to the fixed
//!   engine cascade: engines run in time-sliced lanes and the lane
//!   showing progress (BMC depth, reachability frontier growth) earns
//!   a boosted budget each round. Off by default; the default
//!   portfolio order is preserved exactly when disabled.
//! - [`signal`] — SIGTERM/SIGINT latching so daemon and workers flush
//!   in-flight checkpoints before exit.
//!
//! See `ARCHITECTURE.md` ("The campaign service") for the journal
//! state machine, the checkpoint file format, and the crash-recovery
//! invariants.

pub mod codec;
pub mod daemon;
pub mod journal;
pub mod scheduler;
pub mod signal;
pub mod spec;
pub mod store;
pub mod wire;
pub mod worker;

pub use codec::{CheckpointFile, CodecError, PersistedState};
pub use daemon::{run, status, submit, DaemonError, RunOutcome, StatusSummary, SubmitSummary};
pub use journal::{JobState, Journal};
pub use scheduler::{AdaptiveCheckpoint, AdaptiveScheduler, AdaptiveStep};
pub use spec::{CampaignSpec, SpecError};
pub use store::{load_checkpoint, save_checkpoint, LoadError};
pub use worker::{maybe_run_worker, CampaignDir};
