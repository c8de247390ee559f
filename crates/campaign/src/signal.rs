//! Process signals without libc: a SIGTERM/SIGINT flag the daemon and
//! its workers poll to flush in-flight checkpoints before exit, a
//! `kill` wrapper for forwarding termination to worker shards, and
//! `/proc`-based liveness probing (pid and process start time) for
//! orphan reaping.
//!
//! This is the only module in the workspace that touches `unsafe`: two
//! raw libc prototypes (`signal`, `kill`), each wrapped in a safe,
//! infallible API. The handler itself does nothing but store into a
//! process-global atomic — the actual flushing happens at the next
//! cooperative cancellation point (the engines' [`Budget`] ticks),
//! which is the same suspension machinery every other interruption
//! uses.
//!
//! [`Budget`]: veridic_mc::Budget

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide "a termination signal arrived" flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// POSIX signal numbers (Linux values).
const SIGINT: i32 = 2;
/// See [`SIGINT`].
pub(crate) const SIGTERM: i32 = 15;

#[allow(unsafe_code)]
mod libc_shim {
    //! The two libc entry points the campaign service needs, declared
    //! raw: the offline build carries no `libc` crate, and the
    //! workspace otherwise forbids `unsafe`.

    extern "C" {
        /// `sighandler_t signal(int signum, sighandler_t handler);`
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        /// `int kill(pid_t pid, int sig);`
        fn kill(pid: i32, sig: i32) -> i32;
    }

    /// Registers `handler` for `signum`; best-effort (the return value
    /// is the previous handler, which we never restore).
    pub(super) fn install(signum: i32, handler: extern "C" fn(i32)) {
        // SAFETY: `signal` is async-signal-safe to call from normal
        // context; the handler we install only performs an atomic
        // store, which is async-signal-safe too.
        unsafe {
            signal(signum, handler);
        }
    }

    /// Sends `sig` to `pid`; returns true on success.
    pub(super) fn send(pid: u32, sig: i32) -> bool {
        let pid = match i32::try_from(pid) {
            Ok(p) => p,
            Err(_) => return false,
        };
        // SAFETY: `kill` has no memory-safety preconditions; an invalid
        // pid just returns -1 with ESRCH.
        unsafe { kill(pid, sig) == 0 }
    }
}

/// The installed handler: record the request and return. Everything
/// else (cancelling engine budgets, persisting checkpoints, exiting)
/// happens at the next poll of [`shutdown_requested`].
extern "C" fn on_terminate(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM/SIGINT handler that arms
/// [`shutdown_requested`]. Idempotent; call early in any process that
/// owns in-flight checkpoints (the daemon and every worker do).
pub fn install_shutdown_handler() {
    libc_shim::install(SIGTERM, on_terminate);
    libc_shim::install(SIGINT, on_terminate);
}

/// True once SIGTERM or SIGINT has been received (or
/// [`request_shutdown`] called). Never resets.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Arms [`shutdown_requested`] from ordinary code — used by tests and
/// by the daemon to wind down its workers' watcher threads without an
/// actual signal delivery.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Sends SIGTERM to `pid` (the graceful worker stop: the worker's
/// handler flushes its in-flight checkpoint and exits). Returns false
/// if the process no longer exists.
pub fn send_sigterm(pid: u32) -> bool {
    libc_shim::send(pid, SIGTERM)
}

/// True if a process with this pid currently exists, by `/proc` probe
/// (the daemon's pid lock uses it).
pub fn pid_alive(pid: u32) -> bool {
    std::path::Path::new(&format!("/proc/{pid}")).exists()
}

/// Start time of process `pid` — field 22 of `/proc/<pid>/stat`, in
/// clock ticks since boot — or `None` if no such process exists. The
/// pair (pid, start time) names one process for good: a recycled pid
/// comes back with a later start time. This is how journal recovery
/// tells a live `Running` entry (another daemon's worker still
/// computing) from an orphan left by a crash.
pub fn process_start_time(pid: u32) -> Option<u64> {
    stat_start_time(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// This process's own start time (see [`process_start_time`]), read
/// from `/proc/self/stat`; a worker records it when it claims a job.
pub fn own_start_time() -> Option<u64> {
    stat_start_time(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Field 22 of a `/proc/<pid>/stat` line. The command name (field 2)
/// is parenthesized and may itself hold spaces and parentheses, so
/// fields are counted from the last `)`, where field 3 begins.
fn stat_start_time(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(22 - 3)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_pid_is_alive_and_absurd_pid_is_not() {
        assert!(pid_alive(std::process::id()));
        // Linux pids are bounded by /proc/sys/kernel/pid_max (< 2^22 by
        // default, always < 2^31); this one cannot exist.
        assert!(!pid_alive(u32::MAX - 1));
    }

    #[test]
    fn start_time_names_this_process_and_skips_odd_command_names() {
        let own = own_start_time().expect("/proc/self/stat is readable"); // lint: allow
        assert_eq!(process_start_time(std::process::id()), Some(own));
        assert_eq!(process_start_time(u32::MAX - 1), None);
        // Fields 3..=21 are placeholders; field 22 is the start time.
        let line = format!("42 (odd) (na me)) S{} 777 0 0", " 0".repeat(18));
        assert_eq!(stat_start_time(&line), Some(777));
        assert_eq!(stat_start_time("42 (cut short) S 1 2"), None);
    }

    #[test]
    fn request_shutdown_arms_the_flag() {
        // Deliberately not testing signal delivery in-process (it would
        // race other tests); the flag path is what the daemon polls.
        // (No pre-assert on the flag: a sibling test may already have
        // armed it.)
        request_shutdown();
        assert!(shutdown_requested());
    }
}
