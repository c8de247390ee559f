//! Process resource readings on Linux: `/proc` and the thread CPU clock.

use std::time::Instant;

/// Kernel clock ticks per second for the `/proc/*/stat` time fields
/// (`USER_HZ`, fixed at 100 on every Linux architecture the program
/// builds for).
const USER_HZ: f64 = 100.0;

/// The fields of a `stat` file after the parenthesised command name:
/// field 3 (state) is index 0, so utime (field 14) is index 11.
fn stat_fields(stat: &str) -> Vec<&str> {
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    rest.split_whitespace().collect()
}

/// User + system CPU seconds of this process plus its reaped children
/// (`utime + stime + cutime + cstime`): the daemon waits for its worker
/// processes, so their CPU time is included once they exit.
pub fn cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/self/stat").expect("Linux /proc/self/stat is readable");
    let ticks: u64 = stat_fields(&stat)[11..15]
        .iter()
        .map(|f| f.parse::<u64>().expect("stat time fields are integers"))
        .sum();
    ticks as f64 / USER_HZ
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds of the calling thread, to the nanosecond. Unlike wall
/// time it leaves out waits for a CPU on a shared host.
pub fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the clock
    // id is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User-space CPU seconds of the calling thread (`utime` of
/// `/proc/thread-self/stat`): time in the kernel, such as syncing files
/// to disk, is left out. The kernel splits a thread's CPU time into user
/// and system time by sampling, so time a span of at least a few hundred
/// milliseconds.
pub fn thread_user_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat")
        .expect("Linux /proc/thread-self/stat is readable");
    stat_fields(&stat)[11]
        .parse::<u64>()
        .expect("stat time fields are integers") as f64
        / USER_HZ
}

/// This process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status reports VmHWM in kB");
    kib / 1024.0
}

/// Wall and CPU time of one measured region.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    /// Starts measuring.
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`Clock::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}
