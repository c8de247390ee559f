//! The per-property job journal: an append-only state machine on disk.
//!
//! One journal file per property, holding one state transition per
//! line: `pending` → `running <pid> <start-time>` → `done <hex-record>`.
//! Lines are appended and fsynced, never rewritten; the reader takes
//! the **last parseable line** as the current state, so a line torn by
//! a crash mid-append is simply ignored and the job falls back to its
//! previous state. The `done` payload is the binary [`PropertyRecord`] codec
//! (own magic and checksum) in lowercase hex — a flipped bit in a done
//! line demotes the job to its previous `running` state rather than
//! resurrecting a corrupt verdict.
//!
//! Recovery semantics live in [`JobState::effective`]: a `running`
//! entry whose worker no longer exists — no process with that pid, or
//! one with a different start time because the pid was reused — is an
//! orphan from a crashed daemon and counts as `pending` again (the
//! worker that picks it up resumes from the property's persisted
//! checkpoint, if one survived).

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use veridic_core::flow::PropertyRecord;

use crate::codec::{decode_record, encode_record};
use crate::signal::process_start_time;

/// A job's journaled state.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Never started, or explicitly re-queued.
    Pending,
    /// Claimed by the worker process `pid`.
    Running {
        /// The claiming worker's pid at claim time.
        pid: u32,
        /// The claiming worker's start time (see
        /// [`process_start_time`]), which tells it apart from a later
        /// process that reuses the pid.
        start_time: u64,
    },
    /// Concluded with a full property record.
    Done(Box<PropertyRecord>),
}

impl JobState {
    /// The state a restarted daemon should act on: `Running` counts
    /// only while a process with that pid *and* that start time exists;
    /// otherwise the worker is gone (even if its pid now belongs to
    /// another process) and the job is effectively `Pending`.
    pub fn effective(self) -> JobState {
        match self {
            JobState::Running { pid, start_time }
                if process_start_time(pid) != Some(start_time) =>
            {
                JobState::Pending
            }
            other => other,
        }
    }
}

/// Handle to one property's journal file.
#[derive(Clone, Debug)]
pub struct Journal {
    path: PathBuf,
}

pub(crate) fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
        s.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
    }
    s
}

pub(crate) fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let digits: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
    Some(digits.chunks(2).map(|d| (d[0] << 4 | d[1]) as u8).collect())
}

impl Journal {
    /// The journal for job `id` inside `jobs_dir`.
    pub fn for_job(jobs_dir: &Path, id: usize) -> Journal {
        Journal { path: jobs_dir.join(format!("{id}.journal")) }
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&self, line: &str) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(&self.path)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()
    }

    /// Appends a `pending` transition (also the creation write).
    pub fn mark_pending(&self) -> io::Result<()> {
        self.append("pending")
    }

    /// Appends a `running` transition claimed by the process `pid`
    /// that started at `start_time`.
    pub fn mark_running(&self, pid: u32, start_time: u64) -> io::Result<()> {
        self.append(&format!("running {pid} {start_time}"))
    }

    /// Appends a `done` transition with the full encoded record.
    pub fn mark_done(&self, record: &PropertyRecord) -> io::Result<()> {
        self.append(&format!("done {}", to_hex(&encode_record(record))))
    }

    /// The current state: the last parseable line, `Pending` if the
    /// file is missing or holds no valid line.
    pub fn load(&self) -> JobState {
        let Ok(text) = fs::read_to_string(&self.path) else {
            return JobState::Pending;
        };
        let mut state = JobState::Pending;
        for line in text.lines() {
            if let Some(parsed) = parse_line(line.trim_end()) {
                state = parsed;
            }
        }
        state
    }
}

fn parse_line(line: &str) -> Option<JobState> {
    if line == "pending" {
        return Some(JobState::Pending);
    }
    if let Some(claim) = line.strip_prefix("running ") {
        let (pid, start_time) = claim.split_once(' ')?;
        let (pid, start_time) = (pid.parse().ok()?, start_time.parse().ok()?);
        return Some(JobState::Running { pid, start_time });
    }
    if let Some(hex) = line.strip_prefix("done ") {
        let bytes = from_hex(hex)?;
        return decode_record(&bytes).ok().map(|r| JobState::Done(Box::new(r)));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::own_start_time;
    use std::time::Duration;
    use veridic_chipgen::{Category, PropertyType};
    use veridic_mc::{CheckStats, Verdict};

    fn record() -> PropertyRecord {
        PropertyRecord {
            module: "alu_0".into(),
            category: Category::B,
            vunit: "v_alu".into(),
            label: "sound".into(),
            ptype: PropertyType::Soundness,
            verdict: Verdict::Proved { engine: "bdd-umc" },
            stats: CheckStats::default(),
            duration: Duration::from_millis(3),
        }
    }

    /// This process's own claim: `(pid, start time)`.
    fn me() -> (u32, u64) {
        (std::process::id(), own_start_time().expect("/proc/self/stat is readable")) // lint: allow
    }

    fn temp_jobs_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("veridic-journal-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap(); // lint: allow
        dir
    }

    #[test]
    fn walks_the_state_machine_last_line_wins() {
        let dir = temp_jobs_dir("walk");
        let j = Journal::for_job(&dir, 0);
        assert!(matches!(j.load(), JobState::Pending), "missing file is pending");
        j.mark_pending().unwrap(); // lint: allow
        let (pid, start_time) = me();
        j.mark_running(pid, start_time).unwrap(); // lint: allow
        assert!(matches!(j.load(), JobState::Running { .. }));
        j.mark_done(&record()).unwrap(); // lint: allow
        let JobState::Done(r) = j.load() else {
            panic!("done line must win") // lint: allow
        };
        assert_eq!(r.module, "alu_0");
        assert_eq!(r.verdict, Verdict::Proved { engine: "bdd-umc" });
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_done_line_falls_back_to_running() {
        let dir = temp_jobs_dir("torn");
        let j = Journal::for_job(&dir, 1);
        let (pid, start_time) = me();
        j.mark_running(pid, start_time).unwrap(); // lint: allow
        // A done append cut mid-line (no newline, half the hex).
        let full = format!("done {}", to_hex(&encode_record(&record())));
        let torn = &full[..full.len() / 2];
        let mut f = OpenOptions::new().append(true).open(j.path()).unwrap(); // lint: allow
        f.write_all(torn.as_bytes()).unwrap(); // lint: allow
        drop(f);
        assert!(matches!(j.load(), JobState::Running { .. }), "torn line must be ignored");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_running_entry_is_effectively_pending() {
        let dir = temp_jobs_dir("orphan");
        let j = Journal::for_job(&dir, 2);
        j.mark_running(u32::MAX - 1, 0).unwrap(); // lint: allow
        assert!(matches!(j.load().effective(), JobState::Pending));
        let (pid, start_time) = me();
        j.mark_running(pid, start_time).unwrap(); // lint: allow
        assert!(matches!(j.load().effective(), JobState::Running { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    /// A dead worker whose pid the kernel has handed to another process
    /// must not read as `running` (it would forever). Forged here with
    /// this test's own (live) pid and a start time that is not its own.
    #[test]
    fn reused_pid_with_a_wrong_start_time_is_pending() {
        let dir = temp_jobs_dir("reuse");
        let j = Journal::for_job(&dir, 3);
        let (pid, start_time) = me();
        j.mark_running(pid, start_time + 1).unwrap(); // lint: allow
        assert!(matches!(j.load(), JobState::Running { .. }), "the claim line parses");
        assert!(matches!(j.load().effective(), JobState::Pending));
        j.mark_running(pid, start_time).unwrap(); // lint: allow
        assert!(matches!(j.load().effective(), JobState::Running { .. }));
        // A claim without a start time no longer parses: the job falls
        // back to its previous state.
        j.mark_pending().unwrap(); // lint: allow
        j.append(&format!("running {pid}")).unwrap(); // lint: allow
        assert!(matches!(j.load(), JobState::Pending));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).as_deref(), Some(bytes.as_slice()));
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex digit");
    }
}
