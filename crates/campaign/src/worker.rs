//! The worker half of process sharding: `campaignd --worker <dir>`.
//!
//! The daemon spawns `current_exe() --worker <dir>` once per shard and
//! speaks a length-prefixed text protocol over the worker's
//! stdin/stdout (u32-LE frame length, UTF-8 payload):
//!
//! | direction       | frame                | meaning                      |
//! |-----------------|----------------------|------------------------------|
//! | daemon → worker | `RUN <job>`          | check property `<job>`       |
//! | daemon → worker | `QUIT`               | exit after the current frame |
//! | worker → daemon | `READY`              | chip generated, jobs mapped  |
//! | worker → daemon | `CKPT <job>`         | a checkpoint was persisted   |
//! | worker → daemon | `DONE <job> <hex>`   | record, in the journal codec |
//! | worker → daemon | `WARN <job> <msg>`   | notice only (job continues)  |
//! | worker → daemon | `ERR <job> <msg>`    | job failed (bad id, I/O…)    |
//!
//! A job runs in fixed-size budget **slices** (`slice_rounds` from the
//! campaign spec). At every slice boundary the suspended
//! [`RunCheckpoint`](veridic_mc::RunCheckpoint) (or adaptive lane
//! state) is persisted atomically before the next slice starts — so a
//! `kill -9` at any instant loses at most the slice in flight, and the
//! restarted run replays from the last boundary with the same slice
//! grid an uninterrupted run uses. That alignment is what makes the
//! resumed verdict, falsification depth and completed-round count equal
//! to an uninterrupted run's, byte for byte in the final tables.
//!
//! SIGTERM is gentler than `kill -9`: a watcher thread bridges the
//! [`crate::signal`] flag into the slice's
//! [`CancelToken`], the engine suspends at its
//! next cooperative tick, the (mid-slice) checkpoint is flushed, and
//! the worker exits cleanly.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use veridic_chipgen::Chip;
use veridic_core::flow::{module_properties, record_from_result, PreparedProperty, PropertyRecord};
use veridic_mc::{Budget, CancelToken, CheckResult, CheckStats, Portfolio, PortfolioOutcome};

use crate::codec::{encode_record, CheckpointFile, PersistedState};
use crate::journal::{to_hex, Journal};
use crate::scheduler::{AdaptiveScheduler, AdaptiveStep};
use crate::signal;
use crate::spec::CampaignSpec;
use crate::store;

/// Writes one protocol frame: u32-LE length, then UTF-8 payload.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, text: &str) -> io::Result<()> {
    let len = u32::try_from(text.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too long"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Reads one protocol frame; `Ok(None)` on clean EOF before a frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > 1 << 24 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 frame"))
}

/// File layout of a campaign directory.
#[derive(Clone, Debug)]
pub struct CampaignDir {
    /// The directory root.
    pub root: PathBuf,
}

impl CampaignDir {
    /// Wraps `root` (no filesystem access).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CampaignDir { root: root.into() }
    }

    /// `spec.txt` — the campaign spec.
    pub fn spec_path(&self) -> PathBuf {
        self.root.join("spec.txt")
    }

    /// `jobs/` — one journal per property.
    pub fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// `ckpt/` — one checkpoint file per in-flight property.
    pub fn ckpt_dir(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    /// The checkpoint file of job `id`.
    pub fn ckpt_path(&self, id: usize) -> PathBuf {
        self.ckpt_dir().join(format!("{id}.ckpt"))
    }

    /// `errors.txt` — module preparation failures, tab-separated.
    pub fn errors_path(&self) -> PathBuf {
        self.root.join("errors.txt")
    }

    /// `results.ndjson` — the streaming event log.
    pub fn results_path(&self) -> PathBuf {
        self.root.join("results.ndjson")
    }

    /// `table2.txt` — the final Table 2 render.
    pub fn table2_path(&self) -> PathBuf {
        self.root.join("table2.txt")
    }

    /// `daemon.pid` — the single-daemon lock.
    pub fn pid_path(&self) -> PathBuf {
        self.root.join("daemon.pid")
    }

    /// The journal of job `id`.
    pub fn journal(&self, id: usize) -> Journal {
        Journal::for_job(&self.jobs_dir(), id)
    }
}

/// Regenerates the chip of `spec` and flattens every module's prepared
/// properties into the global job list (module order, then assert
/// order) — the indexing contract shared by daemon and workers.
pub fn enumerate_jobs(spec: &CampaignSpec) -> (Vec<PreparedProperty>, Vec<(String, String)>) {
    let chip = Chip::generate(&spec.chip_config());
    let mut props = Vec::new();
    let mut errors = Vec::new();
    for mi in chip.modules() {
        let (mut p, mut e) = module_properties(&chip, mi);
        props.append(&mut p);
        errors.append(&mut e);
    }
    (props, errors)
}

/// How often the cancel bridge looks at the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Bridges the process-wide shutdown flag into a job's cancel token:
/// a small thread polling [`signal::shutdown_requested`] every `poll`
/// until cancellation fires or the job ends. The job ends the bridge by
/// dropping the returned sender, which wakes it at once, so joining it
/// adds no wait to the job.
fn spawn_cancel_bridge(token: CancelToken, poll: Duration) -> (mpsc::Sender<()>, JoinHandle<()>) {
    let (job_running, job_ended) = mpsc::channel::<()>();
    let bridge = std::thread::spawn(move || loop {
        if signal::shutdown_requested() {
            token.cancel();
            return;
        }
        match job_ended.recv_timeout(poll) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
    });
    (job_running, bridge)
}

/// How a job slice loop ended.
enum JobEnd {
    /// Concluded with a record.
    Done(Box<PropertyRecord>),
    /// Interrupted by shutdown; the checkpoint is on disk.
    Interrupted,
}

/// Runs one property to conclusion (or shutdown) in budget slices,
/// persisting a fingerprint-bound checkpoint at every boundary.
fn run_job(
    dir: &CampaignDir,
    spec: &CampaignSpec,
    prop: &PreparedProperty,
    id: usize,
    out: &mut impl Write,
) -> io::Result<JobEnd> {
    let t0 = Instant::now();
    let aig_fp = prop.aig.fingerprint();
    let opts_fp = spec.check.fingerprint();
    let ckpt_path = dir.ckpt_path(id);
    // A checkpoint left by a previous (killed) daemon resumes the run;
    // damaged or mismatched files are reported and ignored — the job
    // restarts from scratch rather than resuming wrongly.
    let resume = match store::load_checkpoint(&ckpt_path, Some((aig_fp, opts_fp))) {
        Ok(file) => Some(file.state),
        Err(store::LoadError::Io(_)) => None,
        Err(store::LoadError::Codec(e)) => {
            write_frame(out, &format!("WARN {id} stale checkpoint ignored: {e}"))?;
            None
        }
    };

    let token = CancelToken::new();
    let (job_running, bridge) = spawn_cancel_bridge(token.clone(), SHUTDOWN_POLL);
    let persist = |state: PersistedState, out: &mut dyn Write| -> io::Result<()> {
        let file = CheckpointFile {
            aig_fingerprint: aig_fp,
            options_fingerprint: opts_fp,
            state,
        };
        store::save_checkpoint(&ckpt_path, &file)?;
        write_frame(out, &format!("CKPT {id}"))
    };

    let result: Result<CheckResult, ()> = if spec.adaptive {
        let scheduler = AdaptiveScheduler::new(spec.slice_rounds);
        let mut state = match resume {
            Some(PersistedState::Adaptive(ck)) => ck,
            // A portfolio checkpoint under an adaptive spec cannot
            // happen with matching option fingerprints unless the spec
            // file was hand-edited; restart cleanly.
            _ => scheduler.start(&prop.aig, prop.bad_index, &spec.check),
        };
        loop {
            match scheduler.step(&prop.aig, &spec.check, state, Some(&token)) {
                AdaptiveStep::Continue(next) => {
                    persist(PersistedState::Adaptive(next.clone()), out)?;
                    if signal::shutdown_requested() {
                        break Err(());
                    }
                    state = next;
                }
                AdaptiveStep::Done(result) => break Ok(result),
            }
        }
    } else {
        let portfolio = Portfolio::default();
        let slice = || Budget::rounds(spec.slice_rounds.max(1)).with_cancel(&token);
        let mut outcome = match resume {
            Some(PersistedState::Portfolio(ck)) => {
                portfolio.resume_bad_with_budget(&prop.aig, &spec.check, *ck, &mut slice())
            }
            _ => portfolio.check_bad_with_budget(
                &prop.aig,
                prop.bad_index,
                &spec.check,
                CheckStats::default(),
                &mut slice(),
            ),
        };
        loop {
            match outcome {
                PortfolioOutcome::Done(result) => break Ok(result),
                PortfolioOutcome::Suspended(ck) => {
                    persist(PersistedState::Portfolio(Box::new(ck.clone())), out)?;
                    if signal::shutdown_requested() {
                        break Err(());
                    }
                    outcome =
                        portfolio.resume_bad_with_budget(&prop.aig, &spec.check, ck, &mut slice());
                }
            }
        }
    };
    drop(job_running);
    let _ = bridge.join();

    match result {
        Ok(result) => {
            let record = record_from_result(prop, result, t0.elapsed());
            Ok(JobEnd::Done(Box::new(record)))
        }
        Err(()) => Ok(JobEnd::Interrupted),
    }
}

/// The worker main loop; returns the process exit code.
///
/// Speaks the frame protocol on this process's stdin/stdout, so the
/// worker must write nothing else to stdout.
pub fn run_worker(root: &Path) -> i32 {
    signal::install_shutdown_handler();
    let dir = CampaignDir::new(root);
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();

    let spec_text = match std::fs::read_to_string(dir.spec_path()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaignd worker: cannot read spec: {e}");
            return 2;
        }
    };
    let spec = match CampaignSpec::parse(&spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaignd worker: bad spec: {e}");
            return 2;
        }
    };
    let (props, _errors) = enumerate_jobs(&spec);
    // This worker's identity in journal claims. Without a readable
    // `/proc` the start time is 0 and the claim never reads as live,
    // exactly like a gone worker's.
    let (pid, started) = (std::process::id(), signal::own_start_time().unwrap_or(0));
    if write_frame(&mut output, "READY").is_err() {
        return 2;
    }

    loop {
        let frame = match read_frame(&mut input) {
            Ok(Some(f)) => f,
            Ok(None) => return 0,
            Err(e) => {
                eprintln!("campaignd worker: protocol error: {e}");
                return 2;
            }
        };
        if frame == "QUIT" {
            return 0;
        }
        let Some(id) = frame.strip_prefix("RUN ").and_then(|s| s.parse::<usize>().ok()) else {
            eprintln!("campaignd worker: unknown frame {frame:?}");
            return 2;
        };
        let Some(prop) = props.get(id) else {
            let _ = write_frame(&mut output, &format!("ERR {id} no such job"));
            continue;
        };
        let journal = dir.journal(id);
        let claim = journal.mark_running(pid, started);
        let outcome = claim.and_then(|()| run_job(&dir, &spec, prop, id, &mut output));
        match outcome {
            Ok(JobEnd::Done(record)) => {
                if let Err(e) = journal.mark_done(&record) {
                    let _ = write_frame(&mut output, &format!("ERR {id} journal write: {e}"));
                    continue;
                }
                // The journal's done line owns the result now; the
                // checkpoint is scratch state and can go.
                std::fs::remove_file(dir.ckpt_path(id)).ok();
                let msg = format!("DONE {id} {}", to_hex(&encode_record(&record)));
                if write_frame(&mut output, &msg).is_err() {
                    return 2;
                }
            }
            Ok(JobEnd::Interrupted) => return 0,
            Err(e) => {
                let _ = write_frame(&mut output, &format!("ERR {id} {e}"));
            }
        }
        if signal::shutdown_requested() {
            return 0;
        }
    }
}

/// The self-exec hook: if this process was launched as
/// `<exe> --worker <campaign-dir>`, runs the worker loop and returns
/// its exit code; `None` otherwise. Every binary that can host a
/// campaign daemon (`campaignd`, `campaign_ctl`) must call this first,
/// because the daemon shards by re-executing `current_exe()`.
pub fn maybe_run_worker() -> Option<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, dir] if flag == "--worker" => Some(run_worker(Path::new(dir))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "RUN 42").unwrap(); // lint: allow
        write_frame(&mut buf, "").unwrap(); // lint: allow
        write_frame(&mut buf, "DONE 42 deadbeef").unwrap(); // lint: allow
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("RUN 42")); // lint: allow
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("")); // lint: allow
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("DONE 42 deadbeef")); // lint: allow
        assert_eq!(read_frame(&mut r).unwrap(), None); // lint: allow
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "READY").unwrap(); // lint: allow
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err(), "mid-frame EOF must error");
    }

    #[test]
    fn cancel_bridge_ends_with_the_job_not_the_poll() {
        // A poll period far beyond the test's patience: the bridge must
        // wake because the job ended, not because the period elapsed.
        let (job_running, bridge) =
            spawn_cancel_bridge(CancelToken::new(), Duration::from_secs(60));
        let t0 = Instant::now();
        drop(job_running);
        bridge.join().unwrap(); // lint: allow
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "join took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::from((1u32 << 30).to_le_bytes());
        buf.extend_from_slice(b"xx");
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }
}
