//! The campaign daemon: a crash-recoverable verification service over
//! one campaign directory.
//!
//! [`submit`] lays the directory out (spec, one `pending` journal per
//! property, module-preparation errors); [`run`] is the daemon proper:
//! it scans every journal, reaps `running` entries whose worker process
//! is gone (orphans of a killed daemon), shards the pending properties across
//! worker **processes** (`current_exe() --worker`, frame protocol over
//! pipes), streams every finished [`PropertyRecord`] to
//! `results.ndjson` as it arrives, and renders the final Table 2 +
//! summary line when the last journal reads `done`.
//!
//! Crash recovery is nothing special-cased: the journal state machine
//! and the slice-aligned checkpoints (see [`crate::worker`]) mean a
//! `kill -9`'d daemon restarted with [`run`] finishes the campaign
//! with verdicts — and therefore a Table 2 — byte-identical to an
//! uninterrupted run. A SIGTERM'd daemon additionally flushes every
//! in-flight checkpoint before exiting (forwarded to the workers, who
//! suspend at the next cooperative engine tick).

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use veridic_chipgen::Chip;
use veridic_core::flow::{CampaignReport, PropertyRecord};

use crate::journal::{from_hex, JobState};
use crate::signal;
use crate::spec::{CampaignSpec, SpecError};
use crate::store::write_atomic;
use crate::worker::{enumerate_jobs, read_frame, write_frame, CampaignDir};

/// A campaign service failure.
#[derive(Debug)]
pub enum DaemonError {
    /// Filesystem or pipe failure.
    Io(io::Error),
    /// The campaign spec is missing or malformed.
    Spec(SpecError),
    /// [`submit`] refused to overwrite an existing campaign.
    AlreadyExists,
    /// Another daemon is alive on this campaign directory.
    AlreadyRunning {
        /// The live daemon's pid.
        pid: u32,
    },
    /// The directory holds no submitted campaign.
    NotSubmitted,
    /// Worker processes kept dying; the campaign cannot make progress.
    WorkersFailing(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "campaign I/O error: {e}"),
            DaemonError::Spec(e) => write!(f, "campaign spec error: {e}"),
            DaemonError::AlreadyExists => write!(f, "campaign directory already submitted"),
            DaemonError::AlreadyRunning { pid } => {
                write!(f, "a daemon (pid {pid}) is already running this campaign")
            }
            DaemonError::NotSubmitted => write!(f, "no campaign submitted here (missing spec.txt)"),
            DaemonError::WorkersFailing(msg) => write!(f, "workers failing repeatedly: {msg}"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io(e) => Some(e),
            DaemonError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DaemonError {
    fn from(e: io::Error) -> Self {
        DaemonError::Io(e)
    }
}

/// What [`submit`] created.
#[derive(Clone, Copy, Debug)]
pub struct SubmitSummary {
    /// Properties enqueued (one journal each).
    pub jobs: usize,
    /// Modules that failed preparation (recorded, not enqueued).
    pub module_errors: usize,
}

/// Lays out a campaign directory: writes `spec.txt`, enumerates the
/// chip's properties, creates one `pending` journal per property and
/// records module-preparation errors. Refuses to overwrite an existing
/// campaign (journals are the source of truth for completed work).
pub fn submit(root: &Path, spec: &CampaignSpec) -> Result<SubmitSummary, DaemonError> {
    let dir = CampaignDir::new(root);
    if dir.spec_path().exists() {
        return Err(DaemonError::AlreadyExists);
    }
    fs::create_dir_all(dir.jobs_dir())?;
    fs::create_dir_all(dir.ckpt_dir())?;
    write_atomic(&dir.spec_path(), spec.to_text().as_bytes())?;
    let (props, errors) = enumerate_jobs(spec);
    for id in 0..props.len() {
        dir.journal(id).mark_pending()?;
    }
    let mut errors_text = String::new();
    for (module, reason) in &errors {
        let reason = reason.replace(['\t', '\n'], " ");
        errors_text.push_str(module);
        errors_text.push('\t');
        errors_text.push_str(&reason);
        errors_text.push('\n');
    }
    write_atomic(&dir.errors_path(), errors_text.as_bytes())?;
    Ok(SubmitSummary { jobs: props.len(), module_errors: errors.len() })
}

/// A point-in-time view of a campaign directory.
#[derive(Clone, Debug)]
pub struct StatusSummary {
    /// Total journaled properties.
    pub jobs: usize,
    /// Jobs never started (or orphaned by a crashed daemon).
    pub pending: usize,
    /// Jobs claimed by a live worker right now.
    pub running: usize,
    /// Jobs with a journaled verdict.
    pub done: usize,
    /// The live daemon's pid, if one holds the lock.
    pub daemon_pid: Option<u32>,
}

/// Lists the journal ids present in the campaign, ascending.
fn job_ids(dir: &CampaignDir) -> Result<Vec<usize>, DaemonError> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir.jobs_dir()).map_err(|_| DaemonError::NotSubmitted)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name.strip_suffix(".journal").and_then(|s| s.parse().ok()) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

fn read_pid_lock(dir: &CampaignDir) -> Option<u32> {
    let text = fs::read_to_string(dir.pid_path()).ok()?;
    let pid: u32 = text.trim().parse().ok()?;
    signal::pid_alive(pid).then_some(pid)
}

/// Summarizes a campaign directory without touching its state.
pub fn status(root: &Path) -> Result<StatusSummary, DaemonError> {
    let dir = CampaignDir::new(root);
    if !dir.spec_path().exists() {
        return Err(DaemonError::NotSubmitted);
    }
    let ids = job_ids(&dir)?;
    let mut summary = StatusSummary {
        jobs: ids.len(),
        pending: 0,
        running: 0,
        done: 0,
        daemon_pid: read_pid_lock(&dir),
    };
    for id in ids {
        match dir.journal(id).load().effective() {
            JobState::Pending => summary.pending += 1,
            JobState::Running { .. } => summary.running += 1,
            JobState::Done(_) => summary.done += 1,
        }
    }
    Ok(summary)
}

/// How a daemon run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every property concluded; the final report (also rendered to
    /// `table2.txt` and summarized in `results.ndjson`).
    Completed(Box<CampaignReport>),
    /// A termination signal arrived; checkpoints are flushed and the
    /// campaign resumes from the journals on the next [`run`].
    Interrupted {
        /// Jobs with a journaled verdict at exit.
        done: usize,
        /// Total journaled jobs.
        total: usize,
    },
}

/// A message from one worker's reader thread.
enum WorkerMsg {
    Frame(String),
    Exited,
}

/// One worker process under daemon supervision.
struct WorkerSlot {
    child: Child,
    stdin: ChildStdin,
    /// The job the worker is currently running.
    current: Option<usize>,
    /// Whether QUIT was already sent.
    quitting: bool,
    alive: bool,
}

fn spawn_worker(
    root: &Path,
    index: usize,
    tx: &mpsc::Sender<(usize, WorkerMsg)>,
) -> Result<WorkerSlot, DaemonError> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .arg("--worker")
        .arg(root)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdin = child
        .stdin
        .take()
        .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin missing"))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker stdout missing"))?;
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut stdout = stdout;
        loop {
            match read_frame(&mut stdout) {
                Ok(Some(frame)) => {
                    if tx.send((index, WorkerMsg::Frame(frame))).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send((index, WorkerMsg::Exited));
                    return;
                }
            }
        }
    });
    Ok(WorkerSlot { child, stdin, current: None, quitting: false, alive: true })
}

/// The daemon supervision state, threaded through the message loop.
struct Supervisor {
    pending: Vec<usize>,
    done: BTreeMap<usize, PropertyRecord>,
    job_errors: Vec<(String, String)>,
    workers: Vec<WorkerSlot>,
    respawns_left: usize,
}

impl Supervisor {
    fn in_flight(&self) -> usize {
        self.workers.iter().filter(|w| w.current.is_some()).count()
    }

    fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Hands the next pending job to worker `index`, or QUIT if the
    /// queue is drained.
    fn assign(&mut self, index: usize) -> io::Result<()> {
        let slot = &mut self.workers[index];
        if let Some(id) = self.pending.first().copied() {
            self.pending.remove(0);
            slot.current = Some(id);
            write_frame(&mut slot.stdin, &format!("RUN {id}"))
        } else if !slot.quitting {
            slot.quitting = true;
            write_frame(&mut slot.stdin, "QUIT")
        } else {
            Ok(())
        }
    }
}

/// Appends one line to the NDJSON results stream.
fn append_ndjson(dir: &CampaignDir, line: &str) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(dir.results_path())?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")?;
    f.flush()
}

/// Reads the module-preparation errors recorded at submit time.
fn read_module_errors(dir: &CampaignDir) -> Vec<(String, String)> {
    let Ok(text) = fs::read_to_string(dir.errors_path()) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| l.split_once('\t').map(|(m, r)| (m.to_string(), r.to_string())))
        .collect()
}

/// Runs the campaign in `root` to completion (or until a termination
/// signal): recovers journal state, shards pending properties across
/// `spec.shards` worker processes, streams results, renders the final
/// tables. Idempotent — re-running a completed campaign just re-renders
/// its report from the journals.
pub fn run(root: &Path) -> Result<RunOutcome, DaemonError> {
    signal::install_shutdown_handler();
    let t0 = Instant::now();
    let dir = CampaignDir::new(root);
    let spec_text = fs::read_to_string(dir.spec_path()).map_err(|_| DaemonError::NotSubmitted)?;
    let spec = CampaignSpec::parse(&spec_text).map_err(DaemonError::Spec)?;

    if let Some(pid) = read_pid_lock(&dir) {
        if pid != std::process::id() {
            return Err(DaemonError::AlreadyRunning { pid });
        }
    }
    write_atomic(&dir.pid_path(), std::process::id().to_string().as_bytes())?;

    // Journal recovery: `running` entries of gone workers are orphans
    // and re-queue; their persisted checkpoints make the re-run a
    // resume, not a restart.
    let ids = job_ids(&dir)?;
    let total = ids.len();
    let mut sup = Supervisor {
        pending: Vec::new(),
        done: BTreeMap::new(),
        job_errors: Vec::new(),
        workers: Vec::new(),
        respawns_left: 2 * spec.shards + 4,
    };
    for id in &ids {
        match dir.journal(*id).load().effective() {
            JobState::Done(record) => {
                sup.done.insert(*id, *record);
            }
            JobState::Pending | JobState::Running { .. } => sup.pending.push(*id),
        }
    }

    // Re-baseline the streaming log so it holds exactly the journaled
    // records (a crash can journal a record without its NDJSON line);
    // new completions append after it.
    let mut baseline = String::new();
    for record in sup.done.values() {
        baseline.push_str(&record.to_json());
        baseline.push('\n');
    }
    write_atomic(&dir.results_path(), baseline.as_bytes())?;

    if !sup.pending.is_empty() {
        let shard_count = spec.shards.max(1).min(sup.pending.len());
        let (tx, rx) = mpsc::channel();
        for i in 0..shard_count {
            sup.workers.push(spawn_worker(root, i, &tx)?);
        }

        let interrupted = loop {
            if signal::shutdown_requested() {
                break true;
            }
            if sup.pending.is_empty() && sup.in_flight() == 0 {
                // Drain: ask every live worker to quit, then wait for
                // their reader threads to observe EOF.
                for i in 0..sup.workers.len() {
                    if sup.workers[i].alive && !sup.workers[i].quitting {
                        sup.assign(i)?;
                    }
                }
                if sup.live_workers() == 0 {
                    break false;
                }
            }
            let (index, msg) = match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(m) => m,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            };
            match msg {
                WorkerMsg::Frame(frame) => {
                    if frame == "READY" {
                        sup.assign(index)?;
                    } else if let Some(rest) = frame.strip_prefix("DONE ") {
                        if let Some((id_text, hex)) = rest.split_once(' ') {
                            let id: usize = id_text.parse().unwrap_or(usize::MAX);
                            if sup.workers[index].current == Some(id) {
                                sup.workers[index].current = None;
                            }
                            match from_hex(hex).and_then(|b| crate::codec::decode_record(&b).ok())
                            {
                                Some(record) => {
                                    append_ndjson(&dir, &record.to_json())?;
                                    sup.done.insert(id, record);
                                }
                                None => sup.job_errors.push((
                                    format!("job-{id}"),
                                    "worker sent an undecodable record".to_string(),
                                )),
                            }
                            sup.assign(index)?;
                        }
                    } else if let Some(rest) = frame.strip_prefix("ERR ") {
                        let (id_text, msg) = rest.split_once(' ').unwrap_or((rest, ""));
                        let id: usize = id_text.parse().unwrap_or(usize::MAX);
                        if sup.workers[index].current == Some(id) {
                            sup.workers[index].current = None;
                        }
                        sup.job_errors.push((format!("job-{id}"), msg.to_string()));
                        sup.assign(index)?;
                    }
                    // CKPT and WARN frames are heartbeats/notices only.
                }
                WorkerMsg::Exited => {
                    let slot = &mut sup.workers[index];
                    slot.alive = false;
                    let _ = slot.child.wait();
                    if let Some(id) = slot.current.take() {
                        if !signal::shutdown_requested() {
                            // The worker died mid-job: re-queue (the
                            // journal's dead running entry makes it a
                            // resume) and replace the worker.
                            sup.pending.insert(0, id);
                            if sup.respawns_left == 0 {
                                return Err(DaemonError::WorkersFailing(format!(
                                    "worker died on job {id} with no respawn budget left"
                                )));
                            }
                            sup.respawns_left -= 1;
                            sup.workers[index] = spawn_worker(root, index, &tx)?;
                        }
                    }
                }
            }
        };

        if interrupted {
            // Graceful wind-down: forward SIGTERM so each worker
            // flushes its in-flight checkpoint, then wait for exits.
            for slot in &mut sup.workers {
                if slot.alive {
                    signal::send_sigterm(slot.child.id());
                }
            }
            for slot in &mut sup.workers {
                if slot.alive {
                    let _ = slot.child.wait();
                }
            }
            fs::remove_file(dir.pid_path()).ok();
            return Ok(RunOutcome::Interrupted { done: sup.done.len(), total });
        }
        for slot in &mut sup.workers {
            let _ = slot.child.wait();
        }
    }

    // Finalize: the journals hold every verdict; render the report.
    let report = CampaignReport {
        records: sup.done.into_values().collect(),
        errors: {
            let mut errors = read_module_errors(&dir);
            errors.append(&mut sup.job_errors);
            errors
        },
        total_time: t0.elapsed(),
    };
    let chip = Chip::generate(&spec.chip_config());
    write_atomic(&dir.table2_path(), report.render_table2(&chip).as_bytes())?;
    append_ndjson(&dir, &report.to_json())?;
    fs::remove_file(dir.pid_path()).ok();
    Ok(RunOutcome::Completed(Box::new(report)))
}
