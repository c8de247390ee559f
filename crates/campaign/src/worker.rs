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
//! [`RunCheckpoint`](veridic_mc::RunCheckpoint) is persisted atomically
//! before the next slice starts — so a `kill -9` at any instant loses
//! at most the slice in flight, and the restarted run replays from the
//! last boundary with the same slice grid an uninterrupted run uses.
//! That alignment is what makes the resumed verdict, falsification
//! depth and completed-round count equal to an uninterrupted run's,
//! byte for byte in the final tables.
//!
//! SIGTERM is gentler than `kill -9`: a watcher thread bridges the
//! [`crate::signal`] flag into the slice's
//! [`CancelToken`], the engine suspends at its
//! next cooperative tick, the (mid-slice) checkpoint is flushed, and
//! the worker exits cleanly.
//!
//! A worker runs each distinct cone of influence once: it keeps a
//! [`ConeCache`] for as long as it runs, and a job with no checkpoint
//! to resume whose cone an earlier job of this worker ran fresh to the
//! end replays that record, with no slice and no `CKPT` frame.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use veridic_chipgen::Chip;
use veridic_core::flow::{module_properties, record_from_result, PreparedProperty, PropertyRecord};
use veridic_mc::{Budget, CancelToken, ConeCache, Portfolio, PortfolioOutcome};

use crate::codec::{encode_record, CheckpointFile};
use crate::journal::{to_hex, Journal};
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
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
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

/// Bridges a shutdown flag (in the worker,
/// [`signal::shutdown_requested`]) into a job's cancel token: a small
/// thread polling `shutdown` every `poll` until cancellation fires or
/// the job ends. The job ends the bridge by dropping the returned
/// sender, which wakes it at once, so joining it adds no wait to the
/// job.
fn spawn_cancel_bridge(
    token: CancelToken,
    poll: Duration,
    shutdown: fn() -> bool,
) -> (mpsc::Sender<()>, JoinHandle<()>) {
    let (job_running, job_ended) = mpsc::channel::<()>();
    let bridge = std::thread::spawn(move || loop {
        if shutdown() {
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
/// persisting a fingerprint-bound checkpoint at every boundary, or
/// replays the record of its cone from `cones`, the worker's cache.
/// `shutdown` is the flag that interrupts the job
/// ([`signal::shutdown_requested`] in the worker).
fn run_job(
    dir: &CampaignDir,
    spec: &CampaignSpec,
    prop: &PreparedProperty,
    id: usize,
    out: &mut impl Write,
    shutdown: fn() -> bool,
    cones: &ConeCache,
) -> io::Result<JobEnd> {
    let t0 = Instant::now();
    let aig_fp = prop.aig.fingerprint();
    let opts_fp = spec.check.fingerprint();
    let ckpt_path = dir.ckpt_path(id);
    // A checkpoint left by a previous (killed) daemon resumes the run;
    // damaged or mismatched files are reported and ignored — the job
    // restarts from scratch rather than resuming wrongly. The sibling
    // asserts of one vunit share its AIG, so the fingerprints cannot
    // tell their checkpoints apart: the bad index must match too. A
    // file that passes all of this can still not fit the cascade (a
    // slot, engine state or window split this run does not have);
    // the portfolio refuses it, and it is ignored the same way.
    let resume = match store::load_checkpoint(&ckpt_path, Some((aig_fp, opts_fp))) {
        Ok(file) if file.state.bad_index == prop.bad_index => Some(file.state),
        Ok(file) => {
            let msg = format!(
                "WARN {id} stale checkpoint ignored: it is for bad {}, this job checks bad {}",
                file.state.bad_index, prop.bad_index
            );
            write_frame(out, &msg)?;
            None
        }
        Err(store::LoadError::Io(_)) => None,
        Err(store::LoadError::Codec(e)) => {
            write_frame(out, &format!("WARN {id} stale checkpoint ignored: {e}"))?;
            None
        }
    };
    // Only a job with no checkpoint to resume reads the cone cache: a
    // hit replays the record of a fresh run of the same cone in this
    // worker, with no engine, slice or checkpoint write. A miss fills
    // the cache once its fresh run is done. A resumed run can end on
    // another slice grid, so it neither reads nor fills the cache.
    let miss = match resume {
        Some(_) => None,
        None => match cones.lookup(&prop.aig, prop.bad_index) {
            Ok(hit) => {
                let record = record_from_result(prop, hit, t0.elapsed());
                return Ok(JobEnd::Done(Box::new(record)));
            }
            Err(miss) => Some(miss),
        },
    };

    let token = CancelToken::new();
    let (job_running, bridge) = spawn_cancel_bridge(token.clone(), SHUTDOWN_POLL, shutdown);
    let portfolio = Portfolio::default();
    let slice = || Budget::rounds(spec.slice_rounds.max(1)).with_cancel(&token);
    let fresh =
        || portfolio.check_bad_with_budget(&prop.aig, prop.bad_index, &spec.check, &mut slice());
    let resumed =
        resume.map(|ck| portfolio.resume_bad_with_budget(&prop.aig, &spec.check, ck, &mut slice()));
    let mut outcome = match resumed {
        Some(Ok(outcome)) => outcome,
        Some(Err(misfit)) => {
            write_frame(
                out,
                &format!("WARN {id} stale checkpoint ignored: {misfit}"),
            )?;
            fresh()
        }
        None => fresh(),
    };
    let result = loop {
        match outcome {
            PortfolioOutcome::Done(result) => break Some(result),
            PortfolioOutcome::Suspended(state) => {
                let file = CheckpointFile {
                    aig_fingerprint: aig_fp,
                    options_fingerprint: opts_fp,
                    state,
                };
                store::save_checkpoint(&ckpt_path, &file)?;
                write_frame(out, &format!("CKPT {id}"))?;
                if shutdown() {
                    break None;
                }
                outcome = portfolio
                    .resume_bad_with_budget(&prop.aig, &spec.check, file.state, &mut slice())
                    .expect("the run's own checkpoint fits it"); // lint: allow
            }
        }
    };
    drop(job_running);
    let _ = bridge.join();
    if let (Some(miss), Some(result)) = (miss, &result) {
        cones.fill(miss, result);
    }

    Ok(match result {
        Some(result) => JobEnd::Done(Box::new(record_from_result(prop, result, t0.elapsed()))),
        None => JobEnd::Interrupted,
    })
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
    // One cone cache for the process: the spec, and so the portfolio
    // and the options, are fixed for its lifetime.
    let cones = ConeCache::new();
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
        let Some(id) = frame
            .strip_prefix("RUN ")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            eprintln!("campaignd worker: unknown frame {frame:?}");
            return 2;
        };
        let Some(prop) = props.get(id) else {
            let _ = write_frame(&mut output, &format!("ERR {id} no such job"));
            continue;
        };
        let journal = dir.journal(id);
        let claim = journal.mark_running(pid, started);
        let outcome = claim.and_then(|()| {
            run_job(
                &dir,
                &spec,
                prop,
                id,
                &mut output,
                signal::shutdown_requested,
                &cones,
            )
        });
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
    use crate::codec::CodecError;
    use veridic_bdd::ExportedBdd;
    use veridic_core::flow::check_property;
    use veridic_mc::{
        CheckOptions, CheckResult, CheckStats, CheckpointMisfit, EngineCheckpoint, EngineId,
        ReachCheckpoint, RunCheckpoint, Verdict,
    };

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "RUN 42").unwrap(); // lint: allow
        write_frame(&mut buf, "").unwrap(); // lint: allow
        write_frame(&mut buf, "DONE 42 deadbeef").unwrap(); // lint: allow
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("RUN 42")); // lint: allow
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("")); // lint: allow
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("DONE 42 deadbeef")
        ); // lint: allow
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
            spawn_cancel_bridge(CancelToken::new(), Duration::from_secs(60), || false);
        let t0 = Instant::now();
        drop(job_running);
        bridge.join().unwrap(); // lint: allow
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "join took {:?}",
            t0.elapsed()
        );
    }

    /// Runs job 7 of `prop` under the default spec with the cone cache
    /// `cones`, in a campaign directory named after `test`, over a
    /// checkpoint file that holds `ckpt` (if any); returns the job's
    /// frames and its record.
    fn run_job_in_dir(
        test: &str,
        prop: &PreparedProperty,
        ckpt: Option<&[u8]>,
        cones: &ConeCache,
    ) -> (Vec<String>, Box<PropertyRecord>) {
        let spec = CampaignSpec::default();
        let root = std::env::temp_dir().join(format!("veridic-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let dir = CampaignDir::new(&root);
        std::fs::create_dir_all(dir.ckpt_dir()).unwrap(); // lint: allow
        if let Some(bytes) = ckpt {
            std::fs::write(dir.ckpt_path(7), bytes).unwrap(); // lint: allow
        }

        let mut out = Vec::new();
        let end = run_job(&dir, &spec, prop, 7, &mut out, || false, cones).unwrap(); // lint: allow
        std::fs::remove_dir_all(&root).ok();

        let mut out = io::Cursor::new(out);
        let frames = std::iter::from_fn(|| read_frame(&mut out).unwrap()).collect(); // lint: allow
        let JobEnd::Done(record) = end else {
            panic!("the job must conclude, not be interrupted") // lint: allow
        };
        (frames, record)
    }

    /// The bytes of a checkpoint file that holds `state` under the
    /// default spec and `prop`'s own fingerprints.
    fn checkpoint_bytes(prop: &PreparedProperty, state: RunCheckpoint) -> Vec<u8> {
        CheckpointFile {
            aig_fingerprint: prop.aig.fingerprint(),
            options_fingerprint: CampaignSpec::default().check.fingerprint(),
            state,
        }
        .encode()
    }

    /// Runs job 7 of `prop` over a checkpoint file of `bytes`, with the
    /// cone cache `cones`; returns the job's first frame, after checking
    /// that its record is the job's own fresh verdict on its own bad.
    fn run_over_checkpoint(
        test: &str,
        prop: &PreparedProperty,
        bytes: &[u8],
        cones: &ConeCache,
    ) -> String {
        let (frames, record) = run_job_in_dir(test, prop, Some(bytes), cones);
        let spec = CampaignSpec::default();
        let own = check_property(prop, &Portfolio::default(), &spec.check);
        assert_eq!(record.verdict, own.verdict);
        let own_bad = &prop.aig.bads()[prop.bad_index].name;
        assert!(
            record.stats.events.iter().all(|e| &e.bad == own_bad),
            "every event must name {own_bad}: {:?}",
            record.stats.engines_tried()
        );
        frames.into_iter().next().unwrap_or_default()
    }

    /// The first property of the Small chip and a real checkpoint of
    /// it, suspended after one round (in BMC, the cascade's first slot).
    fn suspended_property() -> (PreparedProperty, RunCheckpoint) {
        let spec = CampaignSpec::default();
        let chip = Chip::generate(&spec.chip_config());
        let (props, _) = module_properties(&chip, &chip.modules()[0]);
        let prop = props.into_iter().next().expect("the module has a property"); // lint: allow
        let outcome = Portfolio::default().check_bad_with_budget(
            &prop.aig,
            prop.bad_index,
            &spec.check,
            &mut Budget::rounds(1),
        );
        let PortfolioOutcome::Suspended(ck) = outcome else {
            panic!("one round cannot conclude {}", prop.label) // lint: allow
        };
        (prop, ck)
    }

    /// The asserts of one vunit share its AIG, so a sibling's checkpoint
    /// passes both fingerprint checks. The job must still refuse it and
    /// check its own property from scratch, not journal the sibling's
    /// verdict under its own label.
    #[test]
    fn a_sibling_checkpoint_is_stale() {
        let spec = CampaignSpec::default();
        let chip = Chip::generate(&spec.chip_config());
        let opts = &spec.check;
        // A property, and the next assert of its vunit, whose run
        // suspends after one round (a real mid-cascade checkpoint).
        let (prop, sibling_ck) = chip
            .modules()
            .iter()
            .find_map(|mi| {
                let (props, _) = module_properties(&chip, mi);
                props.windows(2).find_map(|pair| {
                    let [prop, sib] = pair else { return None };
                    if prop.aig.fingerprint() != sib.aig.fingerprint() {
                        return None;
                    }
                    let (portfolio, slice) = (Portfolio::default(), &mut Budget::rounds(1));
                    match portfolio.check_bad_with_budget(&sib.aig, sib.bad_index, opts, slice) {
                        PortfolioOutcome::Suspended(ck) => Some((prop.clone(), ck)),
                        PortfolioOutcome::Done(_) => None,
                    }
                })
            })
            .expect("the Small chip has a vunit with two asserts"); // lint: allow
        let sibling_bad = sibling_ck.bad_index;
        let bytes = checkpoint_bytes(&prop, sibling_ck);
        let first = run_over_checkpoint("sibling", &prop, &bytes, &ConeCache::new());
        let warning = format!("WARN 7 stale checkpoint ignored: it is for bad {sibling_bad},");
        assert!(first.starts_with(&warning), "first frame: {first:?}");
    }

    /// A checkpoint that passes the codec, the fingerprints and the bad
    /// check can still not fit the cascade. Each such file must be
    /// reported and the job run afresh: a panic would repeat on every
    /// respawned worker.
    fn assert_misfit_is_stale(
        test: &str,
        prop: &PreparedProperty,
        state: RunCheckpoint,
        misfit: CheckpointMisfit,
    ) {
        let bytes = checkpoint_bytes(prop, state);
        let first = run_over_checkpoint(test, prop, &bytes, &ConeCache::new());
        assert_eq!(first, format!("WARN 7 stale checkpoint ignored: {misfit}"));
    }

    #[test]
    fn a_checkpoint_past_the_last_slot_is_stale() {
        let (prop, ck) = suspended_property();
        let state = RunCheckpoint { slot: 9, ..ck };
        let misfit = CheckpointMisfit::SlotOutOfRange { slot: 9, slots: 4 };
        assert_misfit_is_stale("past-last-slot", &prop, state, misfit);
    }

    #[test]
    fn a_bmc_state_at_the_induction_slot_is_stale() {
        let (prop, ck) = suspended_property();
        assert!(
            matches!(ck.state, EngineCheckpoint::Bmc { .. }),
            "{:?}",
            ck.state
        );
        let state = RunCheckpoint { slot: 1, ..ck };
        let misfit = CheckpointMisfit::WrongState {
            slot: 1,
            engine: EngineId::Induction,
        };
        assert_misfit_is_stale("bmc-at-induction", &prop, state, misfit);
    }

    /// The first property of the Small chip and a real checkpoint of
    /// its BDD-UMC run, suspended after one round, with the
    /// reachability state in it.
    fn suspended_reachability() -> (PreparedProperty, RunCheckpoint, ReachCheckpoint) {
        let (prop, _) = suspended_property();
        let bdd_only = CheckOptions {
            bdd_only: true,
            ..CampaignSpec::default().check
        };
        let slice = &mut Budget::rounds(1);
        let outcome =
            Portfolio::default().check_bad_with_budget(&prop.aig, prop.bad_index, &bdd_only, slice);
        let PortfolioOutcome::Suspended(ck) = outcome else {
            panic!(
                "one round of BDD reachability cannot conclude {}",
                prop.label
            ) // lint: allow
        };
        let (2, EngineCheckpoint::Reach(reach)) = (ck.slot, ck.state.clone()) else {
            panic!("BDD-UMC (slot 2) suspends, not {:?}", ck.state) // lint: allow
        };
        (prop, ck, reach)
    }

    /// `sets` rebuilt from its raw parts by `edit`.
    fn edited(
        sets: &ExportedBdd,
        edit: impl FnOnce(&mut Vec<(u32, u32, u32)>, &mut Vec<u32>),
    ) -> ExportedBdd {
        let mut nodes: Vec<_> = sets.raw_nodes().collect();
        let mut roots: Vec<_> = sets.raw_roots().collect();
        edit(&mut nodes, &mut roots);
        let order = sets.source_order().to_vec();
        ExportedBdd::from_raw_parts(nodes, roots, order).unwrap() // lint: allow
    }

    #[test]
    fn a_reach_checkpoint_with_the_wrong_window_count_is_stale() {
        let (prop, ck, reach) = suspended_reachability();
        // The one window's reached and frontier roots, doubled into two
        // windows.
        let sets = edited(&reach.sets, |_, roots| roots.extend(roots.clone()));
        let state = RunCheckpoint {
            state: EngineCheckpoint::Reach(ReachCheckpoint { sets, ..reach }),
            ..ck
        };
        let misfit = CheckpointMisfit::WindowCount {
            expected: 1,
            roots: 4,
        };
        assert_misfit_is_stale("window-count", &prop, state, misfit);
    }

    /// A node variable outside the transition system's variable space
    /// names no latch or input, and one near `u32::MAX` would make the
    /// importing manager grow its order maps to about 2^32 entries.
    #[test]
    fn a_reach_checkpoint_off_the_variable_space_is_stale() {
        let (prop, ck, reach) = suspended_reachability();
        // The session's manager tracks every variable of its system, so
        // the exported order covers exactly the variable space.
        let vars = reach.sets.source_order().len();
        for var in [1000, u32::MAX - 1] {
            let sets = edited(&reach.sets, |nodes, _| {
                let top = nodes.last_mut().expect("one round reaches a state set"); // lint: allow
                top.0 = var;
            });
            let state = RunCheckpoint {
                state: EngineCheckpoint::Reach(ReachCheckpoint {
                    sets,
                    ..reach.clone()
                }),
                ..ck.clone()
            };
            let misfit = CheckpointMisfit::VarOutOfRange { var, vars };
            assert_misfit_is_stale("var-space", &prop, state, misfit);
        }
    }

    /// A checkpoint file of the previous format version, written by the
    /// previous release for this job (its BMC run suspended after one
    /// round), is reported and the job runs afresh.
    #[test]
    fn a_version_two_checkpoint_file_is_stale() {
        const V2_CHECKPOINT: [u8; 83] = [
            86, 67, 75, 80, 2, 228, 216, 73, 58, 54, 98, 173, 6, 246, 114, 32, 236, 142, 214, 230,
            177, 0, 0, 0, 0, 1, 1, 9, 112, 67, 104, 101, 99, 107, 49, 95, 48, 3, 98, 109, 99, 7, 0,
            0, 0, 1, 17, 150, 1, 1, 9, 112, 67, 104, 101, 99, 107, 49, 95, 48, 17, 150, 1, 1, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 155, 150, 18, 120, 249, 242, 118, 22,
        ];
        let (prop, _) = suspended_property();
        let first = run_over_checkpoint("v2", &prop, &V2_CHECKPOINT, &ConeCache::new());
        let refusal = CodecError::UnsupportedVersion(2);
        assert_eq!(first, format!("WARN 7 stale checkpoint ignored: {refusal}"));
    }

    /// A stand-in result that names a property by its index.
    fn planted(reason: String) -> CheckResult {
        CheckResult {
            verdict: Verdict::ResourceOut { reason },
            stats: CheckStats::default(),
        }
    }

    /// Two properties of the Small chip with one cone, the first of
    /// which runs BMC, so its fresh run takes more than one slice.
    fn two_properties_with_one_cone() -> (PreparedProperty, PreparedProperty) {
        let spec = CampaignSpec::default();
        let chip = Chip::generate(&spec.chip_config());
        let props: Vec<PreparedProperty> = chip
            .modules()
            .iter()
            .flat_map(|mi| module_properties(&chip, mi).0)
            .collect();
        // Keys only: each cone stores the index of its first property.
        let cones = ConeCache::new();
        for (i, prop) in props.iter().enumerate() {
            let hit = match cones.lookup(&prop.aig, prop.bad_index) {
                Ok(hit) => hit,
                Err(miss) => {
                    cones.fill(miss, &planted(i.to_string()));
                    continue;
                }
            };
            let Verdict::ResourceOut { reason } = hit.verdict else {
                panic!("only indices are stored") // lint: allow
            };
            let first = &props[reason.parse::<usize>().unwrap()]; // lint: allow
            let own = check_property(first, &Portfolio::default(), &spec.check);
            if own.stats.events.iter().any(|e| e.engine == EngineId::Bmc) {
                return (first.clone(), prop.clone());
            }
        }
        panic!("the Small chip repeats no cone that BMC checks") // lint: allow
    }

    /// A job whose cone this worker has already run fresh to the end
    /// replays that run's record: no slice runs and no checkpoint is
    /// written, and the record is what its own fresh run gives.
    #[test]
    fn a_repeated_cone_replays_without_a_checkpoint() {
        let (first, second) = two_properties_with_one_cone();
        let cones = ConeCache::new();
        let (frames, _) = run_job_in_dir("cone-first", &first, None, &cones);
        assert!(frames.iter().any(|f| f == "CKPT 7"), "{frames:?}");
        assert_eq!(cones.len(), 1);

        let (frames, replayed) = run_job_in_dir("cone-second", &second, None, &cones);
        assert!(frames.is_empty(), "a hit writes no checkpoint: {frames:?}");
        let (_, fresh) = run_job_in_dir("cone-fresh", &second, None, &ConeCache::new());
        assert_eq!(replayed.label, fresh.label);
        assert_eq!(replayed.verdict, fresh.verdict);
        assert_eq!(replayed.stats, fresh.stats);
        let own = check_property(
            &second,
            &Portfolio::default(),
            &CampaignSpec::default().check,
        );
        assert_eq!(replayed.verdict, own.verdict);
    }

    /// A job resumed from a checkpoint neither reads nor fills the cone
    /// cache: a resumed run can end on another slice grid than a fresh
    /// one.
    #[test]
    fn a_resumed_job_bypasses_the_cone_cache() {
        let (prop, ck) = suspended_property();
        let cones = ConeCache::new();
        let bytes = checkpoint_bytes(&prop, ck);
        run_over_checkpoint("resume-fill", &prop, &bytes, &cones);
        assert!(cones.is_empty(), "a resumed run filled the cache");

        // `run_over_checkpoint` requires the job's own verdict, not the
        // planted one.
        let Err(miss) = cones.lookup(&prop.aig, prop.bad_index) else {
            panic!("the cache is empty") // lint: allow
        };
        cones.fill(miss, &planted("planted".into()));
        run_over_checkpoint("resume-read", &prop, &bytes, &cones);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::from((1u32 << 30).to_le_bytes());
        buf.extend_from_slice(b"xx");
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }
}
