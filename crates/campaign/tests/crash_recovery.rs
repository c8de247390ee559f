//! End-to-end crash recovery: a campaign daemon killed with `kill -9`
//! mid-flight and restarted must reproduce the uninterrupted run's
//! Table 2 byte-for-byte, and the same per-property records modulo
//! wall-clock durations, and must leave a finished campaign with no
//! pending or running job and no daemon lock.
//!
//! The test drives the real `campaignd` binary (daemon + worker
//! processes), not in-process shims — the recovery path under test is
//! journal scanning, orphan reaping and checkpoint resume across
//! actual process boundaries.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn campaignd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaignd"))
}

fn temp_campaign_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veridic-crash-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Submits the shared spec: the small bug-seeded chip, two worker
/// shards, one-round slices (maximum checkpoint traffic).
fn submit(dir: &Path) {
    let status = campaignd()
        .arg("submit")
        .arg(dir)
        .args(["with_bugs", "true"])
        .args(["shards", "2"])
        .args(["slice_rounds", "1"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn campaignd submit"); // lint: allow
    assert!(status.success(), "submit failed: {status}");
}

fn run_to_completion(dir: &Path) {
    let output = campaignd()
        .arg("run")
        .arg(dir)
        .stdout(Stdio::piped())
        .output()
        .expect("spawn campaignd run"); // lint: allow
    assert!(
        output.status.success(),
        "run failed: {} / {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

fn results_line_count(dir: &Path) -> usize {
    fs::read_to_string(dir.join("results.ndjson"))
        .map(|t| t.lines().count())
        .unwrap_or(0)
}

/// Worker processes of the campaign in `dir`, found by /proc cmdline
/// (the campaign path is a unique temp dir, so matches are ours).
fn worker_pids(dir: &Path) -> Vec<u32> {
    let needle = format!("--worker\0{}", dir.display()).into_bytes();
    let mut pids = Vec::new();
    let Ok(entries) = fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_string_lossy().parse::<u32>().ok() else {
            continue;
        };
        let Ok(cmdline) = fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        if cmdline.windows(needle.len()).any(|w| w == needle) {
            pids.push(pid);
        }
    }
    pids
}

fn kill9(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

/// One record line with its wall-clock tail (`"duration_ms":N}`)
/// removed — everything else must be deterministic.
fn strip_duration(line: &str) -> String {
    match line.rsplit_once(",\"duration_ms\"") {
        Some((head, _)) => format!("{head}}}"),
        None => line.to_string(),
    }
}

/// The deterministic view of `results.ndjson`: record lines minus
/// durations, sorted (shards complete in nondeterministic order), with
/// the campaign summary line (keyed by `total_time_ms`) dropped.
fn canonical_records(dir: &Path) -> Vec<String> {
    let text = fs::read_to_string(dir.join("results.ndjson")).expect("results.ndjson"); // lint: allow
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.contains("\"total_time_ms\""))
        .map(strip_duration)
        .collect();
    lines.sort();
    lines
}

#[test]
fn kill_dash_nine_mid_campaign_recovers_to_identical_table2() {
    let baseline = temp_campaign_dir("baseline");
    let crashed = temp_campaign_dir("crashed");

    // Uninterrupted reference run.
    submit(&baseline);
    run_to_completion(&baseline);
    let reference_table2 =
        fs::read_to_string(baseline.join("table2.txt")).expect("baseline table2"); // lint: allow
    let reference_records = canonical_records(&baseline);
    assert!(
        !reference_records.is_empty(),
        "baseline produced no records"
    );

    // Same campaign, but the daemon dies hard mid-flight.
    submit(&crashed);
    let mut daemon = campaignd()
        .arg("run")
        .arg(&crashed)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn campaignd run"); // lint: allow
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut killed_mid_flight = false;
    loop {
        if results_line_count(&crashed) >= 2 {
            daemon.kill().expect("kill -9 daemon"); // lint: allow
            for pid in worker_pids(&crashed) {
                kill9(pid);
            }
            killed_mid_flight = true;
            break;
        }
        if let Ok(Some(_)) = daemon.try_wait() {
            // The campaign finished before we could kill it; recovery
            // is not exercised but the equality checks below still
            // hold. (With 1-round slices this should not happen.)
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never produced 2 results"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = daemon.wait();
    // Wait for the killed workers to disappear before restarting.
    let reap_deadline = Instant::now() + Duration::from_secs(30);
    while !worker_pids(&crashed).is_empty() {
        assert!(Instant::now() < reap_deadline, "workers survived kill -9");
        std::thread::sleep(Duration::from_millis(10));
    }

    if killed_mid_flight {
        // Restart: journals are reaped, checkpoints resumed.
        run_to_completion(&crashed);
    }

    let recovered_table2 =
        fs::read_to_string(crashed.join("table2.txt")).expect("recovered table2"); // lint: allow
    assert_eq!(
        recovered_table2, reference_table2,
        "recovered Table 2 must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        canonical_records(&crashed),
        reference_records,
        "recovered records must match the uninterrupted run modulo durations"
    );

    // status on the recovered campaign: everything done, no daemon.
    let output = campaignd()
        .arg("status")
        .arg(&crashed)
        .output()
        .expect("status"); // lint: allow
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        text.contains("0 pending, 0 running"),
        "unexpected status: {text}"
    );
    assert!(text.contains("no daemon"), "pid lock not released: {text}");

    fs::remove_dir_all(&baseline).ok();
    fs::remove_dir_all(&crashed).ok();
}
