//! `campaign_ctl` — operator console for the campaign service.
//!
//! Usage: `cargo run --release -p veridic-bench --bin campaign_ctl -- <verb> <dir> ...`
//!
//! | verb | effect |
//! |---|---|
//! | `submit <dir> [key value]...` | lay out a campaign directory |
//! | `status <dir>` | journal state counts + daemon liveness |
//! | `resume <dir>` | run the daemon (fresh or crash-recovered) |
//! | `tail <dir> [n]` | last `n` (default 10) `results.ndjson` lines |
//!
//! `submit` takes campaign-spec overrides as `key value` pairs
//! (`scale small|full`, `with_bugs true`, `shards 4`, `slice_rounds 8`,
//! plus any `CheckOptions` field). `resume` is the
//! same verb for a first run and for recovery after a crash — the
//! journals decide what is left to do.

use std::path::Path;
use std::process::ExitCode;

use veridic::campaign::{self, CampaignDir, CampaignSpec, RunOutcome};
use veridic::prelude::maybe_run_worker;

fn usage() -> ExitCode {
    eprintln!(
        "usage: campaign_ctl submit <dir> [key value]... | status <dir> | resume <dir> | \
         tail <dir> [n]"
    );
    ExitCode::from(2)
}

fn fail(err: impl std::fmt::Display) -> ExitCode {
    eprintln!("campaign_ctl: {err}");
    ExitCode::FAILURE
}

fn spec_from_pairs(pairs: &[String]) -> Result<CampaignSpec, String> {
    if pairs.len() % 2 != 0 {
        return Err("spec overrides must come in `key value` pairs".to_string());
    }
    let mut text = String::from("veridic-campaign-spec v1\n");
    for pair in pairs.chunks(2) {
        text.push_str(&format!("{} {}\n", pair[0], pair[1]));
    }
    CampaignSpec::parse(&text).map_err(|e| e.to_string())
}

fn tail(dir: &Path, n: usize) -> ExitCode {
    let path = CampaignDir::new(dir).results_path();
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let lines: Vec<&str> = text.lines().collect();
            for line in lines.iter().skip(lines.len().saturating_sub(n)) {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("{}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    // The daemon shards by re-executing current_exe(), so this binary
    // must answer the --worker calling convention too.
    if let Some(code) = maybe_run_worker() {
        return ExitCode::from(u8::try_from(code.rem_euclid(256)).unwrap_or(1));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((verb, rest)) = args.split_first() else {
        return usage();
    };
    let Some((dir, extra)) = rest.split_first() else {
        return usage();
    };
    let dir = Path::new(dir);
    match verb.as_str() {
        "submit" => {
            let spec = match spec_from_pairs(extra) {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            match campaign::submit(dir, &spec) {
                Ok(s) => {
                    println!(
                        "submitted {} jobs ({} module errors) to {}",
                        s.jobs,
                        s.module_errors,
                        dir.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "status" => match campaign::status(dir) {
            Ok(s) => {
                let daemon = match s.daemon_pid {
                    Some(pid) => format!("daemon pid {pid}"),
                    None => "no daemon".to_string(),
                };
                println!(
                    "{} jobs: {} pending, {} running, {} done ({daemon})",
                    s.jobs, s.pending, s.running, s.done
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "resume" => match campaign::run(dir) {
            Ok(RunOutcome::Completed(report)) => {
                println!(
                    "campaign complete: {} records, {} errors; table2.txt written",
                    report.records.len(),
                    report.errors.len()
                );
                ExitCode::SUCCESS
            }
            Ok(RunOutcome::Interrupted { done, total }) => {
                println!("interrupted: {done}/{total} done; `resume` again to continue");
                ExitCode::from(3)
            }
            Err(e) => fail(e),
        },
        "tail" => {
            let n = extra.first().and_then(|s| s.parse().ok()).unwrap_or(10);
            tail(dir, n)
        }
        _ => usage(),
    }
}
