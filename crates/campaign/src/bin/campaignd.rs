//! `campaignd` — the campaign service binary.
//!
//! One executable plays both roles: invoked as `campaignd --worker <dir>`
//! it becomes a verification worker on the daemon's pipe protocol;
//! otherwise it exposes the service verbs:
//!
//! ```text
//! campaignd submit <dir> [key value]...   lay out a campaign directory
//! campaignd run <dir>                     run/resume the campaign
//! campaignd status <dir>                  one-line state summary
//! ```
//!
//! `submit` accepts `key value` pairs in the campaign-spec vocabulary
//! (`scale small|full`, `with_bugs true`, `shards 4`,
//! `slice_rounds 16`, plus any `CheckOptions` field — see
//! `CampaignSpec`).

use std::path::Path;
use std::process::ExitCode;

use veridic_campaign::{maybe_run_worker, run, status, submit, CampaignSpec, RunOutcome};

fn usage() -> ExitCode {
    eprintln!("usage: campaignd submit <dir> [key value]... | run <dir> | status <dir>");
    ExitCode::from(2)
}

fn fail(err: impl std::fmt::Display) -> ExitCode {
    eprintln!("campaignd: {err}");
    ExitCode::FAILURE
}

fn parse_spec(pairs: &[String]) -> Result<CampaignSpec, String> {
    if pairs.len() % 2 != 0 {
        return Err("spec overrides must come in `key value` pairs".to_string());
    }
    let mut text = String::from("veridic-campaign-spec v1\n");
    for pair in pairs.chunks(2) {
        text.push_str(&format!("{} {}\n", pair[0], pair[1]));
    }
    // Round through the parser so overrides get the same closed-world
    // validation as a spec file; unspecified keys keep their defaults.
    CampaignSpec::parse(&text).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    if let Some(code) = maybe_run_worker() {
        return ExitCode::from(u8::try_from(code.rem_euclid(256)).unwrap_or(1));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (verb, rest) = match args.split_first() {
        Some((v, rest)) => (v.as_str(), rest),
        None => return usage(),
    };
    let Some((dir, extra)) = rest.split_first() else {
        return usage();
    };
    let dir = Path::new(dir);
    match verb {
        "submit" => match parse_spec(extra)
            .map_err(|e| e.to_string())
            .and_then(|spec| submit(dir, &spec).map_err(|e| e.to_string()))
        {
            Ok(summary) => {
                println!(
                    "submitted {} jobs ({} module errors) to {}",
                    summary.jobs,
                    summary.module_errors,
                    dir.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "run" => match run(dir) {
            Ok(RunOutcome::Completed(report)) => {
                println!(
                    "campaign complete: {} records, {} errors",
                    report.records.len(),
                    report.errors.len()
                );
                ExitCode::SUCCESS
            }
            Ok(RunOutcome::Interrupted { done, total }) => {
                println!("campaign interrupted: {done}/{total} done; run again to resume");
                ExitCode::from(3)
            }
            Err(e) => fail(e),
        },
        "status" => match status(dir) {
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
        _ => usage(),
    }
}
