//! One iteration of a repository benchmark workload, in its own process
//! so that its peak RSS is its own. `run.py` builds this binary, runs it
//! repeatedly and reports medians.
//!
//! ```text
//! perfbench --workload <table2_small|fig7_chain|service_small> --trace <0|1>
//!           --golden <dir> --work <dir> [--bless]
//! ```
//!
//! Prints one JSON line: the iteration's timings, its per-property check
//! durations, how many golden output lines it checked and how many
//! differed, and (traced) the per-layer metrics. `--bless` rewrites the
//! goldens from this iteration's outputs instead of checking them.

mod procfs;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    traced: bool,
    golden: PathBuf,
    work: PathBuf,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut golden, mut work) = (None, None, None);
    let (mut traced, mut bless) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--trace" => traced = value()? == "1",
            "--golden" => golden = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        traced,
        golden: golden.ok_or("--golden is required")?,
        work: work.ok_or("--work is required")?,
        bless,
    })
}

/// Checks each artifact line against its golden file (or writes the
/// goldens with `bless`); returns `(lines checked, lines differing)`.
/// A missing or extra line counts as differing.
fn check_goldens(
    dir: &Path,
    artifacts: &[(&'static str, Vec<String>)],
    bless: bool,
) -> std::io::Result<(usize, usize)> {
    let (mut attempted, mut failed) = (0, 0);
    for (name, lines) in artifacts {
        let path = dir.join(name);
        if bless {
            std::fs::write(
                &path,
                lines.iter().map(|l| format!("{l}\n")).collect::<String>(),
            )?;
            attempted += lines.len();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_default();
        let golden: Vec<&str> = golden.lines().collect();
        for i in 0..golden.len().max(lines.len()) {
            attempted += 1;
            let (want, got) = (golden.get(i).copied(), lines.get(i).map(String::as_str));
            if want != got {
                failed += 1;
                if failed <= 5 {
                    eprintln!(
                        "perfbench: {name}:{}: expected {want:?}, got {got:?}",
                        i + 1
                    );
                }
            }
        }
    }
    Ok((attempted, failed))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    // The campaign daemon shards by re-executing this binary.
    if let Some(code) = veridic::campaign::maybe_run_worker() {
        std::process::exit(code);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let iteration = match args.workload.as_str() {
        "table2_small" => workloads::table2_small(args.traced),
        "fig7_chain" => workloads::fig7_chain(args.traced),
        "service_small" => workloads::service_small(args.traced, &args.work),
        other => Err(format!("unknown workload {other}").into()),
    };
    let it = match iteration {
        Ok(it) => it,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_mb = procfs::peak_rss_mb();
    let durations = it
        .durations_ms
        .iter()
        .map(|d| json_num(*d))
        .collect::<Vec<_>>()
        .join(",");
    let (attempted, failed) = match check_goldens(&args.golden, &it.artifacts, args.bless) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("perfbench: golden files: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\
         \"attempted\":{attempted},\"failed\":{failed},\"durations_ms\":[{durations}]",
        json_num(it.setup_s),
        json_num(it.wall_s),
        json_num(it.cpu_s),
        json_num(peak_rss_mb),
    );
    if let Some(layers) = it.layers {
        let fields: Vec<String> = layers
            .into_values()
            .into_iter()
            .map(|(name, value)| format!("\"{name}\":{}", json_num(value)))
            .collect();
        let _ = write!(out, ",\"layers\":{{{}}}", fields.join(","));
    }
    out.push('}');
    println!("{out}");
    ExitCode::SUCCESS
}
