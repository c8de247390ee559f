//! Compares a `cargo bench` output capture against the checked-in
//! `BENCH_BASELINE.json` so perf regressions are visible in review.
//!
//! Usage:
//!
//! ```text
//! CRITERION_ONE_SHOT=1 cargo bench -p veridic-bench | tee bench-out.txt
//! cargo run --release -p veridic-bench --bin bench_compare -- \
//!     [--fail-on-regression <prefix>] bench-out.txt [BENCH_BASELINE.json]
//! ```
//!
//! The comparison is advisory by default (exits 0): one-shot samples on
//! a shared CI worker are too noisy to gate every microbench on, but a
//! consistent 2x swing across benches is exactly what a reviewer should
//! see. `--fail-on-regression <prefix>` turns the report into a gate
//! for the bench ids under that prefix: any such id more than 25%
//! slower than its baseline — or missing from the run — fails the
//! invocation with exit 1. CI gates `fig7/` this way: those runs are
//! seconds-long fixpoints, far above one-shot noise.
//!
//! Besides timings, the benches print two deterministic or near-
//! deterministic figures per id, each with its own baseline key:
//! `<id>  peak_live <n> nodes` (key `nodes:<id>`, the BDD live-node
//! high-water mark, advisory) and `<id>  peak_rss <MiB> MiB` (key
//! `rss:<id>`, the process's peak RSS after that bench). The peak RSS
//! is gated like a timing: under `--fail-on-regression <prefix>`, an
//! `rss:` id more than 25% above its baseline, or missing, fails too.

use std::collections::BTreeMap;

/// The gate threshold: a prefix-matched bench id this much slower than
/// its baseline fails a `--fail-on-regression` run.
const GATE_THRESHOLD_PCT: f64 = 25.0;

/// Baseline metadata key recording `available_parallelism()` on the
/// host that took the snapshot. Wall-clock comparisons between hosts
/// with different core counts are apples-to-oranges for the parallel
/// bench ids (`monolithic_parallel`, `partitioned_parallel`, ...), so
/// a mismatch earns a prominent advisory warning (never a gate
/// failure: node counts stay deterministic regardless).
const HOST_CORES_KEY: &str = "host_available_parallelism";

/// The warning line for a snapshot-host/current-host core-count
/// mismatch, or `None` when the counts agree. A baseline without the
/// key (pre-PR-7 snapshots) also warns, so stale baselines surface.
fn core_count_warning(baseline_cores: Option<f64>, host_cores: usize) -> Option<String> {
    match baseline_cores {
        Some(b) if b as usize == host_cores => None,
        Some(b) => Some(format!(
            "WARNING: baseline was recorded on a {}-core host but this host has {} \
             (available_parallelism); wall-clock deltas on parallel bench ids are \
             not comparable",
            b as usize, host_cores
        )),
        None => Some(format!(
            "WARNING: baseline records no `{HOST_CORES_KEY}`; this host has \
             {host_cores} cores and parallel bench timings may not be comparable"
        )),
    }
}

/// The `--fail-on-regression` verdicts: every baseline bench id under
/// `prefix` that regressed past [`GATE_THRESHOLD_PCT`] or is absent
/// from the current run, as human-readable lines (values rendered by
/// `fmt`). Empty means the gate passes.
fn gate_failures(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    prefix: &str,
    fmt: fn(f64) -> String,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base_s) in baseline {
        if !name.starts_with(prefix) {
            continue;
        }
        match current.get(name.as_str()) {
            Some(cur_s) => {
                let delta = (cur_s - base_s) / base_s * 100.0;
                if delta > GATE_THRESHOLD_PCT {
                    failures.push(format!(
                        "{name}: {} -> {} ({delta:+.1}%, threshold +{GATE_THRESHOLD_PCT:.0}%)",
                        fmt(*base_s),
                        fmt(*cur_s)
                    ));
                }
            }
            None => failures.push(format!("{name}: missing from this run")),
        }
    }
    failures
}

fn main() {
    let mut fail_prefix: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--fail-on-regression" {
            match args.next() {
                Some(p) => fail_prefix = Some(p),
                None => {
                    eprintln!("--fail-on-regression needs a bench-id prefix (e.g. fig7/)");
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(a);
        }
    }
    let Some(out_path) = positional.first() else {
        eprintln!(
            "usage: bench_compare [--fail-on-regression <prefix>] \
             <bench-output.txt> [BENCH_BASELINE.json]"
        );
        std::process::exit(2);
    };
    let default_baseline = "BENCH_BASELINE.json".to_string();
    let baseline_path = positional.get(1).unwrap_or(&default_baseline);

    let output =
        std::fs::read_to_string(out_path).unwrap_or_else(|e| panic!("cannot read {out_path}: {e}"));
    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));

    let full_baseline = parse_baseline(&baseline_text);
    // Node and peak-RSS baselines are stored flat alongside the timings
    // under "nodes:<bench-id>" and "rss:<bench-id>" keys; numeric host
    // metadata ("host_..." keys) is split out so it never lands in the
    // timing comparison.
    let mut baseline = BTreeMap::new();
    let mut node_baseline = BTreeMap::new();
    let mut rss_baseline = BTreeMap::new();
    let mut baseline_cores = None;
    for (k, v) in full_baseline {
        if k == HOST_CORES_KEY {
            baseline_cores = Some(v);
        } else if let Some(name) = k.strip_prefix("nodes:") {
            node_baseline.insert(name.to_string(), v);
        } else if let Some(name) = k.strip_prefix("rss:") {
            rss_baseline.insert(name.to_string(), v);
        } else {
            baseline.insert(k, v);
        }
    }
    let current = parse_bench_output(&output);
    let current_nodes = parse_report(&output, "peak_live", "nodes");
    let current_rss = parse_report(&output, "peak_rss", "MiB");

    println!("Bench comparison vs {baseline_path} (advisory)");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if let Some(warning) = core_count_warning(baseline_cores, host_cores) {
        println!("{warning}");
    }
    println!(
        "{:<42} {:>12} {:>12} {:>9}",
        "bench", "baseline", "current", "delta"
    );
    let mut missing: Vec<&str> = Vec::new();
    for (name, base_s) in &baseline {
        match current.get(name.as_str()) {
            Some(cur_s) => {
                let delta = (cur_s - base_s) / base_s * 100.0;
                let flag = if delta > 25.0 {
                    "  <-- slower"
                } else if delta < -25.0 {
                    "  <-- faster"
                } else {
                    ""
                };
                println!(
                    "{:<42} {:>12} {:>12} {:>+8.1}%{}",
                    name,
                    fmt_secs(*base_s),
                    fmt_secs(*cur_s),
                    delta,
                    flag
                );
            }
            None => missing.push(name),
        }
    }
    for name in missing {
        println!("{name:<42} (not in this run)");
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            println!("{name:<42} (new; not in baseline)");
        }
    }

    // Live-peak-nodes comparison: a creeping live peak is a GC
    // regression even when wall-clock looks fine (one-shot timing noise
    // hides it; node counts are deterministic).
    if !node_baseline.is_empty() || !current_nodes.is_empty() {
        println!();
        println!("Live-peak BDD nodes vs baseline (deterministic)");
        println!(
            "{:<42} {:>12} {:>12} {:>9}",
            "bench", "baseline", "current", "delta"
        );
        for (name, base_n) in &node_baseline {
            match current_nodes.get(name.as_str()) {
                Some(cur_n) if *base_n > 0.0 => {
                    let delta = (cur_n - base_n) / base_n * 100.0;
                    let flag = if delta > 10.0 {
                        "  <-- more live nodes"
                    } else {
                        ""
                    };
                    println!(
                        "{:<42} {:>12} {:>12} {:>+8.1}%{}",
                        name, *base_n as u64, *cur_n as u64, delta, flag
                    );
                }
                // A zero baseline means the SAT portfolio settled the
                // bench before any BDD engine ran; flag any change.
                Some(cur_n) => {
                    let flag = if *cur_n > 0.0 {
                        "  <-- BDD engines now engaged"
                    } else {
                        ""
                    };
                    println!(
                        "{:<42} {:>12} {:>12} {:>9}{}",
                        name, 0, *cur_n as u64, "-", flag
                    );
                }
                None => println!("{name:<42} (not in this run)"),
            }
        }
        for name in current_nodes.keys() {
            if !node_baseline.contains_key(name) {
                println!("{name:<42} (new; not in baseline)");
            }
        }
    }

    if !rss_baseline.is_empty() || !current_rss.is_empty() {
        println!();
        println!("Process peak RSS after the bench vs baseline");
        println!(
            "{:<42} {:>12} {:>12} {:>9}",
            "bench", "baseline", "current", "delta"
        );
        for (name, base) in &rss_baseline {
            match current_rss.get(name.as_str()) {
                Some(cur) => {
                    let delta = (cur - base) / base * 100.0;
                    let flag = if delta > GATE_THRESHOLD_PCT {
                        "  <-- more memory"
                    } else {
                        ""
                    };
                    println!(
                        "{:<42} {:>12} {:>12} {:>+8.1}%{}",
                        name,
                        fmt_mib(*base),
                        fmt_mib(*cur),
                        delta,
                        flag
                    );
                }
                None => println!("{name:<42} (not in this run)"),
            }
        }
        for name in current_rss.keys() {
            if !rss_baseline.contains_key(name) {
                println!("{name:<42} (new; not in baseline)");
            }
        }
    }

    if let Some(prefix) = &fail_prefix {
        let mut failures = gate_failures(&baseline, &current, prefix, fmt_secs);
        failures.extend(gate_failures(&rss_baseline, &current_rss, prefix, fmt_mib));
        println!();
        if failures.is_empty() {
            println!(
                "Gate: no `{prefix}*` bench regressed more than \
                 {GATE_THRESHOLD_PCT:.0}% vs baseline in time or peak RSS"
            );
        } else {
            eprintln!("Gate FAILED: `{prefix}*` benches regressed vs baseline:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

fn fmt_mib(m: f64) -> String {
    format!("{m:.1} MiB")
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Parses the flat `"name": seconds` map out of `BENCH_BASELINE.json`.
/// The file is ours and stays flat, so a line-based scan is enough — no
/// JSON dependency needed offline.
fn parse_baseline(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, value)) = rest.split_once("\":") else {
            continue;
        };
        if let Ok(v) = value.trim().parse::<f64>() {
            // Metadata keys ("host", "mode", ...) hold strings and fail
            // the parse above, so only bench entries land here.
            map.insert(name.to_string(), v);
        }
    }
    map
}

/// Parses the vendored criterion shim's result lines:
/// `<name>  min <value> <unit>  median ...`.
fn parse_bench_output(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let rest: Vec<&str> = parts.collect();
        let Some(pos) = rest.iter().position(|t| *t == "min") else {
            continue;
        };
        let (Some(value), Some(unit)) = (rest.get(pos + 1), rest.get(pos + 2)) else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        let secs = match *unit {
            "s" => v,
            "ms" => v * 1e-3,
            "µs" | "us" => v * 1e-6,
            "ns" => v * 1e-9,
            _ => continue,
        };
        map.insert(name.to_string(), secs);
    }
    map
}

/// Parses the benches' report lines `<name>  <keyword> <value> <unit>`:
/// `peak_live <count> nodes` and `peak_rss <MiB> MiB`.
fn parse_report(text: &str, keyword: &str, unit: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let rest: Vec<&str> = parts.collect();
        let Some(pos) = rest.iter().position(|t| *t == keyword) else {
            continue;
        };
        if rest.get(pos + 2) != Some(&unit) {
            continue;
        }
        let Some(Ok(v)) = rest.get(pos + 1).map(|v| v.parse::<f64>()) else {
            continue;
        };
        map.insert(name.to_string(), v);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_output_lines() {
        let out = "fig7/monolithic_generous                 min    60.91 s  median    60.91 s  mean    60.91 s  (1 samples)\n\
                   fig7/partitioned_tight                   min   18.38 ms  median   18.38 ms  mean   18.38 ms  (1 samples)\n\
                   noise line without keyword\n";
        let m = parse_bench_output(out);
        assert_eq!(m.len(), 2);
        assert!((m["fig7/monolithic_generous"] - 60.91).abs() < 1e-9);
        assert!((m["fig7/partitioned_tight"] - 0.01838).abs() < 1e-9);
    }

    #[test]
    fn parses_peak_node_lines() {
        let out = "fig7/monolithic_generous  peak_live 123456 nodes\n\
                   fig7/partitioned_tight  peak_live 789 nodes\n\
                   some/bench  min 1.0 s  median 1.0 s\n";
        let m = parse_report(out, "peak_live", "nodes");
        assert_eq!(m.len(), 2);
        assert_eq!(m["fig7/monolithic_generous"], 123456.0);
        assert_eq!(m["fig7/partitioned_tight"], 789.0);
        // Node lines must not leak into the timing map.
        assert!(parse_bench_output(out).contains_key("some/bench"));
        assert!(!parse_bench_output(out).contains_key("fig7/partitioned_tight"));
    }

    #[test]
    fn gate_flags_only_prefixed_regressions_and_missing_ids() {
        let mut baseline = BTreeMap::new();
        baseline.insert("fig7/monolithic_generous".to_string(), 10.0);
        baseline.insert("fig7/partitioned_tight".to_string(), 1.0);
        baseline.insert("fig7/gone".to_string(), 2.0);
        baseline.insert("sat/php_5_4".to_string(), 0.1);
        let mut current = BTreeMap::new();
        current.insert("fig7/monolithic_generous".to_string(), 13.0); // +30%
        current.insert("fig7/partitioned_tight".to_string(), 1.2); // +20%
        current.insert("sat/php_5_4".to_string(), 10.0); // huge, but unprefixed

        let failures = gate_failures(&baseline, &current, "fig7/", fmt_secs);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].starts_with("fig7/gone: missing"));
        assert!(failures[1].starts_with("fig7/monolithic_generous:"));

        // Within threshold on every present id -> only the missing one.
        current.insert("fig7/monolithic_generous".to_string(), 12.0); // +20%
        current.insert("fig7/gone".to_string(), 2.0);
        assert!(gate_failures(&baseline, &current, "fig7/", fmt_secs).is_empty());
    }

    #[test]
    fn parses_peak_rss_lines_and_gates_them() {
        let out = "fig7/monolithic_generous  peak_rss 93.4 MiB\n\
                   order/natural  peak_rss 31.0 MiB\n\
                   order/natural  peak_live 253916 nodes\n\
                   order/static_order  peak_rss 12 KiB\n\
                   fig7/partitioned_tight  min 18.38 ms  median 18.38 ms\n";
        let rss = parse_report(out, "peak_rss", "MiB");
        assert_eq!(
            rss.len(),
            2,
            "other units and report kinds are not RSS: {rss:?}"
        );
        assert!((rss["fig7/monolithic_generous"] - 93.4).abs() < 1e-9);
        assert!((rss["order/natural"] - 31.0).abs() < 1e-9);
        assert!(!parse_bench_output(out).contains_key("order/natural"));

        // The baseline file carries them as `rss:<id>` keys.
        let text = "{\n  \"rss:order/natural\": 31.0,\n  \"order/natural\": 0.4\n}\n";
        assert_eq!(parse_baseline(text)["rss:order/natural"], 31.0);

        let mut baseline = BTreeMap::new();
        baseline.insert("order/natural".to_string(), 31.0);
        baseline.insert("fig7/monolithic_generous".to_string(), 70.0);
        let failures = gate_failures(&baseline, &rss, "order/", fmt_mib);
        assert!(failures.is_empty(), "{failures:?}");
        // 93.4 MiB against 70 MiB is +33%: past the gate.
        let failures = gate_failures(&baseline, &rss, "fig7/", fmt_mib);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("70.0 MiB -> 93.4 MiB"),
            "{}",
            failures[0]
        );
    }

    #[test]
    fn core_count_mismatch_warns_but_match_is_silent() {
        assert!(core_count_warning(Some(4.0), 4).is_none());
        let w = core_count_warning(Some(4.0), 1).unwrap();
        assert!(w.contains("4-core") && w.contains("has 1"), "{w}");
        let missing = core_count_warning(None, 8).unwrap();
        assert!(missing.contains(HOST_CORES_KEY), "{missing}");
    }

    #[test]
    fn host_cores_key_is_metadata_not_a_bench_id() {
        let text =
            format!("{{\n  \"{HOST_CORES_KEY}\": 1,\n  \"fig7/monolithic_generous\": 60.91\n}}\n");
        let m = parse_baseline(&text);
        // The flat parser keeps it (it is numeric); main() must split it
        // out before the timing comparison — this pins that it parses.
        assert_eq!(m[HOST_CORES_KEY], 1.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn parses_flat_baseline_json() {
        let text = "{\n  \"host\": \"ci\",\n  \"fig7/monolithic_generous\": 60.91,\n  \"sat/php_5_4\": 0.5\n}\n";
        let m = parse_baseline(text);
        assert_eq!(m.len(), 2);
        assert!((m["fig7/monolithic_generous"] - 60.91).abs() < 1e-9);
    }
}
