//! # veridic-bench
//!
//! Shared plumbing for the table/figure regeneration binaries and the
//! Criterion benchmarks. Every table and figure of the paper's
//! evaluation has a `cargo run -p veridic-bench --bin <name>` target:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (chip implementation) | `table1` |
//! | Table 2 (verified properties) | `table2` |
//! | Table 3 (bug classification) | `table3` |
//! | Table 4 (area increase) | `table4` |
//! | §6.3 timing / ECO side effect | `timing`, `eco` |
//! | Figures 2–4, 6 (PSL / Verifiable RTL) | `figures` |
//! | Figure 7 (Divide-and-Conquer) | `fig7` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use veridic::prelude::*;

/// Builds the checkable AIG of a compiled vunit: asserts become bads,
/// assumes become invariant constraints.
///
/// # Panics
///
/// Panics if the instrumented module fails to lower (generator bug).
pub fn aig_of(compiled: &veridic::psl::CompiledVUnit) -> Aig {
    let lowered = compiled
        .module
        .to_aig()
        .expect("instrumented module lowers");
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    aig
}

/// Checks every assertion of a module's stereotype vunits; returns
/// `(proved, falsified, resource_out)` counts.
///
/// # Panics
///
/// Panics if the module cannot be transformed or its properties fail to
/// compile.
pub fn check_module(module: &Module, opts: &CheckOptions) -> (usize, usize, usize) {
    let vm = make_verifiable(module).expect("transformable");
    let portfolio = Portfolio::default();
    let (mut p, mut f, mut r) = (0, 0, 0);
    for (_g, compiled) in generate_all(&vm).expect("vunits generate") {
        let aig = aig_of(&compiled);
        for idx in 0..compiled.asserts.len() {
            let mut stats = CheckStats::default();
            match portfolio.check_bad(&aig, idx, opts, &mut stats) {
                Verdict::Proved { .. } => p += 1,
                Verdict::Falsified(_) => f += 1,
                Verdict::ResourceOut { .. } => r += 1,
            }
        }
    }
    (p, f, r)
}

/// The process's peak resident set size (`VmHWM` of
/// `/proc/self/status`) in MiB, or `None` where procfs does not report
/// it. Benches print it as `<bench-id>  peak_rss <MiB> MiB` right after
/// the bench that sets it, for `bench_compare`'s `rss:` baselines.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Prints `id`'s peak-RSS report line (see [`peak_rss_mib`]); prints
/// nothing where the figure is unavailable.
pub fn report_peak_rss(id: &str) {
    if let Some(mib) = peak_rss_mib() {
        println!("{id}  peak_rss {mib:.1} MiB");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let mib = peak_rss_mib().expect("VmHWM in /proc/self/status");
            assert!(mib > 0.0);
        }
    }

    #[test]
    fn check_module_counts_cleanly() {
        let plan = &build_plans(Scale::Small)[0];
        let m = build_leaf(plan, None);
        let (p, f, r) = check_module(&m, &CheckOptions::default());
        assert_eq!(f, 0);
        assert_eq!(r, 0);
        assert_eq!(p, plan.p0() + plan.p1() + plan.p2() + plan.p3);
    }
}
