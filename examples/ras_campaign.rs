//! The full RAS verification campaign (paper §6): generate the chip,
//! transform every leaf to Verifiable RTL, derive all stereotype
//! properties, model check everything, and print the Table-2
//! reproduction.
//!
//! By default runs the small chip; pass `--full` for the paper-scale
//! 95-module / 2047-property census (several minutes).
//!
//! Run with: `cargo run --release --example ras_campaign [-- --full] [-- --bugs]`

use veridic::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Small
    };
    let with_bugs = args.iter().any(|a| a == "--bugs");

    println!("generating chip (scale={scale:?}, bugs={with_bugs}) ...");
    let chip = Chip::generate(&ChipConfig { scale, with_bugs });
    println!("  {} leaf modules", chip.modules().len());

    println!("running formal campaign ...");
    let report = run_campaign(&chip, &CampaignConfig::default());
    println!(
        "  {} properties checked in {:?}",
        report.records.len(),
        report.total_time
    );
    for (module, err) in &report.errors {
        println!("  ERROR {module}: {err}");
    }

    println!();
    print!("{}", report.render_table2(&chip));

    let failures = report.failures();
    if failures.is_empty() {
        println!("\nall properties verified successfully.");
    } else {
        println!("\nlogic bugs found by formal verification:");
        for f in failures {
            if let Verdict::Falsified(trace) = &f.verdict {
                println!(
                    "  {} / {} ({}): counterexample of {} cycles",
                    f.module,
                    f.label,
                    f.ptype,
                    trace.len()
                );
            }
        }
    }
    let ro = report.resource_outs();
    if !ro.is_empty() {
        println!("\nproperties needing Divide-and-Conquer (resource-out):");
        for r in ro {
            println!("  {} / {}", r.module, r.label);
        }
    }
    println!("\nproved ratio: {:.1}%", report.proved_ratio() * 100.0);
}
