//! Table 2 reproduction: number of verified properties per category and
//! bugs found by the formal campaign.
//!
//! Usage: `cargo run --release -p veridic-bench --bin table2 [-- --small]`
//! (full scale checks all 2047 properties; expect minutes).

use std::time::Instant;
use veridic::prelude::*;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { Scale::Small } else { Scale::Full };
    eprintln!("generating chip at {scale:?} scale with the seven seeded bugs ...");
    let chip = Chip::generate(&ChipConfig {
        scale,
        with_bugs: true,
    });
    eprintln!(
        "running the campaign over {} leaf modules ...",
        chip.modules().len()
    );
    let t0 = Instant::now();
    let report = run_campaign(&chip, &CampaignConfig::default());
    for (m, e) in &report.errors {
        eprintln!("ERROR {m}: {e}");
    }
    print!("{}", report.render_table2(&chip));
    println!();
    println!("P0: Ability of Error Detection");
    println!("P1: Soundness of Internal States");
    println!("P2: Output Data Integrity");
    println!("P3: Other Properties");
    println!();
    println!(
        "checked {} properties in {:?} ({} falsified, {} resource-out)",
        report.records.len(),
        t0.elapsed(),
        report.failures().len(),
        report.resource_outs().len()
    );
    let pre = report.preanalysis_totals();
    println!(
        "preanalysis: {} cones swept, {} stuck latches folded ({} ANDs), {} properties \
         concluded statically",
        pre.bads_analyzed,
        pre.stuck_latches,
        pre.folded_ands,
        report.vacuous_count()
    );
    println!("(paper: 2047 properties, ~20 h on a 2004 workstation, 7 logic bugs)");
}
