//! §6.1 runtime reproduction: per-property check-latency distribution
//! ("It takes about 20 hours to verify all the properties on a typical
//! Linux workstation with single CPU and single license").
//!
//! Prints the latency histogram of a campaign and extrapolates the
//! full-census runtime.
//!
//! The campaign checks each distinct cone of influence once (the Full
//! census with the seeded bugs has 357 distinct cones for its 2047
//! properties): a record replayed from its cone cache reports its
//! lookup time, well under a millisecond, so the low end of the
//! distribution is the repeated properties rather than the easiest
//! checks.

use std::time::Instant;
use veridic::prelude::*;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { Scale::Small } else { Scale::Full };
    eprintln!("generating chip ({scale:?}) ...");
    let chip = Chip::generate(&ChipConfig {
        scale,
        with_bugs: false,
    });
    eprintln!("running campaign ...");
    let t0 = Instant::now();
    // Pin workers: the paper's §6.1 figure is a *single-CPU* latency
    // distribution; parallel checking would skew both the per-property
    // durations (contention) and the wall-clock mean (divided down).
    let report = run_campaign(
        &chip,
        &CampaignConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let total = t0.elapsed();

    let mut lat: Vec<f64> = report
        .records
        .iter()
        .map(|r| r.duration.as_secs_f64() * 1e3)
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| lat[((lat.len() as f64 - 1.0) * p) as usize];
    println!("campaign: {} properties in {:?}", lat.len(), total);
    println!("per-property latency (ms):");
    println!(
        "  min {:.2}  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        lat.first().unwrap(),
        pct(0.5),
        pct(0.9),
        pct(0.99),
        lat.last().unwrap()
    );
    let per_prop = total.as_secs_f64() / lat.len() as f64;
    println!("  mean {:.1} ms/property", per_prop * 1e3);
    println!();
    println!("(paper: 2047 properties in ~20 h => ~35 s/property on a 2004");
    println!(" single-CPU workstation; the shape to compare is the long tail");
    println!(" of UMC-bound integrity properties vs. fast inductive checks)");
    // Engine mix.
    let mut by_engine: std::collections::BTreeMap<String, usize> = Default::default();
    for r in &report.records {
        if let Verdict::Proved { engine } = &r.verdict {
            *by_engine.entry(engine.to_string()).or_insert(0) += 1;
        }
    }
    println!("\nconcluding engine mix:");
    for (e, n) in by_engine {
        println!("  {e}: {n}");
    }
}
