//! Table 3 reproduction: classification of the seven logic bugs —
//! formal verification vs. realistic logic simulation.
//!
//! For each bug: which stereotype property type finds it formally, and
//! the measured spec-compliant simulation detection latency across
//! several seeds (the "can be found by logic simulation easily?" column).

use veridic::prelude::*;

const SIM_BUDGET: u64 = 50_000;
const SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

fn main() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    println!("Table 3. Classification of logic bugs");
    println!(
        "{:<6} {:<30} {:<10} {:>16} {:<6}",
        "Defect", "Type of Property (formal)", "Formal?", "Sim latency", "Easy?"
    );
    let portfolio = Portfolio::default();
    let mut pre = PreanalysisStats::default();
    for (module_name, bug) in chip.bugs() {
        let module = chip.design().module(&module_name).unwrap();
        // Formal verdict on the bug's property type.
        let vm = make_verifiable(module).unwrap();
        let mut formal_found = false;
        for (g, compiled) in generate_all(&vm).unwrap() {
            if g.ptype != bug.property_type() {
                continue;
            }
            let aig = veridic_bench::aig_of(&compiled);
            for idx in 0..compiled.asserts.len() {
                let mut stats = CheckStats::default();
                if portfolio
                    .check_bad(&aig, idx, &CheckOptions::default(), &mut stats)
                    .is_falsified()
                {
                    formal_found = true;
                }
                pre.bads_analyzed += stats.preanalysis.bads_analyzed;
                pre.stuck_latches += stats.preanalysis.stuck_latches;
                pre.folded_ands += stats.preanalysis.folded_ands;
                pre.vacuous += stats.preanalysis.vacuous;
            }
        }
        // Simulation latency: median across seeds.
        let mut latencies = Vec::new();
        for seed in SEEDS {
            let mut sim = Simulator::new(module).unwrap();
            let mut stim = SpecCompliant::new(seed);
            let hit = sim
                .run_with(&mut stim, SIM_BUDGET, observe_symptom)
                .unwrap();
            latencies.push(hit.map(|(c, _)| c));
        }
        let found: Vec<u64> = latencies.iter().flatten().copied().collect();
        let sim_str = if found.is_empty() {
            format!("never (<={SIM_BUDGET})")
        } else if found.len() < SEEDS.len() {
            format!("{}/{} seeds", found.len(), SEEDS.len())
        } else {
            let mut s = found.clone();
            s.sort_unstable();
            format!("~{} cycles", s[s.len() / 2])
        };
        let easy = !found.is_empty() && found.iter().all(|l| *l < 500);
        println!(
            "{:<6} {:<30} {:<10} {:>16} {:<6}",
            bug.to_string(),
            bug.property_type().to_string(),
            if formal_found { "found" } else { "MISSED" },
            sim_str,
            if easy { "Yes" } else { "No" }
        );
    }
    println!();
    println!(
        "preanalysis: {} cones swept, {} stuck latches folded ({} ANDs), {} vacuous",
        pre.bads_analyzed, pre.stuck_latches, pre.folded_ands, pre.vacuous
    );
    println!("(paper: B0/B2/B4 easy by simulation; B1/B3/B5/B6 hard or impossible)");
}
