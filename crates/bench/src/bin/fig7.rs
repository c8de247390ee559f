//! Figure 7 reproduction: a property that exhausts the model checker's
//! budget monolithically is partitioned into corns that each verify
//! under the same budget.
//!
//! Usage: `cargo run --release -p veridic-bench --bin fig7 [-- --stages N]`

use std::time::Instant;
use veridic::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let stages = args
        .iter()
        .position(|a| a == "--stages")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16usize);

    let module = demo_chain_module(stages);
    let vm = make_verifiable(&module)?;
    let tight = CheckOptions::builder()
        .bdd_nodes(9_000)
        .sat_conflicts(600)
        .bmc_depth(3)
        .induction_depth(3)
        .simple_path(false)
        .max_iterations(200)
        .pobdd_window_vars(0)
        .build();

    println!("Figure 7: partitioning a property for Divide-and-Conquer");
    println!(
        "chain of {stages} parity-propagating stages ({} state bits)\n",
        vm.module.state_bits()
    );

    // (1) the original property.
    let vunits = generate_all(&vm)?;
    let (_, compiled) = vunits
        .iter()
        .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
        .expect("integrity vunit");
    let aig = veridic_bench::aig_of(compiled);
    let t0 = Instant::now();
    let mono = check(&aig, &tight);
    let mono_time = t0.elapsed();
    println!(
        "(1) monolithic check : {:?} in {:?}",
        short(&mono.verdict),
        mono_time
    );
    for e in mono.stats.engines_tried() {
        println!("      {e}");
    }
    println!(
        "      peak live BDD nodes {} of quota {} ({} allocated, {} quota hits)",
        mono.stats.bdd_nodes, tight.bdd_nodes, mono.stats.bdd_allocated, mono.stats.bdd_quota_hits
    );

    // (2) the partitioned property.
    let steps = partition_output_integrity(&vm, 0).map_err(std::io::Error::other)?;
    decomposition_is_acyclic(&steps, &vm.module).map_err(std::io::Error::other)?;
    let t1 = Instant::now();
    let run = run_partition(&steps, &tight);
    let part_time = t1.elapsed();
    println!(
        "\n(2) partitioned check: {} corns, all proved = {}, in {:?}",
        run.steps.len(),
        run.all_proved,
        part_time
    );
    for (name, r) in run.steps.iter().take(4) {
        println!("      {name}: {:?}", short(&r.verdict));
    }
    if run.steps.len() > 4 {
        println!("      ... ({} more corns)", run.steps.len() - 4);
    }

    // (3) the same corns fanned out across two worker threads.
    let t2 = Instant::now();
    let par = run_partition_with_portfolio(&steps, &tight, 2, &Portfolio::default());
    let par_time = t2.elapsed();
    println!(
        "\n(3) parallel corns   : 2 workers, all proved = {}, in {:?}",
        par.all_proved, par_time
    );
    for (i, w) in par.worker_stats.iter().enumerate() {
        println!(
            "      worker {i}: peak live {} nodes, {} allocated",
            w.peak_bdd_nodes, w.bdd_allocated
        );
    }
    if matches!(mono.verdict, Verdict::ResourceOut { .. }) {
        println!("\nshape: monolithic times out; the same budget proves every corn.");
    } else {
        println!(
            "\nshape: at {stages} stages the monolithic check still fits the quota \
             (GC reclaims dead image nodes); raise --stages to see it time out."
        );
    }
    Ok(())
}

fn short(v: &Verdict) -> String {
    match v {
        Verdict::Proved { engine } => format!("proved({engine})"),
        Verdict::Falsified(t) => format!("falsified@{}", t.len()),
        Verdict::ResourceOut { .. } => "resource-out".to_string(),
    }
}
