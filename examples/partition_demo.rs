//! Figure 7: Divide-and-Conquer property partitioning.
//!
//! A deep parity-propagating datapath chain makes the monolithic
//! output-integrity property exhaust the model checker's (deterministic)
//! resource budget — the reproduction of the paper's "time-out happens
//! during execution". Partitioning the property at intermediate parity
//! check points turns it into small "corns" that each prove instantly
//! under the *same* budget.
//!
//! Run with: `cargo run --release --example partition_demo`

use veridic::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stages = 16;
    let module = demo_chain_module(stages);
    let vm = make_verifiable(&module)?;
    println!(
        "chain module: {stages} parity-propagating stages, {} latches",
        vm.module.state_bits()
    );

    let tight = CheckOptions::builder()
        .bdd_nodes(9_000)
        .sat_conflicts(600)
        .bmc_depth(3)
        .induction_depth(3)
        .simple_path(false)
        .max_iterations(200)
        .pobdd_window_vars(0)
        .build();

    // Monolithic attempt.
    println!("\n--- monolithic check (tight budget) ---");
    let vunits = generate_all(&vm)?;
    let (_, compiled) = vunits
        .iter()
        .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
        .expect("integrity vunit");
    let lowered = compiled.module.to_aig()?;
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    let mono = check(&aig, &tight);
    match &mono.verdict {
        Verdict::ResourceOut { reason } => println!("  resource-out as expected: {reason}"),
        other => println!("  unexpected verdict: {other:?}"),
    }
    for line in mono.stats.engines_tried() {
        println!("    engine: {line}");
    }

    // Partitioned attempt under the SAME budget.
    println!("\n--- partitioned check (same budget) ---");
    let steps = partition_output_integrity(&vm, 0).map_err(std::io::Error::other)?;
    decomposition_is_acyclic(&steps, &vm.module).map_err(std::io::Error::other)?;
    println!(
        "  {} corns, assume-guarantee chain verified acyclic",
        steps.len()
    );
    let run = run_partition(&steps, &tight);
    for (name, result) in &run.steps {
        let tag = match &result.verdict {
            Verdict::Proved { engine } => format!("proved ({engine})"),
            Verdict::Falsified(t) => format!("FALSIFIED@{}", t.len()),
            Verdict::ResourceOut { reason } => format!("resource-out: {reason}"),
        };
        println!("    {name}: {tag}");
    }
    println!(
        "\nresult: monolithic={}, partitioned all proved={}",
        matches!(mono.verdict, Verdict::ResourceOut { .. }),
        run.all_proved
    );
    Ok(())
}
