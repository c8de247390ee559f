//! Figure 7 benchmark: budget sweep showing where the monolithic check
//! falls over while partitioned corns keep proving (ablation of the
//! deterministic-resource-budget design decision).

use criterion::{criterion_group, criterion_main, Criterion};
use veridic::prelude::*;
use veridic_bench::{aig_of, report_peak_rss};

fn partition(c: &mut Criterion) {
    let module = demo_chain_module(12);
    let vm = make_verifiable(&module).unwrap();
    let vunits = generate_all(&vm).unwrap();
    let (_, integ) = vunits
        .iter()
        .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
        .unwrap();
    let aig = aig_of(integ);
    let steps = partition_output_integrity(&vm, 0).unwrap();

    // Peak live BDD nodes per bench id, captured from the last iteration
    // and printed after the group in a `bench_compare`-parsable format,
    // so GC regressions (live peak creeping back toward nodes-ever-
    // allocated) are visible in review alongside the timings.
    let mono_peak = std::cell::Cell::new(0usize);
    let part_gen_peak = std::cell::Cell::new(0usize);
    let part_tight_peak = std::cell::Cell::new(0usize);
    let part_par_workers = std::cell::RefCell::new(Vec::<PartitionWorkerStats>::new());

    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("monolithic_generous", |b| {
        b.iter(|| {
            // Time-to-verdict: the chain is correct, so the check must
            // never falsify; whether it proves or exhausts the (generous)
            // budget is exactly the phenomenon Fig. 7 is about.
            let r = check(&aig, &CheckOptions::default());
            assert!(!r.verdict.is_falsified());
            mono_peak.set(r.stats.bdd_nodes);
            std::hint::black_box(r)
        })
    });
    // The process peak so far is the monolithic check's: set-up is small
    // and nothing else has run yet.
    report_peak_rss("fig7/monolithic_generous");
    group.bench_function("partitioned_generous", |b| {
        b.iter(|| {
            let run = run_partition(&steps, &CheckOptions::default());
            assert!(run.all_proved);
            let peak = run.steps.iter().map(|(_, r)| r.stats.bdd_nodes).max();
            part_gen_peak.set(peak.unwrap_or(0));
        })
    });
    let tight = CheckOptions::builder()
        .bdd_nodes(9_000)
        .sat_conflicts(600)
        .bmc_depth(3)
        .induction_depth(3)
        .simple_path(false)
        .max_iterations(200)
        .pobdd_window_vars(0)
        .build();
    group.bench_function("partitioned_tight", |b| {
        b.iter(|| {
            let run = run_partition(&steps, &tight);
            assert!(run.all_proved);
            let peak = run.steps.iter().map(|(_, r)| r.stats.bdd_nodes).max();
            part_tight_peak.set(peak.unwrap_or(0));
        })
    });
    // Corn fan-out: the same tight-budget corns across two worker
    // threads (deterministic round-robin assignment, so the per-worker
    // peaks below are stable run to run and comparable in
    // BENCH_BASELINE.json).
    group.bench_function("partitioned_parallel", |b| {
        b.iter(|| {
            let run = run_partition_with_portfolio(&steps, &tight, 2, &Portfolio::default());
            assert!(run.all_proved);
            *part_par_workers.borrow_mut() = run.worker_stats;
        })
    });
    group.finish();

    println!(
        "fig7/monolithic_generous  peak_live {} nodes",
        mono_peak.get()
    );
    println!(
        "fig7/partitioned_generous  peak_live {} nodes",
        part_gen_peak.get()
    );
    println!(
        "fig7/partitioned_tight  peak_live {} nodes",
        part_tight_peak.get()
    );
    let workers = part_par_workers.borrow();
    let par_peak = workers.iter().map(|w| w.peak_bdd_nodes).max().unwrap_or(0);
    println!("fig7/partitioned_parallel  peak_live {par_peak} nodes");
    for (i, w) in workers.iter().enumerate() {
        println!(
            "fig7/partitioned_parallel/w{i}  peak_live {} nodes",
            w.peak_bdd_nodes
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = partition
}
criterion_main!(benches);
