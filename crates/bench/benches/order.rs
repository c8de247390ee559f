//! Variable-order benchmark: the same provable property under the
//! natural (pessimal, blocked) order and the FORCE static order.
//!
//! The design is `build_order_stress(N)`: twin registers `a<i>`/`b<i>`
//! that both sample `DIN[i]`, declared all-`a`s-then-all-`b`s, with a
//! never-firing mismatch output. The reached set is the equality
//! relation `a == b`, exponential under the natural order and linear
//! once the twins are interleaved — the textbook order-sensitivity
//! case. Both ids must *complete* (Proved) within the same node quota;
//! the delta is the point:
//!
//! - `order/natural` pays the exponential reached-set representation,
//! - `order/static_order` recovers the interleaving from the
//!   shared-input structure before the first image (FORCE).

use criterion::{criterion_group, criterion_main, Criterion};
use veridic::prelude::*;
use veridic_bench::report_peak_rss;

/// Twin-register pairs: large enough that the blocked order's ~2^N-node
/// reached set dominates the run, small enough that the natural id
/// still completes within the quota on a CI worker.
const PAIRS: u32 = 14;

fn order(c: &mut Criterion) {
    let module = build_order_stress(PAIRS);
    let lowered = module.to_aig().unwrap();
    let mut aig = lowered.aig.clone();
    let mismatch = module
        .ports
        .iter()
        .find(|p| p.name == "MISMATCH")
        .unwrap()
        .net;
    aig.add_bad("mismatch".to_string(), lowered.bit(mismatch, 0));

    // Pure BDD UMC: SAT/induction would prove the twin invariant
    // instantly and hide the ordering effect entirely.
    let base = CheckOptions::builder()
        .bdd_only(true)
        .pobdd_window_vars(0)
        .bdd_nodes(1 << 21);
    let natural = base.clone().build();
    let static_order = base.clone().static_order(true).build();

    let natural_peak = std::cell::Cell::new(0usize);
    let static_peak = std::cell::Cell::new(0usize);

    let mut group = c.benchmark_group("order");
    group.sample_size(10);
    group.bench_function("natural", |b| {
        b.iter(|| {
            let r = check(&aig, &natural);
            assert!(r.verdict.is_proved(), "natural order must still complete");
            natural_peak.set(r.stats.bdd_nodes);
            std::hint::black_box(r)
        })
    });
    // The first bench of the process, so the peak so far is its own.
    report_peak_rss("order/natural");
    group.bench_function("static_order", |b| {
        b.iter(|| {
            let r = check(&aig, &static_order);
            assert!(r.verdict.is_proved());
            static_peak.set(r.stats.bdd_nodes);
            std::hint::black_box(r)
        })
    });
    group.finish();

    println!("order/natural  peak_live {} nodes", natural_peak.get());
    println!("order/static_order  peak_live {} nodes", static_peak.get());
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = order
}
criterion_main!(benches);
