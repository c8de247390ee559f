//! Engine comparison benchmark (ablation: SAT-only vs BDD-only vs POBDD
//! portfolios on the same stereotype properties).

use criterion::{criterion_group, criterion_main, Criterion};
use veridic::prelude::*;
use veridic_bench::aig_of;

fn engines(c: &mut Criterion) {
    let plan = &build_plans(Scale::Small)[0];
    let module = build_leaf(plan, None);
    let vm = make_verifiable(&module).unwrap();
    let vunits = generate_all(&vm).unwrap();
    let (_, soundness) = vunits
        .iter()
        .find(|(g, _)| g.ptype == PropertyType::Soundness)
        .unwrap();
    let aig = aig_of(soundness);

    let portfolio = Portfolio::default();
    let mut group = c.benchmark_group("engines/soundness_property");
    group.sample_size(10);
    group.bench_function("sat_portfolio", |b| {
        let opts = CheckOptions::builder().sat_only(true).build();
        b.iter(|| {
            let mut stats = CheckStats::default();
            assert!(portfolio.check_bad(&aig, 0, &opts, &mut stats).is_proved());
        })
    });
    group.bench_function("bdd_umc", |b| {
        let opts = CheckOptions::builder()
            .bdd_only(true)
            .pobdd_window_vars(0)
            .build();
        b.iter(|| {
            let mut stats = CheckStats::default();
            assert!(portfolio.check_bad(&aig, 0, &opts, &mut stats).is_proved());
        })
    });
    group.bench_function("full_portfolio", |b| {
        let opts = CheckOptions::default();
        b.iter(|| {
            let mut stats = CheckStats::default();
            assert!(portfolio.check_bad(&aig, 0, &opts, &mut stats).is_proved());
        })
    });
    group.finish();

    // POBDD ablation: window count sweep on a counter reachability task.
    let mut group = c.benchmark_group("engines/pobdd_windows");
    group.sample_size(10);
    for windows in [0u32, 1, 2, 3] {
        group.bench_function(format!("w{windows}"), |b| {
            let opts = CheckOptions::builder()
                .bdd_only(true)
                .pobdd_window_vars(windows)
                .bdd_nodes(1 << 20)
                .build();
            b.iter(|| {
                let mut stats = CheckStats::default();
                let v = portfolio.check_bad(&aig, 0, &opts, &mut stats);
                assert!(v.is_proved());
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = engines
}
criterion_main!(benches);
