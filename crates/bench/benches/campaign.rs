//! Campaign benchmark: per-module verification latency distribution —
//! the reproduction analogue of the paper's "about 20 hours ... on a
//! typical Linux workstation" (§6.1), scaled to the synthetic chip —
//! plus `campaign/table2_small`, the whole Small Table 2 campaign with
//! the seeded bugs on one worker thread. That run is SAT-bound (BMC and
//! k-induction conclude nearly every property), and CI gates it. It
//! goes through `run_campaign`, which checks each of the Small chip's
//! 118 distinct cones once and replays the other 40 properties; the
//! `module_*` benches call `Portfolio::check_bad` on every property.

use criterion::{criterion_group, criterion_main, Criterion};
use veridic::prelude::*;
use veridic_bench::check_module;

fn campaign(c: &mut Criterion) {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: false,
    });
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    // One representative module per category.
    let mut seen = std::collections::BTreeSet::new();
    for mi in chip.modules() {
        if !seen.insert(mi.plan().category) {
            continue;
        }
        let module = chip.design().module(mi.name()).unwrap().clone();
        let n_props = mi.plan().p0() + mi.plan().p1() + mi.plan().p2() + mi.plan().p3;
        group.bench_function(
            format!("module_{}_{}props", mi.plan().category, n_props),
            |b| {
                b.iter(|| {
                    let (p, f, r) = check_module(&module, &CheckOptions::default());
                    assert_eq!((f, r), (0, 0));
                    std::hint::black_box(p)
                })
            },
        );
    }
    let buggy = Chip::generate(&ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    });
    let cfg = CampaignConfig {
        workers: 1,
        ..Default::default()
    };
    group.bench_function("table2_small", |b| {
        b.iter(|| {
            let report = run_campaign(&buggy, &cfg);
            let census = (
                report.records.len(),
                report.failures().len(),
                report.resource_outs().len(),
            );
            assert_eq!(census, (158, 13, 0));
            std::hint::black_box(report)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = campaign
}
criterion_main!(benches);
