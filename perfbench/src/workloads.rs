//! The three workloads. Each sets up its input (timed apart, several
//! times), runs the program once under [`Clock`], and returns the
//! outputs the goldens check. With `traced`, the engines run wrapped and
//! the calls into each crate are timed; instrument-only work (shadow
//! calls, the in-process reference campaign) runs after the clock stops.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;
use veridic::aig::Aig;
use veridic::campaign;
use veridic::core::flow::PropertyRecord;
use veridic::core::partition::PartitionStep;
use veridic::prelude::*;
use veridic::psl::CompiledVUnit;

use crate::procfs::{thread_cpu_seconds, thread_user_seconds, Clock};
use crate::trace::{record_check_stats, shadow_preanalysis, EngineTallies, Spans};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// The Fig. 7 chain length: long enough that the monolithic check runs
/// out of budget, as in the paper.
const CHAIN_STAGES: usize = 12;

/// The Fig. 7 budgets: the defaults with a quarter of the BDD node quota
/// (2^19) and of the SAT conflict budget (50 000). Every engine still
/// runs out on the monolithic property, BDD work still dominates, and an
/// iteration takes 4 s instead of 20 s, so a run holds several.
fn fig7_options() -> CheckOptions {
    CheckOptions::builder()
        .bdd_nodes(1 << 19)
        .sat_conflicts(50_000)
        .build()
}

/// Passes over the Fig. 7 corns per untraced iteration: the flow's own
/// pass, then more after the clock stops that only add check-time
/// samples. One pass takes about 0.35 s on the reference host, whose
/// speed jumps by up to half from one second to the next; a single pass
/// per iteration sampled the corn check time in a few short windows a
/// run, and the run medians of `property_iqm_ms` spread by up to 0.32.
const CORN_PASSES: usize = 6;

/// Campaign threads of the service's in-process reference run, matching
/// its two worker processes. `table2_small` runs one thread: with two,
/// its wall time hangs on which thread draws the largest modules, and
/// spreads three times as wide as its CPU time on a shared host.
const REFERENCE_WORKERS: usize = 2;

/// Campaigns submitted per `service_small` iteration. `setup_s` counts
/// their user-space CPU time only: each submit also syncs 158 journals,
/// and on the reference host (a virtual machine on a shared disk) the
/// kernel's share of that varied fivefold between runs, following the
/// disk, while the user-space share stayed within a quarter.
const SUBMITS: usize = 40;

/// What one workload iteration measured and produced.
pub struct Iteration {
    /// Mean CPU seconds of one input set-up (see [`repeated_setup`]).
    pub setup_s: f64,
    /// Wall seconds from the first call into the program to the report.
    pub wall_s: f64,
    /// CPU seconds over the same region, reaped children included.
    pub cpu_s: f64,
    /// Per-property check durations in milliseconds.
    pub durations_ms: Vec<f64>,
    /// Output files to check against the goldens: `(name, lines)`.
    pub artifacts: Vec<(&'static str, Vec<String>)>,
    /// Per-layer metrics (traced iterations only).
    pub layers: Option<Spans>,
}

/// Runs `make` `n` times and returns the last result with the mean
/// seconds of one run on `clock`, a thread CPU clock. One set-up takes
/// micro- to milliseconds, so `n` is chosen to make the runs add up to
/// a few hundred milliseconds.
fn repeated_setup<T>(
    n: usize,
    clock: fn() -> f64,
    mut make: impl FnMut(usize) -> Result<T>,
) -> Result<(T, f64)> {
    let mut last = None;
    let t0 = clock();
    for i in 0..n {
        last = Some(make(i)?);
    }
    let per_run = (clock() - t0) / n as f64;
    Ok((last.expect("set-up runs at least once"), per_run))
}

fn small_chip_with_bugs() -> ChipConfig {
    ChipConfig {
        scale: Scale::Small,
        with_bugs: true,
    }
}

/// A record's JSON line without its trailing wall-clock field.
fn record_line(r: &PropertyRecord) -> String {
    let json = r.to_json();
    match json.rfind(",\"duration_ms\":") {
        Some(cut) => format!("{}}}", &json[..cut]),
        None => json,
    }
}

/// `module/label<TAB>verdict JSON` of a record: what the in-process and
/// the service campaign must agree on, whatever their event logs.
fn verdict_line(r: &PropertyRecord) -> String {
    let json = r.to_json();
    let start = json
        .find("\"verdict\":")
        .map_or(0, |i| i + "\"verdict\":".len());
    let end = json.find(",\"stats\":").unwrap_or(json.len());
    format!("{}/{}\t{}", r.module, r.label, &json[start..end])
}

fn campaign_artifacts(
    report: &CampaignReport,
    table: &str,
    records_name: &'static str,
) -> Vec<(&'static str, Vec<String>)> {
    let mut records: Vec<String> = report.records.iter().map(record_line).collect();
    records.extend(
        report
            .errors
            .iter()
            .map(|(m, e)| format!("error\t{m}\t{e}")),
    );
    vec![
        ("table2.txt", table.lines().map(str::to_string).collect()),
        (
            "verdicts.txt",
            report.records.iter().map(verdict_line).collect(),
        ),
        (records_name, records),
    ]
}

fn durations_ms(records: &[PropertyRecord]) -> Vec<f64> {
    records
        .iter()
        .map(|r| r.duration.as_secs_f64() * 1e3)
        .collect()
}

/// Times the per-module preparation the campaign performs before any
/// check — Verifiable transform, stereotype generation with PSL
/// compilation, AIG lowering — plus each property's COI and sweep.
fn shadow_prep(spans: &mut Spans, chip: &Chip) -> Result<()> {
    for mi in chip.modules() {
        let module = chip
            .design()
            .module(mi.name())
            .ok_or("chip lists a missing module")?;
        let vm = spans.time("core.verifiable_s", || make_verifiable(module))?;
        let units = spans.time("core.stereotype_s", || generate_all(&vm))?;
        for (_, compiled) in &units {
            let aig = lower(spans, compiled)?;
            shadow_preanalysis(spans, &aig);
        }
    }
    Ok(())
}

/// A vunit's checkable AIG: one bad per assert, assumes as constraints
/// (the construction `module_properties` and the Fig. 7 flow use).
fn lower(spans: &mut Spans, compiled: &CompiledVUnit) -> Result<Aig> {
    let lowered = spans.time("netlist.lower_s", || compiled.module.to_aig())?;
    let mut aig = lowered.aig.clone();
    for (label, net) in &compiled.asserts {
        aig.add_bad(label.clone(), lowered.bit(*net, 0));
    }
    for (label, net) in &compiled.assumes {
        aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
    }
    Ok(aig)
}

/// Records `mc.check_s`/`mc.portfolio_self_s` and the engine, SAT and
/// BDD metrics of an in-process campaign run through `tallies`.
fn record_campaign(spans: &mut Spans, tallies: &EngineTallies, report: &CampaignReport) {
    let check_s: f64 = report
        .records
        .iter()
        .map(|r| r.duration.as_secs_f64())
        .sum();
    spans.set("mc.check_s", check_s);
    spans.set("mc.portfolio_self_s", check_s - tallies.engine_seconds());
    tallies.record(spans);
    record_check_stats(spans, report.records.iter().map(|r| &r.stats));
}

/// Share of the traced wall time covered by the named layer metrics,
/// which must not overlap.
fn attribute(spans: &mut Spans, wall_s: f64, layers: &[&str]) {
    let covered: f64 = layers.iter().map(|n| spans.get(n)).sum();
    spans.set("trace.attributed_ratio", covered / wall_s);
}

/// Table 2 in process: the Small chip with the seven bugs, every
/// stereotype property, one campaign thread, then the rendered table.
pub fn table2_small(traced: bool) -> Result<Iteration> {
    let (chip, setup_s) = repeated_setup(500, thread_cpu_seconds, |_| {
        Ok(Chip::generate(&small_chip_with_bugs()))
    })?;
    let cfg = CampaignConfig {
        workers: 1,
        ..Default::default()
    };
    let mut spans = Spans::default();
    let tallies = EngineTallies::default();
    let portfolio = tallies.portfolio();

    let clock = Clock::start();
    let (report, table) = if traced {
        let report = run_campaign_with_portfolio(&chip, &cfg, &portfolio);
        let table = spans.time("core.render_s", || report.render_table2(&chip));
        (report, table)
    } else {
        let report = run_campaign(&chip, &cfg);
        let table = report.render_table2(&chip);
        (report, table)
    };
    let (wall_s, cpu_s) = clock.stop();

    let layers = if traced {
        spans.set("chipgen.generate_s", setup_s);
        record_campaign(&mut spans, &tallies, &report);
        shadow_prep(&mut spans, &chip)?;
        // One campaign thread, so the property checks and the per-module
        // preparation (timed again in `shadow_prep`) add up to the wall
        // time; COI and pre-analysis lie inside `mc.check_s`.
        attribute(
            &mut spans,
            wall_s,
            &[
                "mc.check_s",
                "core.verifiable_s",
                "core.stereotype_s",
                "netlist.lower_s",
                "core.render_s",
            ],
        );
        Some(spans)
    } else {
        None
    };
    Ok(Iteration {
        setup_s,
        wall_s,
        cpu_s,
        durations_ms: durations_ms(&report.records),
        artifacts: campaign_artifacts(&report, &table, "records.ndjson"),
        layers,
    })
}

/// Renders a verdict for the Fig. 7 golden.
fn verdict_text(v: &Verdict) -> String {
    match v {
        Verdict::Proved { engine } => format!("proved ({engine})"),
        Verdict::Falsified(t) => format!("falsified at depth {}", t.len()),
        Verdict::ResourceOut { reason } => format!("resource-out ({reason})"),
    }
}

/// Checks each corn through its own `run_partition` call (the wrapped
/// portfolio when given), so that its check time is visible; that is the
/// same serial corn loop, one step a call. Returns the corn results and
/// their durations in milliseconds.
fn check_corns(
    steps: &[PartitionStep],
    opts: &CheckOptions,
    portfolio: Option<&Portfolio>,
) -> (Vec<(String, CheckResult)>, Vec<f64>) {
    let mut corns = Vec::with_capacity(steps.len());
    let mut durations_ms = Vec::with_capacity(steps.len());
    for step in steps {
        let t0 = Instant::now();
        let run = match portfolio {
            Some(p) => run_partition_with_portfolio(std::slice::from_ref(step), opts, 1, p),
            None => run_partition(std::slice::from_ref(step), opts),
        };
        durations_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        corns.extend(run.steps);
    }
    (corns, durations_ms)
}

/// The partition half of Fig. 7: cut the output-integrity property into
/// corns and check that the assume-guarantee order is acyclic.
fn partition(vm: &VerifiableModule) -> Result<Vec<PartitionStep>> {
    let steps = partition_output_integrity(vm, 0)?;
    decomposition_is_acyclic(&steps, &vm.module)?;
    Ok(steps)
}

/// Fig. 7: the chain's output-integrity property checked monolithically
/// (it runs out of budget), then partitioned into corns that each prove.
/// The property durations are the monolithic check's and the corns' of
/// every pass (see [`CORN_PASSES`]).
pub fn fig7_chain(traced: bool) -> Result<Iteration> {
    let (module, setup_s) = repeated_setup(12_000, thread_cpu_seconds, |_| {
        Ok(demo_chain_module(CHAIN_STAGES))
    })?;
    let opts = fig7_options();
    let mut spans = Spans::default();
    let tallies = EngineTallies::default();
    let portfolio = tallies.portfolio();

    let clock = Clock::start();
    let vm = spans.time("core.verifiable_s", || make_verifiable(&module))?;
    let vunits = spans.time("core.stereotype_s", || generate_all(&vm))?;
    let (_, compiled) = vunits
        .iter()
        .find(|(g, _)| g.ptype == PropertyType::OutputIntegrity)
        .ok_or("the chain has an output-integrity vunit")?;
    let aig = lower(&mut spans, compiled)?;
    let t0 = Instant::now();
    let mono = if traced {
        spans.time("mc.check_s", || portfolio.check(&aig, &opts))
    } else {
        check(&aig, &opts)
    };
    let mut durations_ms = vec![t0.elapsed().as_secs_f64() * 1e3];
    let mono_engine_s = tallies.engine_seconds();
    let steps = spans.time("core.partition_s", || partition(&vm))?;
    let (corns, corn_ms) = spans.time("core.corns_s", || {
        check_corns(&steps, &opts, traced.then_some(&portfolio))
    });
    let (wall_s, cpu_s) = clock.stop();
    durations_ms.extend(corn_ms);

    let corn_lines = |corns: &[(String, CheckResult)]| -> Vec<String> {
        corns
            .iter()
            .map(|(name, r)| format!("{name}\t{}", verdict_text(&r.verdict)))
            .collect()
    };
    let mut lines = vec![format!("monolithic\t{}", verdict_text(&mono.verdict))];
    lines.extend(mono.stats.engines_tried());
    lines.extend(corn_lines(&corns));
    if !traced {
        for _ in 1..CORN_PASSES {
            let (again, ms) = check_corns(&steps, &opts, None);
            if corn_lines(&again) != corn_lines(&corns) {
                return Err("a repeated corn pass changed a verdict".into());
            }
            durations_ms.extend(ms);
        }
    }

    let layers = if traced {
        attribute(
            &mut spans,
            wall_s,
            &[
                "core.verifiable_s",
                "core.stereotype_s",
                "netlist.lower_s",
                "mc.check_s",
                "core.partition_s",
                "core.corns_s",
            ],
        );
        spans.set("chipgen.generate_s", setup_s);
        spans.set(
            "mc.portfolio_self_s",
            spans.get("mc.check_s") - mono_engine_s,
        );
        spans.set("core.corns", corns.len() as f64);
        tallies.record(&mut spans);
        record_check_stats(
            &mut spans,
            std::iter::once(&mono.stats).chain(corns.iter().map(|(_, r)| &r.stats)),
        );
        shadow_preanalysis(&mut spans, &aig);
        Some(spans)
    } else {
        None
    };
    Ok(Iteration {
        setup_s,
        wall_s,
        cpu_s,
        durations_ms,
        artifacts: vec![("fig7_chain.txt", lines)],
        layers,
    })
}

/// The campaign service: the default spec with the bugs seeded (Small,
/// two worker processes, 16-round slices with checkpoints), submitted
/// into a fresh directory under `work` and run to completion.
pub fn service_small(traced: bool, work: &Path) -> Result<Iteration> {
    let spec = CampaignSpec {
        with_bugs: true,
        ..Default::default()
    };
    let mut submitted: Vec<PathBuf> = Vec::new();
    let setup = repeated_setup(SUBMITS, thread_user_seconds, |i| {
        let dir = work.join(format!("campaign-{}-{i}", std::process::id()));
        submitted.push(dir.clone());
        campaign::submit(&dir, &spec)?;
        Ok(dir)
    });
    let result = setup.and_then(|(dir, setup_s)| run_service(traced, &spec, &dir, setup_s));
    for dir in &submitted {
        // A leftover directory is only disk space; the run's own
        // outcome is what gets reported.
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn run_service(traced: bool, spec: &CampaignSpec, dir: &Path, setup_s: f64) -> Result<Iteration> {
    let mut spans = Spans::default();
    let clock = Clock::start();
    let outcome = spans.time("campaign.run_s", || campaign::run(dir))?;
    let table = std::fs::read_to_string(CampaignDir::new(dir).table2_path())?;
    let (wall_s, cpu_s) = clock.stop();
    let report = match outcome {
        RunOutcome::Completed(report) => report,
        RunOutcome::Interrupted { done, total } => {
            return Err(format!("campaign interrupted after {done} of {total} jobs").into())
        }
    };
    let mut artifacts = campaign_artifacts(&report, &table, "service_records.ndjson");

    let layers = if traced {
        attribute(&mut spans, wall_s, &["campaign.run_s"]);
        spans.set("campaign.submit_s", setup_s);
        let suspensions = report
            .records
            .iter()
            .flat_map(|r| &r.stats.events)
            .filter(|e| e.outcome == EventOutcome::Suspended)
            .count();
        spans.set("campaign.suspensions", suspensions as f64);

        // The in-process reference: the same properties through the
        // wrapped default cascade. Its records must match the Table 2
        // goldens (trace fidelity), and its per-property durations are
        // the base of the service's per-record overhead.
        let chip = spans.time("chipgen.generate_s", || Chip::generate(&spec.chip_config()));
        let tallies = EngineTallies::default();
        let cfg = CampaignConfig {
            check: spec.check.clone(),
            workers: REFERENCE_WORKERS,
        };
        let reference = run_campaign_with_portfolio(&chip, &cfg, &tallies.portfolio());
        if reference.records.len() != report.records.len() {
            return Err("service and in-process campaigns checked different property lists".into());
        }
        let mut overhead_ms: Vec<f64> = report
            .records
            .iter()
            .zip(&reference.records)
            .map(|(s, r)| (s.duration.as_secs_f64() - r.duration.as_secs_f64()) * 1e3)
            .collect();
        overhead_ms.sort_by(f64::total_cmp);
        spans.set(
            "campaign.record_overhead_ms",
            overhead_ms[overhead_ms.len() / 2],
        );
        record_campaign(&mut spans, &tallies, &reference);
        shadow_prep(&mut spans, &chip)?;
        let reference_lines = reference.records.iter().map(record_line).collect();
        artifacts.push(("records.ndjson", reference_lines));
        Some(spans)
    } else {
        None
    };
    Ok(Iteration {
        setup_s,
        wall_s,
        cpu_s,
        durations_ms: durations_ms(&report.records),
        artifacts,
        layers,
    })
}
