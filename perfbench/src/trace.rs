//! The traced run's instruments, all on the benchmark side of the API:
//! named spans around calls into each crate, and an [`Engine`] wrapper
//! that times and counts every engine run the portfolio schedules.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use veridic::aig::Aig;
use veridic::mc::{BddUmcEngine, BmcEngine, InductionEngine, PobddEngine};
use veridic::prelude::*;

/// Accumulated span time (seconds) and counts, by metric name.
#[derive(Default)]
pub struct Spans {
    values: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f`, adding its wall time to span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Adds `value` to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value of `name`, 0 if never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded metric, by name.
    pub fn into_values(self) -> BTreeMap<&'static str, f64> {
        self.values
    }
}

/// Counters of one wrapped engine, shared across campaign threads.
/// `Relaxed` is enough: the counters publish no other data and are read
/// only after every thread that updates them has been joined.
#[derive(Default)]
pub struct EngineTally {
    nanos: AtomicU64,
    runs: AtomicU64,
    rounds: AtomicU64,
    proved: AtomicU64,
    falsified: AtomicU64,
    proof_k: AtomicU64,
}

impl EngineTally {
    /// Seconds spent inside the engine's `run`.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Engine runs.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Budget rounds consumed (BMC: depths queried; induction: k tried).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Runs that proved the property.
    pub fn proved(&self) -> u64 {
        self.proved.load(Ordering::Relaxed)
    }

    /// Runs that found the bad reachable.
    pub fn falsified(&self) -> u64 {
        self.falsified.load(Ordering::Relaxed)
    }

    /// Σ induction depth over proofs that carry one.
    pub fn proof_k(&self) -> u64 {
        self.proof_k.load(Ordering::Relaxed)
    }
}

/// Forwards every [`Engine`] call to `inner`, timing and counting `run`.
struct Timed<E> {
    inner: E,
    tally: Arc<EngineTally>,
}

impl<E: Engine> Engine for Timed<E> {
    fn id(&self) -> EngineId {
        self.inner.id()
    }

    fn supports(&self, aig: &Aig) -> bool {
        self.inner.supports(aig)
    }

    fn enabled(&self, opts: &CheckOptions) -> bool {
        self.inner.enabled(opts)
    }

    fn run(&self, ctx: &mut EngineCtx<'_>) -> EngineOutcome {
        let t0 = Instant::now();
        let outcome = self.inner.run(ctx);
        let t = &self.tally;
        t.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        t.runs.fetch_add(1, Ordering::Relaxed);
        t.rounds.fetch_add(ctx.budget.used(), Ordering::Relaxed);
        match &outcome {
            EngineOutcome::Proved { k } => {
                t.proved.fetch_add(1, Ordering::Relaxed);
                t.proof_k
                    .fetch_add(k.unwrap_or(0) as u64, Ordering::Relaxed);
            }
            EngineOutcome::Falsified(_) | EngineOutcome::FalsifiedAtDepth(_) => {
                t.falsified.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        outcome
    }
}

/// The four built-in engines' tallies.
#[derive(Default)]
pub struct EngineTallies {
    /// SAT bounded model checking.
    bmc: Arc<EngineTally>,
    /// SAT k-induction.
    induction: Arc<EngineTally>,
    /// Monolithic BDD reachability.
    bdd_umc: Arc<EngineTally>,
    /// Partitioned-OBDD reachability.
    pobdd: Arc<EngineTally>,
}

impl EngineTallies {
    /// A portfolio with the default cascade's engines and order, each
    /// wrapped so its runs land in these tallies.
    pub fn portfolio(&self) -> Portfolio {
        Portfolio::empty()
            .with(Box::new(Timed {
                inner: BmcEngine,
                tally: Arc::clone(&self.bmc),
            }))
            .with(Box::new(Timed {
                inner: InductionEngine,
                tally: Arc::clone(&self.induction),
            }))
            .with(Box::new(Timed {
                inner: BddUmcEngine,
                tally: Arc::clone(&self.bdd_umc),
            }))
            .with(Box::new(Timed {
                inner: PobddEngine,
                tally: Arc::clone(&self.pobdd),
            }))
    }

    /// Seconds inside any engine's `run`.
    pub fn engine_seconds(&self) -> f64 {
        [&self.bmc, &self.induction, &self.bdd_umc, &self.pobdd]
            .iter()
            .map(|t| t.seconds())
            .sum()
    }

    /// Writes the `mc.*` engine metrics into `spans`.
    pub fn record(&self, spans: &mut Spans) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        spans.set("mc.bmc_s", self.bmc.seconds());
        spans.set("mc.bmc_runs", self.bmc.runs() as f64);
        spans.set("mc.bmc_frames", self.bmc.rounds() as f64);
        spans.set(
            "mc.bmc_falsify_ratio",
            ratio(self.bmc.falsified(), self.bmc.runs()),
        );
        spans.set(
            "mc.bmc_depth_needed_ratio",
            ratio(self.induction.proof_k(), self.bmc.rounds()),
        );
        spans.set("mc.induction_s", self.induction.seconds());
        spans.set("mc.induction_runs", self.induction.runs() as f64);
        spans.set(
            "mc.induction_proved_ratio",
            ratio(self.induction.proved(), self.induction.runs()),
        );
        spans.set("mc.bdd_umc_s", self.bdd_umc.seconds());
        spans.set("mc.pobdd_s", self.pobdd.seconds());
    }
}

/// Writes the `sat.*`/`bdd.*` counters summed (peak: maximised) over
/// the statistics of every check.
pub fn record_check_stats<'a>(spans: &mut Spans, stats: impl IntoIterator<Item = &'a CheckStats>) {
    let (mut conflicts, mut allocated, mut peak, mut quota, mut iterations) = (0u64, 0u64, 0, 0, 0);
    for s in stats {
        conflicts += s.sat_conflicts;
        allocated += s.bdd_allocated;
        peak = peak.max(s.bdd_nodes);
        quota += s.bdd_quota_hits;
        iterations += s.iterations;
    }
    spans.set("sat.conflicts", conflicts as f64);
    spans.set("bdd.allocated", allocated as f64);
    spans.set("bdd.peak_live", peak as f64);
    spans.set("bdd.quota_hits", quota as f64);
    spans.set("bdd.iterations", iterations as f64);
}

/// Times, per property of `aig`, the two pre-engine stages the
/// portfolio runs inside `check_bad`: cone-of-influence extraction on
/// the bad plus every constraint, and the ternary sweep of that cone.
pub fn shadow_preanalysis(spans: &mut Spans, aig: &Aig) {
    for bad in aig.bads() {
        let mut roots = vec![bad.lit];
        roots.extend(aig.constraints().iter().map(|c| c.lit));
        let coi = spans.time("aig.coi_s", || aig.extract_coi(&roots));
        let mut sub = coi.aig;
        sub.add_bad(bad.name.clone(), coi.roots[0]);
        for (i, c) in aig.constraints().iter().enumerate() {
            sub.add_constraint(c.name.clone(), coi.roots[1 + i]);
        }
        std::hint::black_box(spans.time("aig.preanalysis_s", || ternary_sweep(&sub)));
    }
}
