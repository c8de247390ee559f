//! The verification design flow (paper §4, Figure 5) as an executable
//! campaign: logic designers release Verifiable RTL and integrity
//! specifications (here: the generated chip with checkpoint attributes);
//! the formal verification engineer derives PSL vunits, model checks
//! every leaf module, and feeds results back.

use crate::stereotype::{generate_all, GeneratedVUnit, StereotypeError};
use crate::verifiable::{make_verifiable, TransformError, VerifiableModule};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use veridic_chipgen::{Category, Chip, PropertyType};
use veridic_mc::{CheckOptions, CheckResult, CheckStats, Portfolio, PreanalysisStats, Verdict};
use veridic_psl::CompiledVUnit;

/// Campaign configuration.
#[derive(Clone, Debug, Default)]
pub struct CampaignConfig {
    /// Engine budgets per property. Each property check runs in one
    /// thread with one BDD manager per engine; the campaign's
    /// parallelism is the fan-out across properties below.
    pub check: CheckOptions,
    /// Worker threads for the per-property fan-out; `0` (the default)
    /// means one worker per available CPU. Any value produces a report
    /// byte-identical to `workers = 1`: each property check owns its own
    /// engines, and records are ordered by property index, never by
    /// completion order.
    pub workers: usize,
}

impl CampaignConfig {
    /// The effective worker count: `workers`, or the number of available
    /// CPUs when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Result of one property check within the campaign.
#[derive(Clone, Debug)]
pub struct PropertyRecord {
    /// Leaf module name.
    pub module: String,
    /// Module category.
    pub category: Category,
    /// Vunit name.
    pub vunit: String,
    /// Assertion label.
    pub label: String,
    /// Property type (P0..P3).
    pub ptype: PropertyType,
    /// Check verdict.
    pub verdict: Verdict,
    /// Engine statistics.
    pub stats: CheckStats,
    /// Wall-clock time of the check.
    pub duration: Duration,
}

/// A campaign over a whole chip.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// One record per checked assertion.
    pub records: Vec<PropertyRecord>,
    /// Modules that failed to transform or compile, with reasons.
    pub errors: Vec<(String, String)>,
    /// Total wall-clock time.
    pub total_time: Duration,
}

/// Errors during per-module preparation.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// Verifiable transform failed.
    Transform(TransformError),
    /// Property generation failed.
    Stereotype(StereotypeError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Transform(e) => write!(f, "{e}"),
            FlowError::Stereotype(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Prepares one leaf module: Verifiable transform + stereotype vunits.
///
/// # Errors
///
/// Returns [`FlowError`] if the module lacks checkpoints or generated
/// properties fail to compile.
pub fn prepare_module(
    m: &veridic_netlist::Module,
) -> Result<(VerifiableModule, Vec<(GeneratedVUnit, CompiledVUnit)>), FlowError> {
    let vm = make_verifiable(m).map_err(FlowError::Transform)?;
    let units = generate_all(&vm).map_err(FlowError::Stereotype)?;
    Ok((vm, units))
}

/// Everything one campaign worker produces for one leaf module, in the
/// same order a serial campaign would emit it.
type ModuleOutput = (Vec<PropertyRecord>, Vec<(String, String)>);

/// One fully-lowered property check, ready for any engine scheduler:
/// the vunit's multi-bad AIG plus the index of the assert under check.
///
/// This is the unit of work the campaign hands out — to its own
/// threaded executor and to external shard processes (the campaign
/// daemon re-derives the same list in each worker and picks by global
/// index). The AIG is the *whole unit's* lowering (every sibling
/// assert's bad is present, constraints included), exactly what the
/// in-process campaign passes to `Portfolio::check_bad`, so a check
/// through a [`PreparedProperty`] produces byte-identical verdicts,
/// stats and event logs to one through [`run_campaign`].
#[derive(Clone, Debug)]
pub struct PreparedProperty {
    /// Leaf module name.
    pub module: String,
    /// Module category.
    pub category: Category,
    /// Vunit name.
    pub vunit: String,
    /// Assertion label.
    pub label: String,
    /// Property type (P0..P3).
    pub ptype: PropertyType,
    /// The unit's lowered AIG: one bad per sibling assert, assumes as
    /// invariant constraints.
    pub aig: veridic_aig::Aig,
    /// Index of this property's bad in `aig` (its position among the
    /// unit's asserts).
    pub bad_index: usize,
}

/// Enumerates every checkable property of one leaf module, in the exact
/// order [`run_campaign`] checks them, together with the module's
/// preparation errors (failed Verifiable transform or AIG lowering).
///
/// Deterministic: two processes enumerating the same generated chip get
/// identical lists — the contract that lets out-of-process campaign
/// workers address properties by index.
pub fn module_properties(
    chip: &Chip,
    mi: &veridic_chipgen::ModuleInfo,
) -> (Vec<PreparedProperty>, Vec<(String, String)>) {
    let mut props = Vec::new();
    let mut errors = Vec::new();
    let m = chip
        .design()
        .module(mi.name())
        .expect("chip lists existing modules"); // lint: allow
    let (_, units) = match prepare_module(m) {
        Ok(x) => x,
        Err(e) => {
            errors.push((mi.name().to_string(), e.to_string()));
            return (props, errors);
        }
    };
    for (gen, compiled) in units {
        let lowered = match compiled.module.to_aig() {
            Ok(l) => l,
            Err(e) => {
                errors.push((mi.name().to_string(), e.to_string()));
                continue;
            }
        };
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        for (idx, (label, _)) in compiled.asserts.iter().enumerate() {
            props.push(PreparedProperty {
                module: mi.name().to_string(),
                category: mi.plan().category,
                vunit: gen.unit.name.clone(),
                label: label.clone(),
                ptype: gen.ptype,
                aig: aig.clone(),
                bad_index: idx,
            });
        }
    }
    (props, errors)
}

/// Checks one prepared property with an explicit portfolio, producing
/// the same [`PropertyRecord`] the in-process campaign would emit for
/// it (wall-clock aside).
pub fn check_property(
    prop: &PreparedProperty,
    portfolio: &Portfolio,
    check: &CheckOptions,
) -> PropertyRecord {
    let t0 = Instant::now();
    let mut stats = CheckStats::default();
    let verdict = portfolio.check_bad(&prop.aig, prop.bad_index, check, &mut stats);
    PropertyRecord {
        module: prop.module.clone(),
        category: prop.category,
        vunit: prop.vunit.clone(),
        label: prop.label.clone(),
        ptype: prop.ptype,
        verdict,
        stats,
        duration: t0.elapsed(),
    }
}

/// Assembles the [`PropertyRecord`] for a check that was driven
/// externally — the out-of-process campaign workers run properties in
/// budget slices (with checkpoints persisted between them) and hand the
/// final [`CheckResult`] here, so the record shape stays defined in one
/// place regardless of who scheduled the engines.
pub fn record_from_result(
    prop: &PreparedProperty,
    result: CheckResult,
    duration: Duration,
) -> PropertyRecord {
    PropertyRecord {
        module: prop.module.clone(),
        category: prop.category,
        vunit: prop.vunit.clone(),
        label: prop.label.clone(),
        ptype: prop.ptype,
        verdict: result.verdict,
        stats: result.stats,
        duration,
    }
}

/// Prepares and checks every stereotype property of one leaf module.
/// The portfolio is shared by reference across campaign workers — it
/// owns no per-run state, only the engine policy.
fn run_module(
    chip: &Chip,
    mi: &veridic_chipgen::ModuleInfo,
    portfolio: &Portfolio,
    check: &CheckOptions,
) -> ModuleOutput {
    let (props, errors) = module_properties(chip, mi);
    let records = props.iter().map(|p| check_property(p, portfolio, check)).collect();
    (records, errors)
}

/// Runs the full formal campaign over a generated chip: every leaf
/// module, every stereotype property.
///
/// Modules fan out across [`CampaignConfig::workers`] scoped threads
/// pulling the next module index from a shared atomic queue, so both
/// preparation (Verifiable transform, stereotype generation, AIG
/// lowering) and the per-property `check_one` calls run in parallel,
/// and a module's AIGs are dropped as soon as its checks finish — only
/// in-flight modules stay resident. Every check owns its engines, and
/// per-module outputs are merged back in module-index order, so the
/// report is identical to a serial run regardless of worker count or
/// completion order.
pub fn run_campaign(chip: &Chip, cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_with_portfolio(chip, cfg, &Portfolio::default())
}

/// [`run_campaign`] with an explicit engine [`Portfolio`]: every
/// property check is scheduled by `portfolio` instead of the default
/// cascade, so a campaign can run a custom engine mix (BDD-only
/// portfolios, per-engine round caps, user-implemented engines). The
/// portfolio is shared by reference across the campaign workers.
pub fn run_campaign_with_portfolio(
    chip: &Chip,
    cfg: &CampaignConfig,
    portfolio: &Portfolio,
) -> CampaignReport {
    let start = Instant::now();
    let mut report = CampaignReport::default();

    let modules = chip.modules();
    let workers = cfg.effective_workers().min(modules.len().max(1));
    let outputs: Vec<ModuleOutput> = if workers <= 1 {
        modules.iter().map(|mi| run_module(chip, mi, portfolio, &cfg.check)).collect()
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<ModuleOutput>> = vec![None; modules.len()];
        let per_worker: Vec<Vec<(usize, ModuleOutput)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(mi) = modules.get(i) else { break };
                            out.push((i, run_module(chip, mi, portfolio, &cfg.check)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked")) // lint: allow
                .collect()
        });
        for (i, o) in per_worker.into_iter().flatten() {
            slots[i] = Some(o);
        }
        slots
            .into_iter()
            .map(|o| o.expect("every module produced an output")) // lint: allow
            .collect()
    };
    for (records, errors) in outputs {
        report.records.extend(records);
        report.errors.extend(errors);
    }

    report.total_time = start.elapsed();
    report
}

/// One row of the Table-2 reproduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table2Row {
    /// Category.
    pub category: Category,
    /// Submodule count.
    pub submodules: usize,
    /// Distinct bugs found (falsified properties attributed to seeded
    /// defects; the decoder's single failing property counts its two
    /// independent bad cases).
    pub bugs: usize,
    /// P0 properties checked.
    pub p0: usize,
    /// P1 properties checked.
    pub p1: usize,
    /// P2 properties checked.
    pub p2: usize,
    /// P3 properties checked.
    pub p3: usize,
}

impl CampaignReport {
    /// Aggregates the campaign into Table 2 rows (one per category).
    pub fn table2(&self, chip: &Chip) -> Vec<Table2Row> {
        let mut rows: BTreeMap<Category, Table2Row> = BTreeMap::new();
        for mi in chip.modules() {
            let row = rows.entry(mi.plan().category).or_insert(Table2Row {
                category: mi.plan().category,
                submodules: 0,
                bugs: 0,
                p0: 0,
                p1: 0,
                p2: 0,
                p3: 0,
            });
            row.submodules += 1;
        }
        for r in &self.records {
            let row = rows.get_mut(&r.category).expect("category exists"); // lint: allow
            match r.ptype {
                PropertyType::ErrorDetection => row.p0 += 1,
                PropertyType::Soundness => row.p1 += 1,
                PropertyType::OutputIntegrity => row.p2 += 1,
                PropertyType::Other => row.p3 += 1,
            }
        }
        // Bugs: seeded defects confirmed by at least one falsified
        // property in the hosting module.
        for (module, bug) in chip.bugs() {
            let hit = self
                .records
                .iter()
                .any(|r| r.module == module && r.verdict.is_falsified());
            if hit {
                let cat = chip
                    .modules()
                    .iter()
                    .find(|m| m.name() == module)
                    .expect("bug module exists") // lint: allow
                    .plan()
                    .category;
                rows.get_mut(&cat).expect("category exists").bugs += 1; // lint: allow
            }
            let _ = bug;
        }
        rows.into_values().collect()
    }

    /// All falsified properties.
    pub fn failures(&self) -> Vec<&PropertyRecord> {
        self.records.iter().filter(|r| r.verdict.is_falsified()).collect()
    }

    /// All properties that ran out of budget.
    pub fn resource_outs(&self) -> Vec<&PropertyRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::ResourceOut { .. }))
            .collect()
    }

    /// Renders the Table-2 reproduction as text.
    pub fn render_table2(&self, chip: &Chip) -> String {
        let rows = self.table2(chip);
        let mut s = String::new();
        let _ = writeln!(s, "Table 2. Number of verified properties");
        let _ = writeln!(s, "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
            "Module", "#Sub", "#Bug", "P0", "P1", "P2", "P3", "Total");
        let mut tot = (0, 0, 0, 0, 0, 0, 0);
        for r in &rows {
            let total = r.p0 + r.p1 + r.p2 + r.p3;
            let _ = writeln!(s, "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
                r.category.to_string(), r.submodules, r.bugs, r.p0, r.p1, r.p2, r.p3, total);
            tot.0 += r.submodules;
            tot.1 += r.bugs;
            tot.2 += r.p0;
            tot.3 += r.p1;
            tot.4 += r.p2;
            tot.5 += r.p3;
            tot.6 += total;
        }
        let _ = writeln!(s, "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
            "Total", tot.0, tot.1, tot.2, tot.3, tot.4, tot.5, tot.6);
        s
    }

    /// Peak **live** BDD nodes across all records — the campaign-wide
    /// high-water mark of the BDD garbage collector, for the bench
    /// live-peak-nodes column.
    pub fn peak_bdd_nodes(&self) -> usize {
        self.records.iter().map(|r| r.stats.bdd_nodes).max().unwrap_or(0)
    }

    /// Total BDD nodes ever allocated across the campaign
    /// (GC-independent; the gap to [`CampaignReport::peak_bdd_nodes`]
    /// is what collection reclaimed).
    pub fn total_bdd_allocated(&self) -> u64 {
        self.records.iter().map(|r| r.stats.bdd_allocated).sum()
    }

    /// Properties whose BDD engines hit the node quota at least once.
    pub fn quota_hit_count(&self) -> usize {
        self.records.iter().filter(|r| r.stats.bdd_quota_hits > 0).count()
    }

    /// Campaign-wide totals of the static pre-analysis stage
    /// (`CheckStats::preanalysis` summed across every record): cones
    /// swept, sequentially-stuck latches found, AND nodes folded away,
    /// and properties concluded without any engine. Surfaced as extra
    /// lines by the table bins — deliberately *not* part of
    /// [`CampaignReport::render_table2`], whose text is byte-compared
    /// across worker counts.
    pub fn preanalysis_totals(&self) -> PreanalysisStats {
        let mut total = PreanalysisStats::default();
        for r in &self.records {
            total.bads_analyzed += r.stats.preanalysis.bads_analyzed;
            total.stuck_latches += r.stats.preanalysis.stuck_latches;
            total.folded_ands += r.stats.preanalysis.folded_ands;
            total.vacuous += r.stats.preanalysis.vacuous;
        }
        total
    }

    /// Properties the pre-analysis stage concluded on its own — proved
    /// vacuous or trivially falsified with **zero** engine invocations.
    pub fn vacuous_count(&self) -> usize {
        self.records.iter().filter(|r| r.stats.preanalysis.vacuous > 0).count()
    }

    /// Fraction of properties proved.
    pub fn proved_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.verdict.is_proved()).count() as f64
            / self.records.len() as f64
    }

    /// One-line JSON summary of the whole campaign, with a **stable
    /// field order** (hand-emitted, no map iteration), so two runs of
    /// the same campaign differ only in `total_time_ms`. This is the
    /// terminal line of the campaign daemon's NDJSON results log and
    /// the machine-readable footer the table bins print — it carries
    /// the pre-analysis aggregates ([`CampaignReport::preanalysis_totals`],
    /// [`CampaignReport::vacuous_count`]) that previously existed only
    /// as ad-hoc printed text.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let pre = self.preanalysis_totals();
        let _ = write!(
            s,
            "{{\"type\":\"summary\",\"properties\":{},\"errors\":{},\"proved\":{},\
             \"falsified\":{},\"resource_out\":{},\"proved_ratio\":{:.6},\
             \"peak_bdd_nodes\":{},\"total_bdd_allocated\":{},\"quota_hits\":{},\
             \"preanalysis_totals\":{{\"bads_analyzed\":{},\"stuck_latches\":{},\
             \"folded_ands\":{},\"vacuous\":{}}},\"vacuous_count\":{},\
             \"total_time_ms\":{}}}",
            self.records.len(),
            self.errors.len(),
            self.records.iter().filter(|r| r.verdict.is_proved()).count(),
            self.failures().len(),
            self.resource_outs().len(),
            self.proved_ratio(),
            self.peak_bdd_nodes(),
            self.total_bdd_allocated(),
            self.quota_hit_count(),
            pre.bads_analyzed,
            pre.stuck_latches,
            pre.folded_ands,
            pre.vacuous,
            self.vacuous_count(),
            self.total_time.as_millis(),
        );
        s
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl PropertyRecord {
    /// One-line JSON rendering of this record, with a **stable field
    /// order** (hand-emitted): everything deterministic first, the
    /// wall-clock `duration_ms` last, so two runs of the same check
    /// produce lines that differ only in their final field. One such
    /// line per finished property is the body of the campaign daemon's
    /// NDJSON results log.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"type\":\"property\",\"module\":\"{}\",\"category\":\"{}\",\
             \"vunit\":\"{}\",\"label\":\"{}\",\"ptype\":\"{}\",\"verdict\":",
            json_escape(&self.module),
            self.category,
            json_escape(&self.vunit),
            json_escape(&self.label),
            self.ptype,
        );
        match &self.verdict {
            Verdict::Proved { engine } => {
                let _ = write!(s, "{{\"status\":\"proved\",\"engine\":\"{}\"}}", json_escape(engine));
            }
            Verdict::Falsified(trace) => {
                let _ = write!(
                    s,
                    "{{\"status\":\"falsified\",\"depth\":{},\"bad_index\":{}}}",
                    trace.inputs.len(),
                    trace.bad_index,
                );
            }
            Verdict::ResourceOut { reason } => {
                let _ = write!(
                    s,
                    "{{\"status\":\"resource_out\",\"reason\":\"{}\"}}",
                    json_escape(reason)
                );
            }
        }
        let st = &self.stats;
        let _ = write!(
            s,
            ",\"stats\":{{\"engines\":[{}],\"coi_latches\":{},\"coi_ands\":{},\
             \"bdd_nodes\":{},\"bdd_allocated\":{},\"bdd_quota_hits\":{},\
             \"sat_conflicts\":{},\"iterations\":{},\
             \"preanalysis\":{{\"bads_analyzed\":{},\"stuck_latches\":{},\
             \"folded_ands\":{},\"vacuous\":{}}}}},\"duration_ms\":{}}}",
            st.events
                .iter()
                .map(|e| format!("\"{}\"", json_escape(&e.render())))
                .collect::<Vec<_>>()
                .join(","),
            st.coi_latches,
            st.coi_ands,
            st.bdd_nodes,
            st.bdd_allocated,
            st.bdd_quota_hits,
            st.sat_conflicts,
            st.iterations,
            st.preanalysis.bads_analyzed,
            st.preanalysis.stuck_latches,
            st.preanalysis.folded_ands,
            st.preanalysis.vacuous,
            self.duration.as_millis(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_chipgen::{ChipConfig, Scale};

    #[test]
    fn clean_small_chip_proves_everything() {
        let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: false });
        let report = run_campaign(&chip, &CampaignConfig::default());
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "clean chip must verify: {:?}",
            failures
                .iter()
                .map(|f| (&f.module, &f.label, &f.verdict))
                .collect::<Vec<_>>()
        );
        assert!(
            report.resource_outs().is_empty(),
            "budgets must suffice: {:?}",
            report
                .resource_outs()
                .iter()
                .map(|f| (&f.module, &f.label))
                .collect::<Vec<_>>()
        );
        // Census: the small chip checks its planned property counts.
        let expected: usize = chip
            .modules()
            .iter()
            .map(|m| m.plan().p0() + m.plan().p1() + m.plan().p2() + m.plan().p3)
            .sum();
        assert_eq!(report.records.len(), expected);
        // Stats plumbing: at least one property exercised a BDD engine,
        // and peak live can never exceed total allocations.
        assert!(report.peak_bdd_nodes() > 0);
        assert!(report.total_bdd_allocated() >= report.peak_bdd_nodes() as u64);
        assert_eq!(report.quota_hit_count(), 0, "default budgets must not hit the quota");
    }

    #[test]
    fn buggy_small_chip_finds_all_seven_bugs() {
        let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: true });
        let report = run_campaign(&chip, &CampaignConfig::default());
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // Every seeded bug's module has at least one falsified property.
        for (module, bug) in chip.bugs() {
            let hits: Vec<&PropertyRecord> = report
                .records
                .iter()
                .filter(|r| r.module == module && r.verdict.is_falsified())
                .collect();
            assert!(!hits.is_empty(), "bug {bug} in {module} missed by the campaign");
            // The failing property type matches Table 3.
            assert!(
                hits.iter().any(|h| h.ptype == bug.property_type()),
                "bug {bug} should fail a {} property; failing: {:?}",
                bug.property_type(),
                hits.iter().map(|h| (h.ptype, &h.label)).collect::<Vec<_>>()
            );
        }
        // No spurious failures in unbugged modules.
        let bug_modules: std::collections::BTreeSet<String> =
            chip.bugs().into_iter().map(|(m, _)| m).collect();
        for r in report.failures() {
            assert!(
                bug_modules.contains(&r.module),
                "spurious failure in clean module {}: {}",
                r.module,
                r.label
            );
        }
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        // Determinism is an executor property, not an engine property, so
        // the deliberately small Fig.7 budgets keep this test fast: the
        // verdict mix (proofs, falsifications, resource-outs) still has to
        // be byte-for-byte stable across worker counts.
        let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: true });
        let check = CheckOptions::tiny_budget();
        let serial = run_campaign(&chip, &CampaignConfig { check: check.clone(), workers: 1 });
        let parallel = run_campaign(&chip, &CampaignConfig { check, workers: 4 });
        assert_eq!(serial.errors, parallel.errors);
        assert_eq!(serial.records.len(), parallel.records.len());
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.module, b.module);
            assert_eq!(a.vunit, b.vunit);
            assert_eq!(a.label, b.label);
            assert_eq!(a.ptype, b.ptype);
            assert_eq!(a.verdict, b.verdict, "{}/{}", a.module, a.label);
        }
        // The rendered report (which carries no wall-clock noise) is
        // byte-identical — the determinism contract of the executor.
        assert_eq!(serial.render_table2(&chip), parallel.render_table2(&chip));
    }

    #[test]
    fn preanalysis_totals_aggregate_across_records() {
        let mut report = CampaignReport::default();
        assert_eq!(report.preanalysis_totals(), PreanalysisStats::default());
        assert_eq!(report.vacuous_count(), 0);
        for (stuck, folded, vacuous) in [(2usize, 5usize, 0usize), (1, 3, 1)] {
            let stats = CheckStats {
                preanalysis: veridic_mc::PreanalysisStats {
                    bads_analyzed: 1,
                    stuck_latches: stuck,
                    folded_ands: folded,
                    vacuous,
                },
                ..CheckStats::default()
            };
            report.records.push(PropertyRecord {
                module: "m".into(),
                category: Category::A,
                vunit: "v".into(),
                label: "l".into(),
                ptype: PropertyType::Soundness,
                verdict: Verdict::Proved { engine: "preanalysis" },
                stats,
                duration: Duration::default(),
            });
        }
        let totals = report.preanalysis_totals();
        assert_eq!(totals.bads_analyzed, 2);
        assert_eq!(totals.stuck_latches, 3);
        assert_eq!(totals.folded_ands, 8);
        assert_eq!(totals.vacuous, 1);
        assert_eq!(report.vacuous_count(), 1, "only the second record concluded statically");
    }

    #[test]
    fn effective_workers_resolves_auto() {
        let auto = CampaignConfig::default();
        assert!(auto.effective_workers() >= 1);
        let pinned = CampaignConfig { workers: 3, ..Default::default() };
        assert_eq!(pinned.effective_workers(), 3);
    }

    #[test]
    fn table2_shape_on_small_chip() {
        let chip = Chip::generate(&ChipConfig { scale: Scale::Small, with_bugs: true });
        let report = run_campaign(&chip, &CampaignConfig::default());
        let rows = report.table2(&chip);
        assert_eq!(rows.len(), 5);
        let text = report.render_table2(&chip);
        assert!(text.contains("Table 2"));
        assert!(text.contains("Total"));
        // Bug census at small scale: same placement as full scale.
        let bugs: usize = rows.iter().map(|r| r.bugs).sum();
        assert_eq!(bugs, 7);
    }
}
