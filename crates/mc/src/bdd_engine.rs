//! BDD-based unbounded model checking: clustered transition relations,
//! early quantification, forward reachability.
//!
//! Variable order interleaves current and next state: latch `i` gets
//! current variable `2i` and next variable `2i+1`; primary inputs follow
//! after all state variables. Interleaving keeps the current→next rename
//! order-preserving, so renaming is a linear rebuild.

use crate::checkpoint::ReachCheckpoint;
use crate::engine::Budget;
use crate::CheckStats;
use veridic_aig::{Aig, Lit, Var};
use veridic_bdd::transfer;
use veridic_bdd::{BddManager, FxHashMap, NodeId, OutOfNodes};

/// Outcome of a BDD reachability engine.
#[derive(Clone, Debug, PartialEq)]
pub enum BddEngineOutcome {
    /// Bad is unreachable: property proved.
    Proved,
    /// Bad intersects the states reachable in exactly `k` steps.
    FalsifiedAtDepth(usize),
    /// Node quota or iteration limit exhausted.
    ResourceOut,
    /// The cooperative round [`Budget`] stopped the run between rounds;
    /// the checkpoint carries the reached/frontier sets serialized
    /// through [`veridic_bdd::transfer`] so the fixpoint resumes in a
    /// fresh manager. Never returned by the unbudgeted entry points
    /// ([`bdd_umc`], [`crate::pobdd_reach`]).
    Suspended(ReachCheckpoint),
    /// A slot-local round cap stopped the run
    /// ([`Budget::checkpoint_worthwhile`] said no): the scheduler will
    /// hand over to the next engine and discard any state, so no
    /// checkpoint was built — the reached-set export is skipped
    /// entirely. Never returned by the unbudgeted entry points.
    Yielded,
}

/// A transition-system build that exhausted the node quota, carrying the
/// manager's accounting so callers can record honest statistics on the
/// failure path (Table 2/3 used to report 0 nodes for quota-exhausted
/// builds).
#[derive(Clone, Copy, Debug)]
pub struct BuildError {
    /// The underlying quota error.
    pub err: OutOfNodes,
    /// Peak live nodes at the point of failure.
    pub peak_live_nodes: usize,
    /// Total nodes ever allocated (GC-independent).
    pub total_allocated: u64,
}

/// A symbolic transition system: per-latch next-state functions, the
/// constraint and bad relations, initial state and quantification cubes.
///
/// Every field holding a `NodeId` is registered in the manager's root
/// set for the struct's lifetime, so garbage collection under quota
/// pressure only reclaims dead intermediates (old frontiers, image
/// temporaries, superseded accumulators).
#[derive(Debug)]
pub struct TransitionSystem {
    /// The manager owning all nodes below.
    pub mgr: BddManager,
    /// `T_i = (next_i ↔ f_i)` conjuncts, clustered.
    pub clusters: Vec<NodeId>,
    /// Early-quantification cube for each cluster (variables whose last
    /// use is that cluster).
    pub cluster_cubes: Vec<NodeId>,
    /// Variables not used by any cluster, quantified up front.
    pub residual_cube: NodeId,
    /// Initial state predicate (over current vars).
    pub init: NodeId,
    /// Constraint predicate (over current + input vars).
    pub constraint: NodeId,
    /// Bad predicate (over current + input vars).
    pub bad: NodeId,
    /// Precomputed `bad ∧ constraint`, the target of reachability tests.
    pub bad_constraint: NodeId,
    /// Rename map next→current.
    pub next_to_cur: Vec<(u32, u32)>,
    num_latches: usize,
    num_inputs: usize,
}

/// Maximum BDD size of a cluster before a new one is started. Halved
/// when complement edges landed: `size` dropped by roughly 2x for the
/// same logical content, and this keeps the image-step granularity of
/// the tuned non-complemented engine.
const CLUSTER_LIMIT: usize = 1_250;

impl TransitionSystem {
    /// Builds the transition system of `aig` in a fresh manager with the
    /// given node quota. Persistent parts are rooted as they are built,
    /// so construction itself can garbage-collect its dead intermediates
    /// under quota pressure.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] — the quota error plus the manager's node
    /// accounting — if construction exceeds the quota even after GC.
    pub fn build(aig: &Aig, node_quota: usize) -> Result<Self, BuildError> {
        Self::build_with_order(aig, node_quota, None)
    }

    /// [`TransitionSystem::build`] with the manager's variable order
    /// seeded before any node exists. `order` is a permutation of the
    /// full BDD variable space (see `static_bdd_order`); `None` keeps
    /// the natural interleaved order and is byte-identical to
    /// [`TransitionSystem::build`] — the seeding is an extra call on an
    /// empty manager, never a changed one.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] — the quota error plus the manager's node
    /// accounting — if construction exceeds the quota even after GC.
    pub fn build_with_order(
        aig: &Aig,
        node_quota: usize,
        order: Option<&[u32]>,
    ) -> Result<Self, BuildError> {
        let mut mgr = BddManager::new(node_quota);
        if let Some(order) = order {
            mgr.adopt_order(order);
        }
        match Self::build_parts(aig, &mut mgr) {
            Ok(parts) => Ok(parts.into_system(mgr, aig)),
            Err(err) => Err(BuildError {
                err,
                peak_live_nodes: mgr.peak_live_nodes(),
                total_allocated: mgr.total_allocated(),
            }),
        }
    }

    fn build_parts(aig: &Aig, mgr: &mut BddManager) -> Result<Parts, OutOfNodes> {
        let n = aig.num_latches();
        // var mapping: latch i cur = 2i, next = 2i+1; input j = 2n + j.
        let cur_var = |i: usize| 2 * i as u32;
        let next_var = |i: usize| 2 * i as u32 + 1;
        let input_var = |j: usize| (2 * n + j) as u32;

        // Node → BDD over (cur, input) vars. Every entry is rooted until
        // the end of construction: these are the values held across
        // allocating calls (and the first protect arms automatic GC).
        let mut node_bdd: FxHashMap<Var, NodeId> = FxHashMap::default();
        node_bdd.insert(Var(0), NodeId::FALSE);
        for (j, (v, _)) in aig.inputs().iter().enumerate() {
            let b = mgr.var(input_var(j))?;
            mgr.protect(b);
            node_bdd.insert(*v, b);
        }
        for (i, l) in aig.latches().iter().enumerate() {
            let b = mgr.var(cur_var(i))?;
            mgr.protect(b);
            node_bdd.insert(l.var, b);
        }
        for v in aig.and_order() {
            let (a, b) = aig.and_fanins(v).expect("AND node"); // lint: allow
            let ba = lit_bdd(&node_bdd, a);
            let bb = lit_bdd(&node_bdd, b);
            let r = mgr.and(ba, bb)?;
            mgr.protect(r);
            node_bdd.insert(v, r);
        }

        // Per-latch relations T_i = next_i ↔ f_i, clustered. The running
        // accumulator and the finished clusters stay rooted.
        let mut clusters = Vec::new();
        let mut current: Option<NodeId> = None;
        for (i, l) in aig.latches().iter().enumerate() {
            let f = lit_bdd(&node_bdd, l.next);
            let nv = mgr.var(next_var(i))?;
            let t = mgr.xnor(nv, f)?;
            current = Some(match current {
                None => {
                    mgr.protect(t);
                    t
                }
                Some(c) => {
                    let merged = mgr.and(c, t)?;
                    if mgr.size(merged) > CLUSTER_LIMIT {
                        clusters.push(c); // keeps c's root registration
                        mgr.protect(t);
                        t
                    } else {
                        mgr.reroot(c, merged);
                        merged
                    }
                }
            });
        }
        if let Some(c) = current {
            clusters.push(c);
        }

        // Constraint and bad.
        let mut constraint = NodeId::TRUE;
        for c in aig.constraints() {
            let b = lit_bdd(&node_bdd, c.lit);
            constraint = mgr.and(constraint, b)?;
        }
        mgr.protect(constraint);
        let mut bad = NodeId::FALSE;
        for b in aig.bads() {
            let bb = lit_bdd(&node_bdd, b.lit);
            bad = mgr.or(bad, bb)?;
        }
        mgr.protect(bad);
        let bad_constraint = mgr.and(bad, constraint)?;
        mgr.protect(bad_constraint);

        // Initial state cube.
        let mut init = NodeId::TRUE;
        for (i, l) in aig.latches().iter().enumerate().rev() {
            let v = if l.init {
                mgr.var(cur_var(i))?
            } else {
                mgr.nvar(cur_var(i))?
            };
            let ni = mgr.and(init, v)?;
            mgr.reroot(init, ni);
            init = ni;
        }

        // Quantification schedule: a (cur|input) variable is quantified at
        // the last cluster whose support contains it; variables in no
        // cluster go to the residual cube (quantified before cluster 0).
        let quantifiable: Vec<u32> = (0..n)
            .map(cur_var)
            .chain((0..aig.num_inputs()).map(input_var))
            .collect();
        let mut last_use: FxHashMap<u32, usize> = FxHashMap::default();
        for (k, c) in clusters.iter().enumerate() {
            for v in mgr.support(*c) {
                if v % 2 == 0 || v >= 2 * n as u32 {
                    last_use.insert(v, k);
                }
            }
        }
        let mut cluster_vars: Vec<Vec<u32>> = vec![Vec::new(); clusters.len()];
        let mut residual_vars: Vec<u32> = Vec::new();
        for v in quantifiable {
            match last_use.get(&v) {
                Some(&k) => cluster_vars[k].push(v),
                None => residual_vars.push(v),
            }
        }
        let mut cluster_cubes = Vec::with_capacity(cluster_vars.len());
        for vs in cluster_vars {
            let cb = mgr.cube(&vs)?;
            mgr.protect(cb);
            cluster_cubes.push(cb);
        }
        let residual_cube = mgr.cube(&residual_vars)?;
        mgr.protect(residual_cube);

        // Release the construction temporaries; the returned parts keep
        // their registrations for the manager's lifetime.
        for b in node_bdd.values() {
            mgr.unprotect(*b);
        }

        Ok(Parts {
            clusters,
            cluster_cubes,
            residual_cube,
            init,
            constraint,
            bad,
            bad_constraint,
        })
    }

    /// Image: states reachable in one constrained step from `s`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] if the node quota is exhausted.
    pub fn image(&mut self, s: NodeId) -> Result<NodeId, OutOfNodes> {
        let mut acc = self.mgr.and(s, self.constraint)?;
        acc = self.mgr.exists(acc, self.residual_cube)?;
        for k in 0..self.clusters.len() {
            acc = self
                .mgr
                .and_exists(acc, self.clusters[k], self.cluster_cubes[k])?;
        }
        self.mgr.rename(acc, &self.next_to_cur)
    }

    /// True if `s` intersects `bad ∧ constraint` (bad may depend on
    /// inputs, which are quantified existentially). Pure traversal: no
    /// nodes are allocated, so this can neither fail nor eat the quota.
    pub fn intersects_bad(&self, s: NodeId) -> bool {
        self.mgr.intersects(s, self.bad_constraint)
    }

    /// Number of latches (state variables).
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }
}

/// The rooted pieces of a transition system, before the manager is moved
/// into the struct.
struct Parts {
    clusters: Vec<NodeId>,
    cluster_cubes: Vec<NodeId>,
    residual_cube: NodeId,
    init: NodeId,
    constraint: NodeId,
    bad: NodeId,
    bad_constraint: NodeId,
}

impl Parts {
    fn into_system(self, mgr: BddManager, aig: &Aig) -> TransitionSystem {
        let n = aig.num_latches();
        let next_to_cur: Vec<(u32, u32)> =
            (0..n).map(|i| (2 * i as u32 + 1, 2 * i as u32)).collect();
        TransitionSystem {
            mgr,
            clusters: self.clusters,
            cluster_cubes: self.cluster_cubes,
            residual_cube: self.residual_cube,
            init: self.init,
            constraint: self.constraint,
            bad: self.bad,
            bad_constraint: self.bad_constraint,
            next_to_cur,
            num_latches: n,
            num_inputs: aig.num_inputs(),
        }
    }
}

/// AIG literal → BDD: with complement edges the complemented literal is
/// a free tag flip, so this neither allocates nor fails.
fn lit_bdd(node_bdd: &FxHashMap<Var, NodeId>, l: Lit) -> NodeId {
    let base = node_bdd[&l.var()];
    if l.is_compl() {
        !base
    } else {
        base
    }
}

/// Forward-reachability UMC: returns Proved if the bad never intersects
/// the reachable set, the violation depth otherwise.
///
/// `reached` and `frontier` are registered as garbage-collection roots,
/// so quota pressure reclaims dead image intermediates and superseded
/// frontiers instead of counting them against the budget. Statistics
/// (peak live nodes, total allocations, quota hits) are recorded on
/// every exit path, including build failure.
pub fn bdd_umc(
    aig: &Aig,
    node_quota: usize,
    max_iterations: usize,
    stats: &mut CheckStats,
) -> BddEngineOutcome {
    bdd_umc_session(aig, node_quota, max_iterations, false, stats, &mut Budget::unlimited(), None)
}

/// A FORCE static variable order translated into the BDD variable
/// space, plus the span accounting recorded into
/// [`CheckStats::static_order_span_before`] /
/// [`CheckStats::static_order_span_after`].
pub(crate) struct StaticOrder {
    /// Permutation of the full BDD variable space `0..2n+i`: each
    /// latch's `(2i, 2i+1)` twin stays adjacent (so the interleaved
    /// rename stays order-preserving), placed at the latch slot's FORCE
    /// position; inputs follow their own FORCE positions.
    pub order: Vec<u32>,
    /// Total hyperedge span of the natural order.
    pub span_before: u64,
    /// Total hyperedge span of the adopted order.
    pub span_after: u64,
}

/// Computes the FORCE static order for `aig`
/// (`veridic_aig::structure::force_order`) and translates the
/// latch/input slot permutation into a BDD variable order. Purely
/// structural — a function of the AIG alone.
pub(crate) fn static_bdd_order(aig: &Aig) -> StaticOrder {
    let fo = veridic_aig::structure::force_order(aig);
    let n = aig.num_latches();
    let mut order = Vec::with_capacity(2 * n + aig.num_inputs());
    for &slot in &fo.slots {
        if (slot as usize) < n {
            order.push(2 * slot);
            order.push(2 * slot + 1);
        } else {
            order.push((2 * n) as u32 + (slot - n as u32));
        }
    }
    StaticOrder { order, span_before: fo.span_before, span_after: fo.span_after }
}

/// [`bdd_umc`] under a cooperative round [`Budget`], optionally resumed
/// from a [`ReachCheckpoint`] of an earlier suspended run on the same
/// AIG.
///
/// One budget round is consumed per reachability image. When the budget
/// trips *between* rounds, the engine exports its reached and frontier
/// sets through [`veridic_bdd::transfer`] (the frontier delta-encoded
/// against the reached export — it is a subset, so the delta is small)
/// and returns [`BddEngineOutcome::Suspended`]; resuming imports them
/// into a fresh manager and continues at round `depth + 1`, so verdict,
/// falsification depth and the completed-round count in
/// [`CheckStats::iterations`] are identical to an uninterrupted run
/// (manager accounting — allocations, peaks — naturally differs: the
/// fresh manager never built the dead intermediates of the first
/// session).
///
/// `static_order` seeds the session's manager with the FORCE static
/// variable order (see `static_bdd_order`) before any node is built.
/// Verdict, depth and iteration count are unaffected; with it off no
/// extra call of any kind is made, so the run is byte-identical to
/// previous releases.
pub fn bdd_umc_session(
    aig: &Aig,
    node_quota: usize,
    max_iterations: usize,
    static_order: bool,
    stats: &mut CheckStats,
    budget: &mut Budget,
    resume: Option<&ReachCheckpoint>,
) -> BddEngineOutcome {
    let seeded = if static_order {
        let so = static_bdd_order(aig);
        stats.static_order_span_before = so.span_before;
        stats.static_order_span_after = so.span_after;
        Some(so.order)
    } else {
        None
    };
    let order = seeded.as_deref();
    let mut ts = match TransitionSystem::build_with_order(aig, node_quota, order) {
        Ok(ts) => ts,
        Err(e) => {
            stats.bdd_nodes = stats.bdd_nodes.max(e.peak_live_nodes);
            stats.bdd_allocated += e.total_allocated;
            stats.bdd_quota_hits += 1;
            return BddEngineOutcome::ResourceOut;
        }
    };
    let outcome = (|| -> Result<BddEngineOutcome, OutOfNodes> {
        let (mut reached, mut frontier, start_depth) = match session_start(&mut ts, resume)? {
            Some(start) => start,
            None => return Ok(BddEngineOutcome::FalsifiedAtDepth(0)),
        };
        // `stats.iterations` counts *completed* rounds: a round that
        // concludes the check (fixpoint or falsification) counts, a
        // round aborted by the quota does not — the same convention as
        // `pobdd_reach`, so a quota failure during the depth-d image
        // reports d-1 from both engines (it used to report d-1 here and
        // d there, skewing Tables 2/3 between engines).
        for depth in start_depth + 1..=max_iterations {
            if !budget.tick() {
                if !budget.checkpoint_worthwhile() {
                    return Ok(BddEngineOutcome::Yielded);
                }
                return Ok(BddEngineOutcome::Suspended(monolithic_checkpoint(
                    &ts.mgr,
                    depth - 1,
                    reached,
                    frontier,
                )));
            }
            let img = ts.image(frontier)?;
            let new = ts.mgr.and_not(img, reached)?;
            if new == NodeId::FALSE {
                stats.iterations = depth;
                return Ok(BddEngineOutcome::Proved);
            }
            if ts.intersects_bad(new) {
                stats.iterations = depth;
                return Ok(BddEngineOutcome::FalsifiedAtDepth(depth));
            }
            ts.mgr.protect(new); // becomes the next frontier
            let r = ts.mgr.or(reached, new)?;
            ts.mgr.reroot(reached, r);
            reached = r;
            ts.mgr.unprotect(frontier);
            frontier = new;
            stats.iterations = depth;
        }
        Ok(BddEngineOutcome::ResourceOut)
    })();
    stats.bdd_nodes = stats.bdd_nodes.max(ts.mgr.peak_live_nodes());
    stats.bdd_allocated += ts.mgr.total_allocated();
    match outcome {
        Ok(o) => o,
        Err(_) => {
            stats.bdd_quota_hits += 1;
            BddEngineOutcome::ResourceOut
        }
    }
}

/// Prologue of a monolithic session: import the checkpoint (the
/// frontier through the delta path, against its paired reached export)
/// or root the initial state and run the depth-0 bad check. `Ok(None)`
/// means bad intersects the initial states.
fn session_start(
    ts: &mut TransitionSystem,
    resume: Option<&ReachCheckpoint>,
) -> Result<Option<(NodeId, NodeId, usize)>, OutOfNodes> {
    match resume {
        Some(ck) => {
            assert_eq!(ck.window_vars, 0, "monolithic engine resumed with a POBDD checkpoint");
            assert_eq!(ck.reached.len(), 1, "monolithic checkpoint has one window");
            // Imports arrive rooted — exactly the registration the
            // reached/frontier slots own.
            let r = transfer::import(&ck.reached[0], &mut ts.mgr)?;
            let f = transfer::import_delta(&ck.frontier[0], &ck.reached[0], &mut ts.mgr)?;
            Ok(Some((r, f, ck.depth)))
        }
        None => {
            let init = ts.init;
            ts.mgr.protect(init); // reached slot
            ts.mgr.protect(init); // frontier slot
            if ts.intersects_bad(init) {
                return Ok(None);
            }
            Ok(Some((init, init, 0)))
        }
    }
}

/// Builds the monolithic [`ReachCheckpoint`]: the reached set as a full
/// export, the frontier delta-encoded against it — the frontier is a
/// subset of the reached set, so the delta ships only the nodes the
/// frontier's cone adds over the reached cone.
fn monolithic_checkpoint(
    mgr: &BddManager,
    depth: usize,
    reached: NodeId,
    frontier: NodeId,
) -> ReachCheckpoint {
    let reached_export = transfer::export(mgr, reached);
    let frontier_delta = transfer::export_delta(mgr, frontier, &reached_export);
    ReachCheckpoint {
        depth,
        reached: vec![reached_export],
        frontier: vec![frontier_delta],
        window_vars: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::Aig;

    fn counter(bits: u32) -> (Aig, Vec<Lit>) {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        let lits = qs.iter().map(|(_, q)| *q).collect();
        (g, lits)
    }

    /// The quota-semantics acceptance check: a reachability run whose
    /// total allocations are an order of magnitude beyond the quota —
    /// which therefore exhausted the quota before garbage collection
    /// existed — now completes under that same quota, because the quota
    /// counts *live* nodes and GC reclaims dead image intermediates.
    #[test]
    fn gc_lets_check_complete_under_tight_quota() {
        let (mut g, qs) = counter(10);
        let bad = g.and_many(qs.iter().copied());
        g.add_bad("all_ones", bad);
        let quota = 400;
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, quota, 1 << 20, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1023)
        );
        assert!(stats.bdd_nodes <= quota, "peak live stays within the quota");
        assert!(
            stats.bdd_allocated > 10 * quota as u64,
            "allocations far beyond the quota prove GC carried the run: {}",
            stats.bdd_allocated
        );
    }

    /// Regression: quota-exhausted builds used to report 0 peak nodes.
    #[test]
    fn quota_exhausted_build_records_stats() {
        let (mut g, qs) = counter(16);
        let bad = g.and_many(qs.iter().copied());
        g.add_bad("all_ones", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 300, 1 << 20, &mut stats),
            BddEngineOutcome::ResourceOut
        );
        assert!(stats.bdd_nodes > 0, "failure path must record peak live nodes");
        assert!(stats.bdd_allocated > 0);
        assert_eq!(stats.bdd_quota_hits, 1);
    }

    #[test]
    fn reachability_depth_matches_count() {
        let (mut g, qs) = counter(3);
        // bad: counter == 5 (101)
        let t = g.and(qs[0], !qs[1]);
        let bad = g.and(t, qs[2]);
        g.add_bad("five", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(5)
        );
    }

    #[test]
    fn full_space_fixpoint_proves() {
        let (mut g, qs) = counter(3);
        // bad: impossible pattern — q0 & !q0 is constant false; use an
        // extra stuck latch instead.
        let (l, s) = g.latch("stuck", false);
        g.set_next(l, s);
        let bad = g.and(qs[0], s);
        g.add_bad("never", bad);
        let mut stats = CheckStats::default();
        assert_eq!(bdd_umc(&g, 1 << 20, 100, &mut stats), BddEngineOutcome::Proved);
        // An 3-bit counter explores 8 states: fixpoint in <= 9 iterations.
        assert!(stats.iterations <= 9);
    }

    #[test]
    fn constraint_restricts_reachability() {
        // Latch loads input; constraint pins input low; bad = latch high.
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        g.set_next(id, a);
        g.add_constraint("a_low", !a);
        g.add_bad("q_high", q);
        let mut stats = CheckStats::default();
        assert_eq!(bdd_umc(&g, 1 << 20, 100, &mut stats), BddEngineOutcome::Proved);
    }

    #[test]
    fn quota_exhaustion_reports_resource_out() {
        let (mut g, qs) = counter(16);
        let bad = g.and_many(qs.iter().copied());
        g.add_bad("all_ones", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 300, 1 << 20, &mut stats),
            BddEngineOutcome::ResourceOut
        );
    }

    #[test]
    fn input_in_bad_is_quantified() {
        // bad = input & latch; latch counts 0,1,0,1...; falsified at depth
        // 1 when the latch first goes high.
        let mut g = Aig::new();
        let a = g.input("a");
        let (id, q) = g.latch("q", false);
        g.set_next(id, !q);
        let bad = g.and(a, q);
        g.add_bad("a_and_q", bad);
        let mut stats = CheckStats::default();
        assert_eq!(
            bdd_umc(&g, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1)
        );
    }
}
