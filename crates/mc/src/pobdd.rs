//! The BDD reachability fixpoint of both BDD engines: partitioned-OBDD
//! reachability, the paper's in-house engine \[Jain, IWLS 2004\]. The
//! state space is split by window functions (cubes over chosen state
//! variables) and reachability fixpoints run per partition with
//! cross-partition frontier exchange. Each partition's reached-set BDD
//! stays smaller than the monolithic one, postponing node blow-up.
//! BDD-UMC, monolithic forward reachability, is this fixpoint with zero
//! split variables: one TRUE window. All windows live in one manager and
//! run in the calling thread: parallelism belongs across properties
//! (campaign threads and worker processes), not inside one check.

use crate::bdd_engine::{static_bdd_order, BddEngineOutcome, TransitionSystem};
use crate::checkpoint::ReachCheckpoint;
use crate::engine::Budget;
use crate::{CheckOptions, CheckStats};
use veridic_aig::Aig;
use veridic_bdd::transfer;
use veridic_bdd::{NodeId, OutOfNodes};

/// Forward reachability of `aig`'s bad on `window_vars` splitting
/// variables (up to 2^k windows; 0 is BDD-UMC's one TRUE window) under a
/// cooperative round [`Budget`], optionally resumed from a
/// [`ReachCheckpoint`] of an earlier suspended run on the same AIG. The
/// node quota, round limit and static order come from `opts`
/// ([`CheckOptions::bdd_nodes`], [`CheckOptions::max_iterations`],
/// [`CheckOptions::static_order`]); its window count is not read.
///
/// Splitting variables are the current-state variables that occur in
/// the most transition-relation clusters, a cheap proxy for "most
/// entangled"; a variable in no cluster is never selected, so the
/// window count is clamped to 2^(entangled variables). Rounds are
/// globally synchronous, so the falsification depth and
/// [`CheckStats::iterations`] (completed rounds: a concluding round
/// counts, a quota-aborted one does not) do not depend on the split.
/// Peak live nodes, allocations and quota hits are recorded on every
/// exit path, a quota-exhausted build included.
///
/// One budget round is consumed per global round. When the budget trips
/// between rounds, every window's reached and frontier set is exported
/// through [`veridic_bdd::transfer`] as the roots of one export and the
/// run suspends; resume re-derives the same split, imports the sets into
/// a fresh manager and continues with the same verdict, depth and
/// completed-round count (allocations and peaks differ: the fresh
/// manager never built the first session's dead intermediates). A
/// checkpoint taken on another split, or with a node outside the
/// system's variable space, gives [`BddEngineOutcome::Misfit`].
/// [`CheckOptions::static_order`] seeds the manager with the FORCE
/// order ([`veridic_aig::structure::force_order`]); it moves node counts
/// and wall-clock only, and with it off no extra call is made.
pub fn reach_session(
    aig: &Aig,
    window_vars: u32,
    opts: &CheckOptions,
    stats: &mut CheckStats,
    budget: &mut Budget,
    resume: Option<&ReachCheckpoint>,
) -> BddEngineOutcome {
    let seeded = if opts.static_order {
        let so = static_bdd_order(aig);
        stats.static_order_span_before = so.span_before;
        stats.static_order_span_after = so.span_after;
        Some(so.order)
    } else {
        None
    };
    let mut ts = match TransitionSystem::build(aig, opts.bdd_nodes, seeded.as_deref()) {
        Ok(ts) => ts,
        Err(e) => {
            stats.bdd_nodes = stats.bdd_nodes.max(e.peak_live_nodes);
            stats.bdd_allocated += e.total_allocated;
            stats.bdd_quota_hits += 1;
            return BddEngineOutcome::ResourceOut;
        }
    };
    let outcome = run(
        &mut ts,
        window_vars,
        opts.max_iterations,
        stats,
        budget,
        resume,
    );
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

/// The windowed fixpoint on a built transition system; `Err` is a
/// quota failure.
fn run(
    ts: &mut TransitionSystem,
    window_vars: u32,
    max_iterations: usize,
    stats: &mut CheckStats,
    budget: &mut Budget,
    resume: Option<&ReachCheckpoint>,
) -> Result<BddEngineOutcome, OutOfNodes> {
    let split = choose_split_vars(ts, window_vars);
    let windows = build_windows(ts, &split)?;
    let nparts = windows.len();

    // Per-partition reached sets and frontiers. Each slot owns one root
    // registration of its set.
    let (mut reached, mut frontier, start_depth) = match resume {
        Some(ck) => {
            let vars = 2 * ts.num_latches() + ts.num_inputs();
            if let Err(misfit) = ck.check_fit(window_vars, nparts, vars) {
                return Ok(BddEngineOutcome::Misfit(misfit));
            }
            // Each imported root arrives with the one registration its
            // slot owns.
            let sets = transfer::import(&ck.sets, &mut ts.mgr)?;
            let reached = sets.iter().step_by(2).copied().collect();
            let frontier = sets.iter().skip(1).step_by(2).copied().collect();
            (reached, frontier, ck.depth)
        }
        None => {
            let (mut reached, mut frontier) = (Vec::new(), Vec::new());
            for window in &windows {
                let part = ts.mgr.and(ts.init, *window)?;
                ts.mgr.protect(part); // reached slot
                ts.mgr.protect(part); // frontier slot
                reached.push(part);
                frontier.push(part);
                if part != NodeId::FALSE && ts.intersects_bad(part) {
                    return Ok(BddEngineOutcome::FalsifiedAtDepth(0));
                }
            }
            (reached, frontier, 0)
        }
    };

    for depth in start_depth + 1..=max_iterations {
        if !budget.tick() {
            let roots: Vec<NodeId> = reached
                .iter()
                .zip(&frontier)
                .flat_map(|(&r, &f)| [r, f])
                .collect();
            return Ok(BddEngineOutcome::Suspended(ReachCheckpoint {
                depth: depth - 1,
                sets: transfer::export(&ts.mgr, &roots),
                window_vars,
            }));
        }
        let mut new_frontier = vec![NodeId::FALSE; nparts];
        let mut any_new = false;
        for &fr in &frontier {
            if fr == NodeId::FALSE {
                continue;
            }
            let img = ts.image(fr)?;
            // Held across the window loop, which distributes the image
            // across the windows.
            ts.mgr.protect(img);
            for (l, window) in windows.iter().enumerate() {
                let part = ts.mgr.and(img, *window)?;
                if part == NodeId::FALSE {
                    continue;
                }
                let fresh = ts.mgr.and_not(part, reached[l])?;
                if fresh == NodeId::FALSE {
                    continue;
                }
                if ts.intersects_bad(fresh) {
                    stats.iterations = depth; // the concluding round counts
                    return Ok(BddEngineOutcome::FalsifiedAtDepth(depth));
                }
                let r = ts.mgr.or(reached[l], fresh)?;
                ts.mgr.reroot(reached[l], r);
                reached[l] = r;
                let nf = ts.mgr.or(new_frontier[l], fresh)?;
                ts.mgr.reroot(new_frontier[l], nf);
                new_frontier[l] = nf;
                any_new = true;
            }
            ts.mgr.unprotect(img);
        }
        stats.iterations = depth; // round completed
        if !any_new {
            return Ok(BddEngineOutcome::Proved);
        }
        for &fr in &frontier {
            ts.mgr.unprotect(fr);
        }
        frontier = new_frontier;
    }
    Ok(BddEngineOutcome::ResourceOut)
}

/// Builds one window cube per assignment of the split variables. The
/// cubes are protected in the manager (they are held for the whole
/// run); the caller owns those registrations.
fn build_windows(ts: &mut TransitionSystem, split: &[u32]) -> Result<Vec<NodeId>, OutOfNodes> {
    let nparts = 1usize << split.len();
    let mut windows = Vec::with_capacity(nparts);
    for w in 0..nparts {
        let mut cube = NodeId::TRUE;
        for (bit, var) in split.iter().enumerate() {
            let lit = if w >> bit & 1 == 1 {
                ts.mgr.var(*var)?
            } else {
                ts.mgr.nvar(*var)?
            };
            let c = ts.mgr.and(cube, lit)?;
            // The reroot chain leaves exactly one registration on the
            // finished cube (and none on the TRUE cube of an empty
            // split, which as a terminal needs none).
            ts.mgr.reroot(cube, c);
            cube = c;
        }
        windows.push(cube);
    }
    Ok(windows)
}

/// Picks the current-state variables that occur in the most clusters.
///
/// Zero-occurrence variables are dropped even when that yields fewer
/// than `want` split variables: a variable no cluster mentions cannot
/// shrink any partition's reached set, and each padded variable would
/// double the window count for nothing (regression-tested in
/// `zero_occurrence_vars_are_not_split_on`).
fn choose_split_vars(ts: &TransitionSystem, want: u32) -> Vec<u32> {
    if want == 0 {
        return Vec::new();
    }
    let n = ts.num_latches() as u32;
    let mut counts: Vec<(u32, usize)> = (0..n).map(|i| (2 * i, 0)).collect();
    for c in &ts.clusters {
        for v in ts.mgr.support(*c) {
            if v % 2 == 0 && v < 2 * n {
                counts[(v / 2) as usize].1 += 1;
            }
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
        .into_iter()
        .filter(|(_, count)| *count > 0)
        .take(want.min(n) as usize)
        .map(|(v, _)| v)
        .collect()
}

/// The fixpoint on `window_vars` split variables under `node_quota`
/// and `max_iterations`, unbudgeted and fresh.
#[cfg(test)]
pub(crate) fn reach(
    g: &Aig,
    window_vars: u32,
    node_quota: usize,
    max_iterations: usize,
    stats: &mut CheckStats,
) -> BddEngineOutcome {
    let opts = CheckOptions::builder()
        .bdd_nodes(node_quota)
        .max_iterations(max_iterations)
        .build();
    reach_session(g, window_vars, &opts, stats, &mut Budget::unlimited(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::{Aig, Lit};

    fn counter_with_bad(bits: u32, bad_at: u64) -> Aig {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..bits).map(|i| g.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g.xor(*q, carry);
            carry = g.and(*q, carry);
            g.set_next(*id, next);
        }
        let hit: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, (_, q))| if bad_at >> i & 1 == 1 { *q } else { !*q })
            .collect();
        let bad = g.and_many(hit);
        g.add_bad("hit", bad);
        g
    }

    #[test]
    fn pobdd_agrees_with_monolithic_on_depth() {
        for bad_at in [1u64, 6, 11] {
            let g = counter_with_bad(4, bad_at);
            let mut s1 = CheckStats::default();
            let mut s2 = CheckStats::default();
            let mono = reach(&g, 0, 1 << 20, 1000, &mut s1);
            let part = reach(&g, 2, 1 << 20, 1000, &mut s2);
            assert_eq!(mono, part, "bad_at={bad_at}");
            assert_eq!(s1.iterations, s2.iterations, "bad_at={bad_at}");
        }
    }

    #[test]
    fn pobdd_proves_unreachable() {
        let mut g2 = Aig::new();
        // Counter + stuck latch bad.
        let qs: Vec<_> = (0..4).map(|i| g2.latch(format!("c{i}"), false)).collect();
        let mut carry = Lit::TRUE;
        for (id, q) in &qs {
            let next = g2.xor(*q, carry);
            carry = g2.and(*q, carry);
            g2.set_next(*id, next);
        }
        let (l2, s2) = g2.latch("stuck", false);
        g2.set_next(l2, s2);
        g2.add_bad("never", s2);
        let mut stats = CheckStats::default();
        assert_eq!(
            reach(&g2, 2, 1 << 20, 1000, &mut stats),
            BddEngineOutcome::Proved
        );
    }

    /// Regression: the partitioned engine returned early on a
    /// quota-exhausted `TransitionSystem::build` without recording peak
    /// `bdd_nodes`, so
    /// Table 2/3 stats showed 0 nodes for exactly the runs that hit the
    /// quota hardest.
    #[test]
    fn quota_exhausted_build_records_stats() {
        let g = counter_with_bad(16, (1 << 16) - 1);
        let mut stats = CheckStats::default();
        assert_eq!(
            reach(&g, 2, 300, 1 << 20, &mut stats),
            BddEngineOutcome::ResourceOut
        );
        assert!(
            stats.bdd_nodes > 0,
            "failure path must record peak live nodes"
        );
        assert!(stats.bdd_allocated > 0);
        assert_eq!(stats.bdd_quota_hits, 1);
    }

    #[test]
    fn window_count_exceeding_latches_is_clamped() {
        let g = counter_with_bad(2, 3);
        let mut stats = CheckStats::default();
        // 6 window vars requested, only 2 latches exist.
        assert_eq!(
            reach(&g, 6, 1 << 20, 1000, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(3)
        );
    }

    /// Regression: `choose_split_vars` used to pad the split with
    /// variables that occur in zero clusters whenever `window_vars`
    /// exceeded the number of entangled variables — each useless split
    /// variable doubled the window count with zero reached-set-size
    /// benefit.
    #[test]
    fn zero_occurrence_vars_are_not_split_on() {
        // Latch a loads an input (its current var occurs in no cluster);
        // latch b toggles against another input. Only b's current var is
        // entangled, so a 2-var split request must clamp to 1 variable
        // (2 windows, not 4).
        let mut g = Aig::new();
        let i1 = g.input("i1");
        let i2 = g.input("i2");
        let (la, _qa) = g.latch("a", false);
        g.set_next(la, i1);
        let (lb, qb) = g.latch("b", false);
        let nb = g.xor(qb, i2);
        g.set_next(lb, nb);
        g.add_bad("b_high", qb);
        let ts = TransitionSystem::build(&g, 1 << 16, None).unwrap();
        let split = choose_split_vars(&ts, 2);
        assert_eq!(split, vec![2], "only latch b's current var is entangled");
        // And the engine still concludes correctly with the clamp.
        let mut stats = CheckStats::default();
        assert_eq!(
            reach(&g, 2, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1)
        );
    }

    /// Kill-at-round-k → resume equality for the POBDD engine: the
    /// resumed run must reach the identical outcome, falsification depth
    /// and completed-round count.
    #[test]
    fn suspended_pobdd_resumes_identically() {
        let g = counter_with_bad(5, 19);
        let mut full = CheckStats::default();
        let uninterrupted = reach(&g, 2, 1 << 20, 1000, &mut full);
        assert_eq!(uninterrupted, BddEngineOutcome::FalsifiedAtDepth(19));
        assert_eq!(full.iterations, 19);

        let opts = CheckOptions::builder()
            .bdd_nodes(1 << 20)
            .max_iterations(1000)
            .build();
        let mut s1 = CheckStats::default();
        let mut budget = Budget::rounds(7);
        let suspended = reach_session(&g, 2, &opts, &mut s1, &mut budget, None);
        let ck = match suspended {
            BddEngineOutcome::Suspended(ck) => ck,
            other => panic!("7 rounds must suspend, got {other:?}"),
        };
        assert_eq!(ck.depth, 7);
        assert_eq!(
            ck.sets.raw_roots().len(),
            8,
            "2 window vars -> 4 windows, a reached and a frontier root each"
        );
        let mut s2 = CheckStats::default();
        let resumed = reach_session(&g, 2, &opts, &mut s2, &mut Budget::unlimited(), Some(&ck));
        assert_eq!(resumed, uninterrupted);
        assert_eq!(
            s2.iterations, full.iterations,
            "completed-round count must survive the kill"
        );
    }
}
