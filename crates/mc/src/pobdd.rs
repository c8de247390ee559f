//! Partitioned-OBDD reachability — the paper's in-house engine
//! \[Jain, IWLS 2004\]: the state space is split by window functions
//! (cubes over chosen state variables) and reachability fixpoints run per
//! partition with cross-partition frontier exchange. Each partition's
//! reached-set BDD stays smaller than the monolithic one, postponing node
//! blow-up. All windows live in one manager and run in the calling
//! thread: parallelism belongs across properties (campaign threads and
//! worker processes), not inside one check.

use crate::bdd_engine::{BddEngineOutcome, TransitionSystem};
use crate::checkpoint::ReachCheckpoint;
use crate::engine::Budget;
use crate::CheckStats;
use veridic_aig::Aig;
use veridic_bdd::transfer::{self, ExportedBdd};
use veridic_bdd::{NodeId, OutOfNodes};

/// Partitioned forward reachability with `window_vars` splitting
/// variables (up to 2^k windows).
///
/// Splitting variables are the current-state variables with the highest
/// occurrence count across transition-relation clusters — a cheap proxy
/// for "most entangled", which is where partitioning pays off.
/// Variables that occur in *no* cluster are never selected: a
/// zero-occurrence split variable would double the window count with
/// zero reached-set-size benefit, so the effective window count is
/// clamped to 2^(entangled variables) even when `window_vars` asks for
/// more.
///
/// Rounds are globally synchronous: depth `d` ends only when every
/// window's depth-`d` image has been distributed and absorbed, so the
/// falsification depth and [`CheckStats::iterations`] agree with the
/// monolithic engine's.
pub fn pobdd_reach(
    aig: &Aig,
    window_vars: u32,
    node_quota: usize,
    max_iterations: usize,
    stats: &mut CheckStats,
) -> BddEngineOutcome {
    pobdd_reach_session(
        aig,
        window_vars,
        node_quota,
        max_iterations,
        false,
        stats,
        &mut Budget::unlimited(),
        None,
    )
}

/// [`pobdd_reach`] under a cooperative round [`Budget`], optionally
/// resumed from a [`ReachCheckpoint`] of an earlier suspended run on
/// the same AIG.
///
/// One budget round is consumed per global reachability round. When the
/// budget trips between rounds, every window's reached and frontier set
/// is exported through [`veridic_bdd::transfer`] and the run suspends.
/// Resume re-derives the identical window split from the AIG, imports
/// the per-window sets, and continues at the next round with the same
/// verdict, depth and completed-round count.
///
/// `static_order` seeds the session's manager with the FORCE static
/// variable order (see [`veridic_aig::structure::force_order`]) before
/// its transition system is built. It moves only node counts and
/// wall-clock, never verdicts, depths or iteration counts.
#[allow(clippy::too_many_arguments)]
pub fn pobdd_reach_session(
    aig: &Aig,
    window_vars: u32,
    node_quota: usize,
    max_iterations: usize,
    static_order: bool,
    stats: &mut CheckStats,
    budget: &mut Budget,
    resume: Option<&ReachCheckpoint>,
) -> BddEngineOutcome {
    if let Some(ck) = resume {
        assert_eq!(
            ck.window_vars, window_vars,
            "POBDD resumed with a checkpoint from a different window split"
        );
    }
    let seeded = if static_order {
        let so = crate::bdd_engine::static_bdd_order(aig);
        stats.static_order_span_before = so.span_before;
        stats.static_order_span_after = so.span_after;
        Some(so.order)
    } else {
        None
    };
    let mut ts = match TransitionSystem::build_with_order(aig, node_quota, seeded.as_deref()) {
        Ok(ts) => ts,
        Err(e) => {
            // Quota-exhausted builds used to report 0 nodes in the
            // Table 2/3 stats; record the manager's accounting and the
            // quota hit on this exit path too.
            stats.bdd_nodes = stats.bdd_nodes.max(e.peak_live_nodes);
            stats.bdd_allocated += e.total_allocated;
            stats.bdd_quota_hits += 1;
            return BddEngineOutcome::ResourceOut;
        }
    };
    let outcome = run(&mut ts, window_vars, max_iterations, stats, budget, resume);
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

    // Per-partition reached sets and frontiers.
    let mut reached = vec![NodeId::FALSE; nparts];
    let mut frontier = vec![NodeId::FALSE; nparts];
    let start_depth = match resume {
        Some(ck) => {
            assert_eq!(
                ck.reached.len(),
                nparts,
                "checkpoint window count must match the re-derived split"
            );
            for w in 0..nparts {
                // Each import arrives rooted: exactly the registration
                // the reached/frontier slot owns.
                reached[w] = transfer::import(&ck.reached[w], &mut ts.mgr)?;
                frontier[w] =
                    transfer::import_delta(&ck.frontier[w], &ck.reached[w], &mut ts.mgr)?;
            }
            ck.depth
        }
        None => {
            for w in 0..nparts {
                let part = ts.mgr.and(ts.init, windows[w])?;
                ts.mgr.protect(part); // reached slot
                ts.mgr.protect(part); // frontier slot
                reached[w] = part;
                frontier[w] = part;
                if part != NodeId::FALSE && ts.intersects_bad(part) {
                    return Ok(BddEngineOutcome::FalsifiedAtDepth(0));
                }
            }
            0
        }
    };

    // Synchronous rounds: depth is global, so falsification depths agree
    // with the monolithic engine. `stats.iterations` counts *completed*
    // rounds (a round that concludes the check counts as completed, a
    // round aborted by the quota does not) — the same convention as
    // `bdd_umc`, so Tables 2/3 agree between engines on every exit path.
    for depth in start_depth + 1..=max_iterations {
        if !budget.tick() {
            if !budget.checkpoint_worthwhile() {
                return Ok(BddEngineOutcome::Yielded);
            }
            let reached_exports: Vec<ExportedBdd> =
                reached.iter().map(|&n| transfer::export(&ts.mgr, n)).collect();
            let frontier_deltas = frontier
                .iter()
                .zip(&reached_exports)
                .map(|(&f, base)| transfer::export_delta(&ts.mgr, f, base))
                .collect();
            return Ok(BddEngineOutcome::Suspended(ReachCheckpoint {
                depth: depth - 1,
                reached: reached_exports,
                frontier: frontier_deltas,
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
            ts.mgr.protect(img); // held across the whole window loop
            // Distribute the image across windows.
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

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_aig::{Aig, Lit};
    use crate::bdd_engine::bdd_umc;

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
            let mono = bdd_umc(&g, 1 << 20, 1000, &mut s1);
            let part = pobdd_reach(&g, 2, 1 << 20, 1000, &mut s2);
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
        assert_eq!(pobdd_reach(&g2, 2, 1 << 20, 1000, &mut stats), BddEngineOutcome::Proved);
    }

    /// Regression: `pobdd_reach` returned early on a quota-exhausted
    /// `TransitionSystem::build` without recording peak `bdd_nodes`, so
    /// Table 2/3 stats showed 0 nodes for exactly the runs that hit the
    /// quota hardest.
    #[test]
    fn quota_exhausted_build_records_stats() {
        let g = counter_with_bad(16, (1 << 16) - 1);
        let mut stats = CheckStats::default();
        assert_eq!(pobdd_reach(&g, 2, 300, 1 << 20, &mut stats), BddEngineOutcome::ResourceOut);
        assert!(stats.bdd_nodes > 0, "failure path must record peak live nodes");
        assert!(stats.bdd_allocated > 0);
        assert_eq!(stats.bdd_quota_hits, 1);
    }

    #[test]
    fn window_count_exceeding_latches_is_clamped() {
        let g = counter_with_bad(2, 3);
        let mut stats = CheckStats::default();
        // 6 window vars requested, only 2 latches exist.
        assert_eq!(
            pobdd_reach(&g, 6, 1 << 20, 1000, &mut stats),
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
        let ts = TransitionSystem::build(&g, 1 << 16).unwrap();
        let split = choose_split_vars(&ts, 2);
        assert_eq!(split, vec![2], "only latch b's current var is entangled");
        // And the engine still concludes correctly with the clamp.
        let mut stats = CheckStats::default();
        assert_eq!(
            pobdd_reach(&g, 2, 1 << 20, 100, &mut stats),
            BddEngineOutcome::FalsifiedAtDepth(1)
        );
    }

    /// Maximal-period 16-bit Fibonacci LFSR (taps 16,14,13,11), seeded
    /// with a single one bit. Its reached set after d rounds is d
    /// pseudo-random states whose BDD grows with d, so the **live**
    /// working set genuinely outgrows a tight quota mid-run — unlike a
    /// counter, whose reached set stays small and sails through under
    /// garbage collection.
    fn lfsr16() -> Aig {
        let mut g = Aig::new();
        let qs: Vec<_> = (0..16).map(|i| g.latch(format!("s{i}"), i == 0)).collect();
        let fb = [16usize, 14, 13, 11]
            .iter()
            .map(|t| qs[*t - 1].1)
            .reduce(|a, b| g.xor(a, b))
            .unwrap();
        for i in (1..16).rev() {
            g.set_next(qs[i].0, qs[i - 1].1);
        }
        g.set_next(qs[0].0, fb);
        // Bad: the all-zero state, unreachable from a nonzero seed.
        let nz: Vec<_> = qs.iter().map(|(_, q)| !*q).collect();
        let bad = g.and_many(nz);
        g.add_bad("zero", bad);
        g
    }

    /// Kill-at-round-k → resume equality for the POBDD engine: the
    /// resumed run must reach the identical outcome, falsification depth
    /// and completed-round count.
    #[test]
    fn suspended_pobdd_resumes_identically() {
        use crate::engine::Budget;
        let g = counter_with_bad(5, 19);
        let mut full = CheckStats::default();
        let uninterrupted = pobdd_reach(&g, 2, 1 << 20, 1000, &mut full);
        assert_eq!(uninterrupted, BddEngineOutcome::FalsifiedAtDepth(19));
        assert_eq!(full.iterations, 19);

        let mut s1 = CheckStats::default();
        let mut budget = Budget::rounds(7);
        let suspended =
            pobdd_reach_session(&g, 2, 1 << 20, 1000, false, &mut s1, &mut budget, None);
        let ck = match suspended {
            BddEngineOutcome::Suspended(ck) => ck,
            other => panic!("7 rounds must suspend, got {other:?}"),
        };
        assert_eq!(ck.depth, 7);
        assert_eq!(ck.reached.len(), 4, "2 window vars -> 4 windows");
        let mut s2 = CheckStats::default();
        let resumed = pobdd_reach_session(
            &g,
            2,
            1 << 20,
            1000,
            false,
            &mut s2,
            &mut Budget::unlimited(),
            Some(&ck),
        );
        assert_eq!(resumed, uninterrupted);
        assert_eq!(s2.iterations, full.iterations, "completed-round count must survive the kill");
    }

    /// Regression for the cross-engine iteration-count off-by-one:
    /// `bdd_umc` used to set `stats.iterations` only after a round's
    /// image succeeded while `pobdd_reach` set it at the round's
    /// *start*, so a quota failure during the image at depth d reported
    /// d-1 from one engine and d from the other in Tables 2/3. With
    /// zero split variables the partitioned engine degenerates to the
    /// monolithic algorithm (one TRUE window, identical op sequence),
    /// so both engines fail at the same point and must report the same
    /// completed-round count.
    #[test]
    fn iteration_counts_agree_between_engines_on_quota_failure() {
        let g = lfsr16();
        for quota in [1500usize, 2000] {
            let mut s1 = CheckStats::default();
            let mut s2 = CheckStats::default();
            let mono = bdd_umc(&g, quota, 1 << 20, &mut s1);
            let part = pobdd_reach(&g, 0, quota, 1 << 20, &mut s2);
            assert_eq!(mono, BddEngineOutcome::ResourceOut, "quota={quota}");
            assert_eq!(part, BddEngineOutcome::ResourceOut, "quota={quota}");
            assert!(s1.iterations > 0, "failure must be mid-run, not at build");
            assert_eq!(
                s1.iterations, s2.iterations,
                "engines must count completed rounds identically at quota={quota}"
            );
        }
    }
}
