//! Structural static analysis: the latch dependency graph, its SCC
//! condensation, and FORCE-style static variable orders.
//!
//! Everything structural the engines need — cone supports, order
//! quality — is derived here once per property cone, before any BDD
//! node exists. The paper's partitioning argument is structural ("split
//! where the design splits"), and variable-order quality must be
//! decided *before* the image blows up.
//!
//! * [`LatchGraph`] — latch → latches-in-next-state-support dependency
//!   edges, with primary-input support tracked separately.
//! * [`Condensation`] — Tarjan SCC condensation of the latch graph with
//!   topological ranks and weakly-connected components. Feeds the
//!   rank-unreachable lint.
//! * [`force_order`] — an iterative center-of-gravity span minimization
//!   (FORCE, Aloul et al.) over the AND/next-state hyperedges, returning
//!   a static latch/input slot order. `veridic-mc` translates it into a
//!   BDD variable order and seeds both BDD engines' managers with it
//!   before the first image (`CheckOptions::static_order`).
//!
//! Determinism contract: every function here is a pure function of the
//! AIG's construction order. No hashing iteration, no randomness, no
//! wall clock — the same AIG always produces the same graph and order.

use crate::{Aig, LatchId, Node, Var};

/// A slot in the structural vertex space: latches first (by
/// [`LatchId`]), then primary inputs (by input index). This is the
/// vertex id used by [`force_order`].
pub type Slot = u32;

/// The latch dependency graph of an AIG.
///
/// There is an edge `i → j` when latch `j` appears in the structural
/// support of latch `i`'s next-state function — "i depends on j".
/// Primary-input support is tracked per latch but kept out of the
/// latch-to-latch edge set.
#[derive(Clone, Debug)]
pub struct LatchGraph {
    /// `deps[i]`: latches in the next-state support of latch `i`,
    /// sorted ascending, deduplicated.
    deps: Vec<Vec<u32>>,
    /// `input_deps[i]`: input indices in the next-state support of
    /// latch `i`, sorted ascending.
    input_deps: Vec<Vec<u32>>,
}

impl LatchGraph {
    /// Builds the dependency graph from the latch next-state supports.
    pub fn build(aig: &Aig) -> LatchGraph {
        let n = aig.num_latches();
        let mut deps = Vec::with_capacity(n);
        let mut input_deps = Vec::with_capacity(n);
        for latch in aig.latches() {
            let (ins, ls) = aig.support(latch.next);
            deps.push(ls.iter().map(|l| l.0).collect::<Vec<u32>>());
            input_deps.push(
                ins.iter()
                    .filter_map(|v| aig.input_index(*v).map(|i| i as u32))
                    .collect::<Vec<u32>>(),
            );
        }
        LatchGraph { deps, input_deps }
    }

    /// Number of latches (vertices).
    pub fn num_latches(&self) -> usize {
        self.deps.len()
    }

    /// Latches in the next-state support of latch `i`.
    pub fn deps(&self, i: LatchId) -> &[u32] {
        &self.deps[i.0 as usize]
    }

    /// Input indices in the next-state support of latch `i`.
    pub fn input_deps(&self, i: LatchId) -> &[u32] {
        &self.input_deps[i.0 as usize]
    }

    /// Tarjan SCC condensation with topological ranks and weak
    /// components.
    pub fn condense(&self) -> Condensation {
        let n = self.deps.len();
        let sccs = tarjan_sccs(n, |v| &self.deps[v]);
        let mut scc_of = vec![0u32; n];
        for (ci, members) in sccs.iter().enumerate() {
            for &m in members {
                scc_of[m as usize] = ci as u32;
            }
        }
        // Condensed DAG edges: scc of i → scc of each dep, self-loops
        // dropped, sorted and deduplicated.
        let mut scc_deps: Vec<Vec<u32>> = vec![Vec::new(); sccs.len()];
        for (i, ds) in self.deps.iter().enumerate() {
            let from = scc_of[i] as usize;
            for &d in ds {
                let to = scc_of[d as usize];
                if to != from as u32 {
                    scc_deps[from].push(to);
                }
            }
        }
        for e in &mut scc_deps {
            e.sort_unstable();
            e.dedup();
        }
        // Topological rank: longest dependency chain below each SCC.
        // Tarjan emits SCCs in reverse topological order of the
        // condensation (dependencies first), so one pass suffices.
        let mut ranks = vec![0u32; sccs.len()];
        for ci in 0..sccs.len() {
            let r = scc_deps[ci]
                .iter()
                .map(|&d| ranks[d as usize] + 1)
                .max()
                .unwrap_or(0);
            ranks[ci] = r;
        }
        // Weak components over the undirected latch graph (union-find).
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for (i, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                let a = find(&mut parent, i as u32);
                let b = find(&mut parent, d);
                if a != b {
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }
        let mut component_of = vec![0u32; n];
        let mut remap: Vec<u32> = Vec::new();
        for (i, slot) in component_of.iter_mut().enumerate() {
            let root = find(&mut parent, i as u32);
            let id = match remap.iter().position(|&r| r == root) {
                Some(p) => p as u32,
                None => {
                    remap.push(root);
                    (remap.len() - 1) as u32
                }
            };
            *slot = id;
        }
        // Input taint: a latch is input-driven when an input appears in
        // its own next support or in a (transitive) dependency's. The
        // closure runs on the condensation in topological order.
        let mut scc_tainted = vec![false; sccs.len()];
        for ci in 0..sccs.len() {
            let direct = sccs[ci]
                .iter()
                .any(|&m| !self.input_deps[m as usize].is_empty());
            let inherited = scc_deps[ci].iter().any(|&d| scc_tainted[d as usize]);
            scc_tainted[ci] = direct || inherited;
        }
        Condensation {
            scc_of,
            sccs,
            scc_deps,
            ranks,
            component_of,
            scc_tainted,
        }
    }
}

/// The SCC condensation of a [`LatchGraph`].
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Latch → SCC index.
    pub scc_of: Vec<u32>,
    /// SCC index → member latches, sorted ascending. SCCs are emitted
    /// in reverse topological order (dependencies before dependents).
    pub sccs: Vec<Vec<u32>>,
    /// Condensed DAG: SCC → the SCCs it depends on (sorted, deduped,
    /// no self loops).
    pub scc_deps: Vec<Vec<u32>>,
    /// Topological rank of each SCC: the longest dependency chain below
    /// it (0 for SCCs depending on nothing outside themselves).
    pub ranks: Vec<u32>,
    /// Latch → weakly-connected component id (ids are dense, assigned
    /// in latch order).
    pub component_of: Vec<u32>,
    /// SCC → true when some latch in it (or in a transitive
    /// dependency) reads a primary input.
    pub scc_tainted: Vec<bool>,
}

impl Condensation {
    /// Latches whose SCC is unreachable from any input-driven logic:
    /// autonomous state no input sequence can influence. Returned in
    /// latch order.
    pub fn input_unreachable_latches(&self) -> Vec<LatchId> {
        let mut out = Vec::new();
        for (i, &scc) in self.scc_of.iter().enumerate() {
            if !self.scc_tainted[scc as usize] {
                out.push(LatchId(i as u32));
            }
        }
        out
    }

    /// Number of weakly-connected components.
    pub fn num_components(&self) -> usize {
        self.component_of.iter().map(|&c| c + 1).max().unwrap_or(0) as usize
    }
}

/// Iterative Tarjan SCC decomposition over vertices `0..n` with
/// `succ(v)` successor edges. SCCs are emitted in reverse topological
/// order of the condensation (dependencies before dependents), each
/// with its members sorted ascending. Shared by the latch-graph
/// condensation here and the netlist boundary's combinational-loop
/// lint (`veridic_netlist::Module::comb_loops`).
pub fn tarjan_sccs<'a, F: Fn(usize) -> &'a [u32]>(n: usize, succ: F) -> Vec<Vec<u32>> {
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    let mut next_index = 0u32;
    // Explicit DFS frames: (vertex, next successor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let vi = v as usize;
            if *pos == 0 {
                index[vi] = next_index;
                low[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            let edges = succ(vi);
            if *pos < edges.len() {
                let w = edges[*pos];
                *pos += 1;
                let wi = w as usize;
                if index[wi] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds the SCC"); // lint: allow
                        on_stack[w as usize] = false;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members.sort_unstable();
                    sccs.push(members);
                }
            }
        }
    }
    sccs
}

/// A FORCE static order over the latch/input slot space.
#[derive(Clone, Debug)]
pub struct ForceOrder {
    /// The slot permutation, best span first: `slots[k]` is the slot
    /// placed at position `k`. Latch `i` is slot `i`; input `j` is slot
    /// `num_latches + j`.
    pub slots: Vec<Slot>,
    /// Total hyperedge span of the natural (construction) order.
    pub span_before: u64,
    /// Total hyperedge span of the returned order.
    pub span_after: u64,
    /// Center-of-gravity iterations performed.
    pub iterations: usize,
}

/// Supports larger than this are dropped from the hyperedge set: span
/// minimization of a near-global edge carries no placement signal and
/// its cost dominates the sweep.
const FORCE_SUPPORT_CAP: usize = 8;

/// Computes a FORCE-style static slot order for `aig`.
///
/// Vertices are the latch and input slots (see [`Slot`]); hyperedges
/// are the capped structural supports of every AND node in the design
/// plus, per latch, its next-state support joined with the latch
/// itself (the transition-relation locality the relational product
/// cares about). Starting from the natural order, each iteration moves
/// every vertex to the average center of gravity of its incident edges
/// and re-sorts; the best total span seen wins. Bounded, deterministic,
/// and always a permutation — [`force_order`] never fails.
pub fn force_order(aig: &Aig) -> ForceOrder {
    let n_latches = aig.num_latches();
    let n_inputs = aig.num_inputs();
    let n_slots = n_latches + n_inputs;
    let slot_of = |aig: &Aig, v: Var| -> Option<Slot> {
        if let Some(id) = aig.latch_id(v) {
            Some(id.0)
        } else {
            aig.input_index(v).map(|i| (n_latches + i) as u32)
        }
    };
    // Capped slot-support per node, bottom-up (creation order is
    // topological). `None` = over the cap.
    let mut supports: Vec<Option<Vec<Slot>>> = Vec::with_capacity(aig.num_nodes());
    let mut edges: Vec<Vec<Slot>> = Vec::new();
    for i in 0..aig.num_nodes() {
        let v = Var(i as u32);
        let sup = match aig.node_kind(v) {
            Node::Const0 => Some(Vec::new()),
            Node::Input { .. } | Node::Latch { .. } => slot_of(aig, v).map(|s| vec![s]),
            Node::And { a, b } => {
                let merged = match (&supports[a.var().0 as usize], &supports[b.var().0 as usize]) {
                    (Some(sa), Some(sb)) => {
                        let mut m: Vec<Slot> = sa.iter().chain(sb.iter()).copied().collect();
                        m.sort_unstable();
                        m.dedup();
                        if m.len() > FORCE_SUPPORT_CAP {
                            None
                        } else {
                            Some(m)
                        }
                    }
                    _ => None,
                };
                if let Some(m) = &merged {
                    if m.len() >= 2 {
                        edges.push(m.clone());
                    }
                }
                merged
            }
        };
        supports.push(sup);
    }
    // Per-latch transition edges: next support ∪ the latch itself.
    for (i, latch) in aig.latches().iter().enumerate() {
        if let Some(sup) = &supports[latch.next.var().0 as usize] {
            if sup.len() <= FORCE_SUPPORT_CAP {
                let mut e = sup.clone();
                e.push(i as u32);
                e.sort_unstable();
                e.dedup();
                if e.len() >= 2 {
                    edges.push(e);
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    let natural: Vec<Slot> = (0..n_slots as u32).collect();
    if n_slots == 0 || edges.is_empty() {
        return ForceOrder {
            slots: natural,
            span_before: 0,
            span_after: 0,
            iterations: 0,
        };
    }
    let span_of = |pos: &[u32]| -> u64 {
        edges
            .iter()
            .map(|e| {
                let lo = e.iter().map(|&s| pos[s as usize]).min().unwrap_or(0);
                let hi = e.iter().map(|&s| pos[s as usize]).max().unwrap_or(0);
                (hi - lo) as u64
            })
            .sum()
    };
    // pos[slot] = current position; order[k] = slot at position k.
    let mut pos: Vec<u32> = (0..n_slots as u32).collect();
    let mut order = natural.clone();
    let span_before = span_of(&pos);
    let mut best_span = span_before;
    let mut best_order = order.clone();
    // Incidence lists, built once.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); n_slots];
    for (ei, e) in edges.iter().enumerate() {
        for &s in e {
            incident[s as usize].push(ei as u32);
        }
    }
    let iterations = (2 * (usize::BITS - n_slots.leading_zeros()) as usize + 4).min(32);
    for _ in 0..iterations {
        // Center of gravity of each edge at the current positions.
        let cogs: Vec<f64> = edges
            .iter()
            .map(|e| e.iter().map(|&s| pos[s as usize] as f64).sum::<f64>() / e.len() as f64)
            .collect();
        // Each vertex moves to the mean of its incident edges' centers;
        // edge-free vertices keep their position.
        let mut keyed: Vec<(f64, Slot)> = (0..n_slots as u32)
            .map(|s| {
                let inc = &incident[s as usize];
                let key = if inc.is_empty() {
                    pos[s as usize] as f64
                } else {
                    inc.iter().map(|&ei| cogs[ei as usize]).sum::<f64>() / inc.len() as f64
                };
                (key, s)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order = keyed.iter().map(|&(_, s)| s).collect();
        for (k, &s) in order.iter().enumerate() {
            pos[s as usize] = k as u32;
        }
        let span = span_of(&pos);
        if span < best_span {
            best_span = span;
            best_order = order.clone();
        }
    }
    ForceOrder {
        slots: best_order,
        span_before,
        span_after: best_span,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lit;

    /// Three-stage pipeline a→b→c plus a 2-latch mutual loop {x, y}.
    fn pipeline_and_loop() -> Aig {
        let mut g = Aig::new();
        let i = g.input("i");
        let (a, qa) = g.latch("a", false);
        let (b, qb) = g.latch("b", false);
        let (c, _qc) = g.latch("c", false);
        g.set_next(a, i);
        g.set_next(b, qa);
        g.set_next(c, qb);
        let (x, qx) = g.latch("x", false);
        let (y, qy) = g.latch("y", true);
        g.set_next(x, qy);
        g.set_next(y, !qx);
        g
    }

    #[test]
    fn latch_graph_edges_follow_supports() {
        let g = pipeline_and_loop();
        let lg = LatchGraph::build(&g);
        assert_eq!(lg.num_latches(), 5);
        assert_eq!(lg.deps(LatchId(0)), &[] as &[u32]);
        assert_eq!(lg.input_deps(LatchId(0)), &[0]);
        assert_eq!(lg.deps(LatchId(1)), &[0]);
        assert_eq!(lg.deps(LatchId(2)), &[1]);
        assert_eq!(lg.deps(LatchId(3)), &[4]);
        assert_eq!(lg.deps(LatchId(4)), &[3]);
    }

    #[test]
    fn condensation_finds_sccs_ranks_and_components() {
        let g = pipeline_and_loop();
        let cond = LatchGraph::build(&g).condense();
        // Four SCCs: {a}, {b}, {c}, {x,y}.
        assert_eq!(cond.sccs.len(), 4);
        let xy = cond.scc_of[3];
        assert_eq!(cond.scc_of[4], xy, "the mutual loop is one SCC");
        assert_eq!(cond.sccs[xy as usize], vec![3, 4]);
        // Ranks along the pipeline: a=0, b=1, c=2; the loop is rank 0.
        let rank_of = |l: usize| cond.ranks[cond.scc_of[l] as usize];
        assert_eq!(rank_of(0), 0);
        assert_eq!(rank_of(1), 1);
        assert_eq!(rank_of(2), 2);
        assert_eq!(rank_of(3), 0);
        // Two weak components: the pipeline and the loop.
        assert_eq!(cond.num_components(), 2);
        assert_eq!(cond.component_of[0], cond.component_of[2]);
        assert_ne!(cond.component_of[0], cond.component_of[3]);
        // The pipeline is input-driven; the loop is autonomous.
        let unreachable = cond.input_unreachable_latches();
        assert_eq!(unreachable, vec![LatchId(3), LatchId(4)]);
    }

    #[test]
    fn tarjan_matches_brute_force_on_a_dense_graph() {
        // A hand-built graph with nested cycles: 0→1→2→0, 2→3, 3→4,
        // 4→3, 5 isolated.
        let edges: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![0, 3], vec![4], vec![3], vec![]];
        let sccs = tarjan_sccs(6, |v| &edges[v]);
        let mut sets: Vec<Vec<u32>> = sccs.clone();
        sets.sort();
        assert!(sets.contains(&vec![0, 1, 2]));
        assert!(sets.contains(&vec![3, 4]));
        assert!(sets.contains(&vec![5]));
        // Reverse-topological emission: {3,4} (a dependency of {0,1,2}
        // via 2→3? No: 2→3 means {0,1,2} depends on {3,4}) first.
        let pos = |s: &Vec<u32>| sccs.iter().position(|x| x == s).expect("scc present"); // lint: allow
        assert!(
            pos(&vec![3, 4]) < pos(&vec![0, 1, 2]),
            "dependencies emit first"
        );
    }

    #[test]
    fn force_order_is_a_permutation_and_never_worse() {
        let g = pipeline_and_loop();
        let fo = force_order(&g);
        let mut sorted = fo.slots.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..(g.num_latches() + g.num_inputs()) as u32).collect();
        assert_eq!(sorted, expect, "the order must be a slot permutation");
        assert!(fo.span_after <= fo.span_before);
    }

    #[test]
    fn force_order_interleaves_paired_registers() {
        // Two banks a[0..n], b[0..n] with bad-cone pairs (a_i, b_i):
        // the natural (blocked) order has span Θ(n) per pair edge; FORCE
        // must pull each pair together.
        let mut g = Aig::new();
        let n = 8u32;
        let ins: Vec<Lit> = (0..n).map(|i| g.input(format!("i{i}"))).collect();
        let avars: Vec<(LatchId, Lit)> = (0..n).map(|i| g.latch(format!("a{i}"), false)).collect();
        let bvars: Vec<(LatchId, Lit)> = (0..n).map(|i| g.latch(format!("b{i}"), false)).collect();
        for i in 0..n as usize {
            g.set_next(avars[i].0, ins[i]);
            g.set_next(bvars[i].0, ins[i]);
        }
        let diffs: Vec<Lit> = (0..n as usize)
            .map(|i| g.xor(avars[i].1, bvars[i].1))
            .collect();
        let bad = g.or_many(diffs);
        g.add_bad("mismatch", bad);
        let fo = force_order(&g);
        assert!(
            fo.span_after < fo.span_before / 2,
            "FORCE must at least halve the blocked-order span \
             ({} -> {})",
            fo.span_before,
            fo.span_after
        );
        // Every pair (a_i, b_i) ends up close: within a quarter of the
        // slot space, where naturally they start exactly n apart.
        let mut pos = vec![0usize; fo.slots.len()];
        for (k, &s) in fo.slots.iter().enumerate() {
            pos[s as usize] = k;
        }
        for i in 0..n as usize {
            let d = pos[i].abs_diff(pos[n as usize + i]);
            assert!(d <= fo.slots.len() / 4, "pair {i} spread {d}");
        }
    }

    #[test]
    fn force_order_on_empty_and_edge_free_designs() {
        let fo = force_order(&Aig::new());
        assert!(fo.slots.is_empty());
        let mut g = Aig::new();
        g.input("a");
        g.input("b");
        let fo = force_order(&g);
        assert_eq!(
            fo.slots,
            vec![0, 1],
            "edge-free slots keep the natural order"
        );
    }
}
