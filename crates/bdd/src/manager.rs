//! The BDD node table and basic constructors: complement-edge node
//! representation, the external root set, and mark-and-sweep garbage
//! collection with node recycling.

use crate::hash::{FxHashMap, FxHashSet};
use std::error::Error;
use std::fmt;

/// Identifier of a BDD node within a [`BddManager`] — a *complement
/// edge*: bit 0 is the complement tag, the remaining bits index the node
/// table. `!id` (see the [`std::ops::Not`] impl) is therefore the O(1)
/// negation of the function `id` denotes, with no manager access and no
/// allocation.
///
/// There is a single terminal node (index 0); [`NodeId::TRUE`] is its
/// regular edge and [`NodeId::FALSE`] its complemented edge. Canonical
/// form: stored nodes always have a *regular* (non-complemented) hi
/// edge, so `f` and `¬f` share every node and equality of `NodeId`s is
/// equality of functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The true terminal (the regular edge to the terminal node).
    pub const TRUE: NodeId = NodeId(0);
    /// The false terminal (the complemented edge to the terminal node).
    pub const FALSE: NodeId = NodeId(1);

    /// True if this edge points at the terminal node.
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// True if the edge carries the complement tag.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Index of the referenced node in the manager's table.
    pub(crate) fn index(self) -> u32 {
        self.0 >> 1
    }

    pub(crate) fn from_index(index: u32) -> NodeId {
        NodeId(index << 1)
    }
}

impl std::ops::Not for NodeId {
    type Output = NodeId;

    /// Complement edge: negation is a tag-bit flip, independent of the
    /// manager. `!NodeId::TRUE == NodeId::FALSE`.
    fn not(self) -> NodeId {
        NodeId(self.0 ^ 1)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeId::FALSE => write!(f, "F"),
            NodeId::TRUE => write!(f, "T"),
            n if n.is_complemented() => write!(f, "~#{}", n.index()),
            n => write!(f, "#{}", n.index()),
        }
    }
}

/// The node budget was exhausted.
///
/// This is the deterministic stand-in for a model-checker time-out: the
/// same input always overflows at the same point, making the paper's
/// "property too big, partition it" flow (Fig. 7) reproducible in tests.
///
/// The quota counts **live** nodes: when a root set is declared (see
/// [`BddManager::protect`]), the manager garbage-collects dead nodes
/// under quota pressure before raising this error, so overflow means the
/// *live* working set genuinely does not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfNodes {
    /// The configured quota that was hit.
    pub quota: usize,
}

impl fmt::Display for OutOfNodes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BDD node quota exhausted ({} live nodes)", self.quota)
    }
}

impl Error for OutOfNodes {}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub var: u32,
    /// Else-edge; may be complemented.
    pub lo: NodeId,
    /// Then-edge; always regular (canonical form).
    pub hi: NodeId,
}

pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// A Reduced Ordered BDD manager with complement edges: owns the node
/// table, unique table, computed caches, the external root set, and the
/// free list of recycled slots. Variables are identified by `u32` ids;
/// a var↔level indirection ([`BddManager::level_of`]) maps each id to
/// its current position in the order — smaller levels are nearer the
/// root (tested first). The order is the identity unless a fresh
/// manager installs another one with [`BddManager::adopt_order`].
///
/// All operations that may allocate return `Result<NodeId, OutOfNodes>`.
///
/// # Roots and garbage collection
///
/// Operation results are initially *unrooted*: they stay valid until the
/// next garbage collection, which only runs under quota pressure (or via
/// an explicit [`BddManager::gc`] call). Any `NodeId` held across later
/// allocating calls must be registered with [`BddManager::protect`] and
/// released with [`BddManager::unprotect`]; operands of the currently
/// executing operation are protected automatically. As a safety valve
/// for clients that never declare roots, automatic collection stays
/// disabled until the first `protect` — such clients keep the historical
/// fail-fast quota behavior instead of risking dangling ids.
#[derive(Clone, Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: FxHashMap<(u32, NodeId, NodeId), NodeId>,
    pub(crate) ite_cache: FxHashMap<(NodeId, NodeId, NodeId), NodeId>,
    pub(crate) exists_cache: FxHashMap<(NodeId, NodeId), NodeId>,
    pub(crate) and_exists_cache: FxHashMap<(NodeId, NodeId, NodeId), NodeId>,
    pub(crate) rename_cache: FxHashMap<(NodeId, u64), NodeId>,
    pub(crate) and_cache: FxHashMap<(NodeId, NodeId), NodeId>,
    /// Reusable work stack of the iterative ITE (empty between calls).
    pub(crate) ite_tasks: Vec<crate::ops::IteFrame>,
    /// Reusable result stack of the iterative ITE (empty between calls).
    pub(crate) ite_results: Vec<NodeId>,
    /// Recycled node-table slots available for reuse by `mk`.
    pub(crate) free_list: Vec<u32>,
    /// External references: node index → reference count.
    pub(crate) roots: FxHashMap<u32, u32>,
    pub(crate) max_nodes: usize,
    pub(crate) peak_live: usize,
    pub(crate) total_allocated: u64,
    pub(crate) total_freed: u64,
    /// Variable id → current level (position in the order). Extended
    /// lazily by `mk`; the identity unless `adopt_order` installed
    /// another order.
    pub(crate) var2level: Vec<u32>,
    /// Current level → variable id (inverse of `var2level`).
    pub(crate) level2var: Vec<u32>,
}

impl BddManager {
    /// Creates a manager with the given quota on **live** nodes.
    pub fn new(max_nodes: usize) -> Self {
        BddManager {
            nodes: vec![Node { var: TERMINAL_VAR, lo: NodeId::TRUE, hi: NodeId::TRUE }],
            unique: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            exists_cache: FxHashMap::default(),
            and_exists_cache: FxHashMap::default(),
            rename_cache: FxHashMap::default(),
            and_cache: FxHashMap::default(),
            ite_tasks: Vec::new(),
            ite_results: Vec::new(),
            free_list: Vec::new(),
            roots: FxHashMap::default(),
            max_nodes,
            peak_live: 1,
            total_allocated: 0,
            total_freed: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
        }
    }

    /// Current level of variable `var` — its position in the order,
    /// smaller = nearer the root. Variables the manager has not seen
    /// yet (and the terminal, `TERMINAL_VAR`) sit at their own id,
    /// which keeps them below every adopted level.
    #[inline]
    pub fn level_of(&self, var: u32) -> u32 {
        match self.var2level.get(var as usize) {
            Some(&l) => l,
            None => var,
        }
    }

    /// The variable currently at `level` (identity for levels beyond
    /// the tracked order).
    pub fn var_at_level(&self, level: u32) -> u32 {
        match self.level2var.get(level as usize) {
            Some(&v) => v,
            None => level,
        }
    }

    /// The current variable order, root-first: `order[level] = var`.
    /// Covers every variable the manager has tracked so far.
    pub fn current_order(&self) -> Vec<u32> {
        self.level2var.clone()
    }

    /// Installs a variable order wholesale — typically another
    /// manager's [`current_order`](Self::current_order) carried by an
    /// [`ExportedBdd`](crate::transfer::ExportedBdd), so a fresh
    /// receiver rebuilds an imported cone at exactly its exported size
    /// instead of paying ITE re-normalization. `order[level] = var`,
    /// and `order` must be a permutation of `0..order.len()`; variables
    /// the manager later meets beyond that range get identity levels as
    /// usual.
    ///
    /// Only legal while the manager holds no decision nodes (fresh, or
    /// everything collected): the nodes of a live table are laid out for
    /// the order they were built under.
    ///
    /// # Panics
    ///
    /// Panics if the manager holds decision nodes or `order` is not a
    /// permutation of `0..order.len()`.
    pub fn adopt_order(&mut self, order: &[u32]) {
        assert_eq!(
            self.nodes.len() - self.free_list.len(),
            1,
            "adopt_order requires a manager without decision nodes"
        );
        let n = order.len();
        let mut var2level = vec![u32::MAX; n];
        for (level, &var) in order.iter().enumerate() {
            assert!(
                (var as usize) < n && var2level[var as usize] == u32::MAX,
                "order must be a permutation of 0..{n}"
            );
            var2level[var as usize] = level as u32;
        }
        // Keep coverage of vars already tracked (by nodes since
        // collected) with the identity tail `ensure_var` would have
        // given them.
        for v in n as u32..self.var2level.len() as u32 {
            var2level.push(v);
        }
        let mut level2var: Vec<u32> = order.to_vec();
        level2var.extend(n as u32..self.level2var.len() as u32);
        self.var2level = var2level;
        self.level2var = level2var;
    }

    /// Extends the var↔level maps (identity at the tail) so that `var`
    /// is tracked. Called by `mk` for every decision variable, so any
    /// variable with a node always has a level.
    #[inline]
    pub(crate) fn ensure_var(&mut self, var: u32) {
        if (var as usize) < self.var2level.len() || var == TERMINAL_VAR {
            return;
        }
        let old = self.var2level.len() as u32;
        self.var2level.extend(old..=var);
        self.level2var.extend(old..=var);
    }

    /// Number of **live** nodes (including the terminal): allocated slots
    /// minus recycled ones. This is what the quota is measured against.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free_list.len()
    }

    /// High-water mark of [`BddManager::num_nodes`] over the manager's
    /// lifetime — the honest "peak memory" figure now that collection can
    /// shrink the table.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live
    }

    /// Total nodes ever allocated (monotonic; unaffected by collection).
    /// `total_allocated - peak live` bounds how much garbage collection
    /// reclaimed; a run with `total_allocated > quota` that completed
    /// *needed* collection to fit.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Total nodes reclaimed by garbage collection (monotonic).
    pub fn total_freed(&self) -> u64 {
        self.total_freed
    }

    /// The configured quota on live nodes.
    pub fn quota(&self) -> usize {
        self.max_nodes
    }

    /// The variable id of a node (`u32::MAX` for the terminal). For the
    /// node's position in the current order see [`BddManager::level_of`].
    pub fn node_var(&self, n: NodeId) -> u32 {
        self.nodes[n.index() as usize].var
    }

    /// Else-cofactor edge of `n` with `n`'s complement tag pushed through
    /// (the cofactor of `¬f` is the complement of the cofactor of `f`).
    pub(crate) fn lo(&self, n: NodeId) -> NodeId {
        NodeId(self.nodes[n.index() as usize].lo.0 ^ (n.0 & 1))
    }

    /// Then-cofactor edge of `n`, complement tag pushed through.
    pub(crate) fn hi(&self, n: NodeId) -> NodeId {
        NodeId(self.nodes[n.index() as usize].hi.0 ^ (n.0 & 1))
    }

    pub(crate) fn var_of(&self, n: NodeId) -> u32 {
        self.nodes[n.index() as usize].var
    }

    /// Raw node-table entry by index (for the transfer serializer, which
    /// needs the stored edges rather than the tag-adjusted cofactors).
    pub(crate) fn node(&self, index: u32) -> Node {
        self.nodes[index as usize]
    }

    /// Pure-read unique-table probe: the regular edge of the node
    /// `(var, lo, hi)` if the manager currently holds it, else `None`.
    /// `hi` must be regular (the canonical stored form). The delta
    /// exporter uses this to recognize baseline nodes in the source
    /// manager without allocating.
    pub(crate) fn lookup(&self, var: u32, lo: NodeId, hi: NodeId) -> Option<NodeId> {
        self.unique.get(&(var, lo, hi)).copied()
    }

    /// The reduced node `(var, lo, hi)`; applies the redundancy rule, the
    /// regular-hi-edge canonicalization, and the unique table.
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> Result<NodeId, OutOfNodes> {
        if lo == hi {
            return Ok(lo);
        }
        self.ensure_var(var);
        // Canonical form: the stored hi edge is regular. A complemented
        // hi is factored out of both children and onto the result edge.
        let neg = hi.is_complemented() as u32;
        let (lo, hi) = (NodeId(lo.0 ^ neg), NodeId(hi.0 ^ neg));
        debug_assert!(
            self.level_of(var) < self.level_of(self.nodes[lo.index() as usize].var)
                && self.level_of(var) < self.level_of(self.nodes[hi.index() as usize].var),
            "order violation in mk"
        );
        // One hash probe for both the hit and the miss path.
        match self.unique.entry((var, lo, hi)) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(NodeId(e.get().0 ^ neg)),
            std::collections::hash_map::Entry::Vacant(e) => {
                if self.nodes.len() - self.free_list.len() >= self.max_nodes {
                    return Err(OutOfNodes { quota: self.max_nodes });
                }
                let index = match self.free_list.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = Node { var, lo, hi };
                        i
                    }
                    None => {
                        self.nodes.push(Node { var, lo, hi });
                        (self.nodes.len() - 1) as u32
                    }
                };
                let id = NodeId::from_index(index);
                e.insert(id);
                self.total_allocated += 1;
                let live = self.nodes.len() - self.free_list.len();
                if live > self.peak_live {
                    self.peak_live = live;
                }
                Ok(NodeId(id.0 ^ neg))
            }
        }
    }

    /// Registers `n`'s node as an external root (reference-counted): it
    /// and everything reachable from it survive garbage collection.
    /// Protecting `f` also protects `¬f` (they share every node).
    /// Terminals need no protection. The first `protect` call also arms
    /// automatic collection under quota pressure.
    pub fn protect(&mut self, n: NodeId) {
        if !n.is_terminal() {
            *self.roots.entry(n.index()).or_insert(0) += 1;
        }
    }

    /// Releases one [`BddManager::protect`] registration of `n`.
    pub fn unprotect(&mut self, n: NodeId) {
        if n.is_terminal() {
            return;
        }
        match self.roots.get_mut(&n.index()) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.roots.remove(&n.index());
            }
            None => debug_assert!(false, "unprotect of a non-root {n:?}"),
        }
    }

    /// Atomically re-points one protection from `old` to `new` — the
    /// idiom for updating a held accumulator (`reached`, `frontier`, …).
    pub fn reroot(&mut self, old: NodeId, new: NodeId) {
        self.protect(new);
        self.unprotect(old);
    }

    /// Number of distinct protected node indices (diagnostic).
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Mark-and-sweep garbage collection: frees every node not reachable
    /// from the root set, recycles the slots, and drops computed-cache
    /// and unique-table entries that mention a dead node. Returns the
    /// number of nodes freed.
    ///
    /// Any unprotected `NodeId` obtained before this call dangles after
    /// it (unless reachable from a root); see the struct-level contract.
    pub fn gc(&mut self) -> usize {
        self.gc_with_temps(&[])
    }

    /// GC with additional temporary roots (the operands of an in-flight
    /// operation that is retrying under quota pressure).
    pub(crate) fn gc_with_temps(&mut self, temps: &[NodeId]) -> usize {
        let n = self.nodes.len();
        let mut marked = vec![false; n];
        marked[0] = true; // the terminal is immortal
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        stack.extend(temps.iter().filter(|t| !t.is_terminal()).map(|t| t.index()));
        while let Some(i) = stack.pop() {
            let i = i as usize;
            if marked[i] {
                continue;
            }
            marked[i] = true;
            let node = self.nodes[i];
            stack.push(node.lo.index());
            stack.push(node.hi.index());
        }
        // Already-recycled slots must not be freed twice.
        for &i in &self.free_list {
            marked[i as usize] = true;
        }
        let mut freed = 0usize;
        for (i, m) in marked.iter().enumerate().skip(1) {
            if !m {
                let node = self.nodes[i];
                self.unique.remove(&(node.var, node.lo, node.hi));
                self.nodes[i] = Node { var: TERMINAL_VAR, lo: NodeId::TRUE, hi: NodeId::TRUE };
                self.free_list.push(i as u32);
                freed += 1;
            }
        }
        self.total_freed += freed as u64;
        if freed > 0 {
            let live = |id: NodeId| marked[id.index() as usize];
            self.retain_op_caches(&mut |key, r| key.iter().all(|&k| live(k)) && live(r));
        }
        freed
    }

    /// The one enumeration of the five op caches: retains entries for
    /// which `keep(key-nodes, result)` holds. The GC sweep (liveness)
    /// and [`BddManager::clear_op_caches`] both go through here, so a
    /// cache added later cannot be missed by one of them. The `rename`
    /// cache passes only its function operand (its second key component
    /// is a map hash, not a node).
    pub(crate) fn retain_op_caches(&mut self, keep: &mut dyn FnMut(&[NodeId], NodeId) -> bool) {
        self.ite_cache.retain(|&(f, g, h), &mut r| keep(&[f, g, h], r));
        self.and_cache.retain(|&(f, g), &mut r| keep(&[f, g], r));
        self.exists_cache.retain(|&(f, c), &mut r| keep(&[f, c], r));
        self.and_exists_cache.retain(|&(f, g, c), &mut r| keep(&[f, g, c], r));
        self.rename_cache.retain(|&(f, _), &mut r| keep(&[f], r));
    }

    /// Drops every computed-cache entry (keeps the node table). This is
    /// the deduplicated "clear them all" the sweep and
    /// [`BddManager::clear_caches`] share.
    pub fn clear_op_caches(&mut self) {
        self.retain_op_caches(&mut |_, _| false);
    }

    /// Runs `op`; on quota exhaustion, garbage-collects (with `temps` as
    /// extra roots) and retries once. Collection under pressure is only
    /// armed once a root set exists — a client that declared no roots
    /// gets the plain fail-fast behavior, because without roots the
    /// manager cannot tell its held ids from garbage.
    ///
    /// Hopeless retries are cut off: the failed attempt's own partial
    /// results are garbage (nothing roots them), so the retry must
    /// re-allocate roughly everything the attempt did *and then keep
    /// going*. The retry runs only when the post-GC live set plus the
    /// attempt's allocation count fits within 7/8 of the quota — the
    /// reserved eighth is continuation headroom, so a retry that merely
    /// re-reaches the attempt's death point is not paid for twice, while
    /// failures caused by since-collected inter-op garbage (superseded
    /// frontiers, abandoned accumulators) still get their second chance.
    pub(crate) fn run_with_gc<T>(
        &mut self,
        temps: &[NodeId],
        mut op: impl FnMut(&mut Self) -> Result<T, OutOfNodes>,
    ) -> Result<T, OutOfNodes> {
        let allocated_before = self.total_allocated;
        match op(self) {
            Err(e) => {
                if self.roots.is_empty() || self.gc_with_temps(temps) == 0 {
                    return Err(e);
                }
                let attempt = (self.total_allocated - allocated_before) as usize;
                let live = self.nodes.len() - self.free_list.len();
                let headroom = self.max_nodes - self.max_nodes / 8;
                if live.saturating_add(attempt) > headroom {
                    return Err(e);
                }
                op(self)
            }
            ok => ok,
        }
    }

    /// The BDD for a single positive variable.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] if the quota is exhausted even after
    /// garbage collection.
    pub fn var(&mut self, v: u32) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[], |m| m.mk(v, NodeId::FALSE, NodeId::TRUE))
    }

    /// The BDD for a negated variable (the complement edge of
    /// [`BddManager::var`]).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] if the quota is exhausted even after
    /// garbage collection.
    pub fn nvar(&mut self, v: u32) -> Result<NodeId, OutOfNodes> {
        Ok(!self.var(v)?)
    }

    /// Constant BDD from a boolean.
    pub fn constant(&self, b: bool) -> NodeId {
        if b {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// Counts the nodes reachable from `f` (its size), terminal included.
    /// With complement edges there is exactly one terminal node, and
    /// every function — constants included — reaches it, so
    /// `size(TRUE) == 1` and `size(var) == 2`.
    pub fn size(&self, f: NodeId) -> usize {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.index()) {
                continue;
            }
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        seen.len() + 1
    }

    /// Evaluates `f` under a full assignment (`assign(var)` = value).
    pub fn eval(&self, f: NodeId, assign: &dyn Fn(u32) -> bool) -> bool {
        let mut n = f;
        while !n.is_terminal() {
            let v = self.var_of(n);
            n = if assign(v) { self.hi(n) } else { self.lo(n) };
        }
        n == NodeId::TRUE
    }

    /// Clears the computed caches (keeps the node table). Useful between
    /// phases with different operand distributions.
    pub fn clear_caches(&mut self) {
        self.clear_op_caches();
    }

    /// Number of satisfying assignments of `f` over `nvars` variables
    /// (variables `0..nvars`), as `f64` (exact for small counts).
    pub fn count_sat(&self, f: NodeId, nvars: u32) -> f64 {
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        // count(n) = number of solutions below n, over the levels from
        // level(var(n)) to nvars — under an adopted order the "skipped
        // variables" exponent is a level gap, not a var-id gap. The memo
        // is keyed on the full edge (complement tag included), so f and
        // ¬f each get their own entry.
        fn go(
            m: &BddManager,
            n: NodeId,
            nvars: u32,
            memo: &mut FxHashMap<NodeId, f64>,
        ) -> f64 {
            if n == NodeId::FALSE {
                return 0.0;
            }
            if n == NodeId::TRUE {
                return 1.0;
            }
            if let Some(&c) = memo.get(&n) {
                return c;
            }
            let v = m.level_of(m.var_of(n));
            let lo = m.lo(n);
            let hi = m.hi(n);
            let lo_l = if lo.is_terminal() { nvars } else { m.level_of(m.var_of(lo)) };
            let hi_l = if hi.is_terminal() { nvars } else { m.level_of(m.var_of(hi)) };
            let c = go(m, lo, nvars, memo) * 2f64.powi((lo_l - v - 1) as i32)
                + go(m, hi, nvars, memo) * 2f64.powi((hi_l - v - 1) as i32);
            memo.insert(n, c);
            c
        }
        let top = if f.is_terminal() { nvars } else { self.level_of(self.var_of(f)) };
        go(self, f, nvars, &mut memo) * 2f64.powi(top as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_exist() {
        let m = BddManager::new(100);
        assert!(NodeId::FALSE.is_terminal());
        assert!(NodeId::TRUE.is_terminal());
        // One shared terminal node; FALSE is its complement edge.
        assert_eq!(m.num_nodes(), 1);
        assert_eq!(!NodeId::TRUE, NodeId::FALSE);
        assert_eq!(m.constant(true), NodeId::TRUE);
    }

    #[test]
    fn mk_is_reduced_and_unique() {
        let mut m = BddManager::new(100);
        let a1 = m.var(0).unwrap();
        let a2 = m.var(0).unwrap();
        assert_eq!(a1, a2);
        // Redundancy: mk(v, x, x) == x
        let r = m.mk(3, a1, a1).unwrap();
        assert_eq!(r, a1);
        // Complement canonicalization: nvar shares var's node.
        let na = m.nvar(0).unwrap();
        assert_eq!(na, !a1);
        assert_eq!(m.num_nodes(), 2, "x and ¬x share one node");
    }

    #[test]
    fn quota_enforced() {
        let mut m = BddManager::new(2); // terminal + 1 node
        assert!(m.var(0).is_ok());
        assert!(matches!(m.var(1), Err(OutOfNodes { quota: 2 })));
    }

    #[test]
    fn eval_walks_paths() {
        let mut m = BddManager::new(100);
        let a = m.var(0).unwrap();
        assert!(m.eval(a, &|_| true));
        assert!(!m.eval(a, &|_| false));
        let na = m.nvar(0).unwrap();
        assert!(!m.eval(na, &|_| true));
    }

    #[test]
    fn size_counts_reachable_nodes_exactly() {
        // Regression: size used to report `seen + 2` unconditionally,
        // over-counting constants and every function by one terminal.
        let mut m = BddManager::new(100);
        assert_eq!(m.size(NodeId::TRUE), 1);
        assert_eq!(m.size(NodeId::FALSE), 1);
        let a = m.var(0).unwrap();
        assert_eq!(m.size(a), 2, "one decision node + the terminal");
        assert_eq!(m.size(!a), 2, "complement shares the node");
        let b = m.var(1).unwrap();
        let x = m.ite(a, !b, b).unwrap(); // a XOR b
        assert_eq!(m.size(x), 3, "xor is linear with complement edges");
    }

    #[test]
    fn count_sat_single_var() {
        let mut m = BddManager::new(100);
        let a = m.var(0).unwrap();
        assert_eq!(m.count_sat(a, 1), 1.0);
        assert_eq!(m.count_sat(a, 2), 2.0);
        assert_eq!(m.count_sat(NodeId::TRUE, 3), 8.0);
        assert_eq!(m.count_sat(NodeId::FALSE, 3), 0.0);
    }

    #[test]
    fn count_sat_deeper_var() {
        let mut m = BddManager::new(100);
        let b = m.var(1).unwrap(); // var 1 out of vars {0,1}
        assert_eq!(m.count_sat(b, 2), 2.0);
    }

    /// `count_sat`'s skipped-variable exponent is a level gap, not a
    /// var-id gap: a manager under an adopted, non-identity order must
    /// count the same function as an identity-order manager does.
    #[test]
    fn count_sat_uses_levels_after_reorder() {
        // f = x0·x3 ∨ x1·x4 ∨ x2·x5: 64 - 3^3 = 37 models over 6 vars.
        let build = |m: &mut BddManager| {
            let mut f = NodeId::FALSE;
            for (a, b) in [(0, 3), (1, 4), (2, 5)] {
                let va = m.var(a).unwrap();
                let vb = m.var(b).unwrap();
                let t = m.and(va, vb).unwrap();
                f = m.or(f, t).unwrap();
            }
            f
        };
        let mut identity = BddManager::new(1 << 16);
        let f = build(&mut identity);
        assert_eq!(identity.count_sat(f, 6), 37.0);
        let mut reordered = BddManager::new(1 << 16);
        reordered.adopt_order(&[5, 0, 3, 1, 4, 2]);
        let g = build(&mut reordered);
        assert_eq!(reordered.level_of(5), 0, "the adopted order is in force");
        assert_eq!(reordered.count_sat(g, 6), 37.0, "count_sat is order-invariant");
    }

    #[test]
    fn gc_frees_unrooted_keeps_rooted() {
        let mut m = BddManager::new(1 << 16);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let keep = m.and(a, b).unwrap();
        let dead = m.xor(a, b).unwrap();
        m.protect(keep);
        m.protect(a);
        m.protect(b);
        let live_before = m.num_nodes();
        let freed = m.gc();
        assert!(freed > 0, "the xor node must be collected");
        assert_eq!(m.num_nodes(), live_before - freed);
        // Rooted functions still evaluate correctly.
        assert!(m.eval(keep, &|_| true));
        assert!(!m.eval(keep, &|_| false));
        let _ = dead; // dangling by contract — must not be used again
        // Slots are recycled: rebuilding allocates into freed space.
        let len_before = m.nodes.len();
        let x2 = m.xor(a, b).unwrap();
        assert_eq!(m.nodes.len(), len_before, "mk must reuse freed slots");
        assert!(m.eval(x2, &|v| v == 0));
    }

    #[test]
    fn gc_under_quota_pressure_recovers() {
        // Quota sized so building junk then the target only fits if the
        // junk is collected: roots armed => automatic GC inside ops.
        let mut m = BddManager::new(24);
        let vars: Vec<NodeId> = (0..6).map(|v| m.var(v).unwrap()).collect();
        for &v in &vars {
            m.protect(v);
        }
        // Junk: a chain of xors, immediately dropped.
        let mut junk = m.xor(vars[0], vars[1]).unwrap();
        m.protect(junk);
        for &v in &vars[2..] {
            let j2 = m.xor(junk, v).unwrap();
            m.reroot(junk, j2);
            junk = j2;
        }
        m.unprotect(junk);
        let allocated_before = m.total_allocated();
        // A conjunction chain that needs the junk's slots back.
        let mut acc = vars[0];
        m.protect(acc);
        for &v in &vars[1..] {
            let a2 = m.and(acc, v).unwrap();
            m.reroot(acc, a2);
            acc = a2;
        }
        assert!(m.total_freed() > 0, "quota pressure must have triggered GC");
        assert!(m.total_allocated() > allocated_before);
        assert!(m.eval(acc, &|_| true));
        assert!(!m.eval(acc, &|v| v != 3));
    }

    #[test]
    fn unrooted_manager_keeps_fail_fast_quota() {
        // Without any protect() call the manager must not GC on pressure
        // (it cannot know which ids the caller still holds).
        let mut m = BddManager::new(8);
        let mut f = m.var(0).unwrap();
        let mut overflowed = false;
        for v in 1..20 {
            match m.var(v).and_then(|x| m.xor(f, x)) {
                Ok(g) => f = g,
                Err(_) => {
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "tiny quota must overflow without roots");
        assert_eq!(m.total_freed(), 0, "no GC without a root set");
    }

    #[test]
    fn protect_is_refcounted() {
        let mut m = BddManager::new(100);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.and(a, b).unwrap();
        m.protect(a);
        m.protect(b);
        m.protect(f);
        m.protect(f);
        m.unprotect(f);
        assert_eq!(m.num_roots(), 3, "f's registration must remain");
        let live = m.num_nodes();
        m.gc();
        assert_eq!(m.num_nodes(), live, "all roots and cones stay live");
        m.unprotect(f);
        m.gc();
        assert_eq!(m.num_nodes(), live - 1, "f's node is now collectable");
    }
}
