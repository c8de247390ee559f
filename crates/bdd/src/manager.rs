//! The BDD node table and basic constructors: complement-edge node
//! representation, the external root set, and mark-and-sweep garbage
//! collection with node recycling.

use crate::cache::{hash3, OpCache};
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
    /// The next node in the same unique-table chain ([`NIL`] ends it).
    pub next: u32,
}

pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// The end of a unique-table chain: index 0 is the terminal, which never
/// sits in a chain.
const NIL: u32 = 0;

/// The terminal node, and the contents of every free slot.
const FREE: Node = Node {
    var: TERMINAL_VAR,
    lo: NodeId::TRUE,
    hi: NodeId::TRUE,
    next: NIL,
};

/// log2 of the unique table's initial bucket count.
const UNIQUE_INITIAL_BITS: u32 = 8;

/// A Reduced Ordered BDD manager with complement edges: owns the node
/// table, the unique table (hash chains threaded through the nodes),
/// the bounded computed caches, the external root set, and the free
/// list of recycled slots. Variables are identified by `u32` ids;
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
    /// Unique-table bucket heads (a power of two long): the index of the
    /// first node of each chain, linked through [`Node::next`]. Doubles
    /// when the table holds more decision nodes than buckets.
    buckets: Vec<u32>,
    pub(crate) ite_cache: OpCache<(NodeId, NodeId, NodeId)>,
    pub(crate) exists_cache: OpCache<(NodeId, NodeId)>,
    pub(crate) and_exists_cache: OpCache<(NodeId, NodeId, NodeId)>,
    /// Keyed by the function and the two halves of the map's hash.
    pub(crate) rename_cache: OpCache<(NodeId, [u32; 2])>,
    pub(crate) and_cache: OpCache<(NodeId, NodeId)>,
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
            nodes: vec![FREE],
            buckets: vec![NIL; 1 << UNIQUE_INITIAL_BITS],
            ite_cache: OpCache::new(),
            exists_cache: OpCache::new(),
            and_exists_cache: OpCache::new(),
            rename_cache: OpCache::new(),
            and_cache: OpCache::new(),
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

    /// A manager whose every computed cache has two slots, so nearly
    /// every lookup misses: the lossy-cache contract says results and
    /// allocation counts must not notice.
    #[cfg(test)]
    pub(crate) fn with_two_slot_caches(max_nodes: usize) -> Self {
        BddManager {
            ite_cache: OpCache::with_max_bits(1),
            exists_cache: OpCache::with_max_bits(1),
            and_exists_cache: OpCache::with_max_bits(1),
            rename_cache: OpCache::with_max_bits(1),
            and_cache: OpCache::with_max_bits(1),
            ..BddManager::new(max_nodes)
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

    /// The unique-table bucket of `(var, lo, hi)`: the high bits of its
    /// multiplicative hash.
    #[inline]
    fn bucket(&self, var: u32, lo: NodeId, hi: NodeId) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (hash3(var, lo.0, hi.0) >> (64 - bits)) as usize
    }

    /// Walks bucket `b`'s chain for the node `(var, lo, hi)`.
    #[inline]
    fn find(&self, b: usize, var: u32, lo: NodeId, hi: NodeId) -> Option<u32> {
        let mut i = self.buckets[b];
        while i != NIL {
            let n = &self.nodes[i as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Some(i);
            }
            i = n.next;
        }
        None
    }

    /// Rebuilds every chain from the node table in one pass: each
    /// decision node (free slots hold `TERMINAL_VAR`) is pushed onto its
    /// bucket. Called after the bucket array doubles.
    fn relink(&mut self) {
        self.buckets.fill(NIL);
        for i in 1..self.nodes.len() {
            let node = self.nodes[i];
            if node.var != TERMINAL_VAR {
                self.link(i as u32, node);
            }
        }
    }

    /// Pushes node `i` (whose contents are `node`) onto its chain.
    #[inline]
    fn link(&mut self, i: u32, node: Node) {
        let b = self.bucket(node.var, node.lo, node.hi);
        self.nodes[i as usize].next = self.buckets[b];
        self.buckets[b] = i;
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
        let b = self.bucket(var, lo, hi);
        if let Some(i) = self.find(b, var, lo, hi) {
            return Ok(NodeId(NodeId::from_index(i).0 ^ neg));
        }
        if self.nodes.len() - self.free_list.len() >= self.max_nodes {
            return Err(OutOfNodes {
                quota: self.max_nodes,
            });
        }
        let node = Node {
            var,
            lo,
            hi,
            next: self.buckets[b],
        };
        let index = match self.free_list.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.buckets[b] = index;
        self.total_allocated += 1;
        let live = self.nodes.len() - self.free_list.len();
        if live > self.peak_live {
            self.peak_live = live;
        }
        // Load 1: as many decision nodes (all but the terminal) as buckets.
        if live - 1 > self.buckets.len() {
            self.buckets = vec![NIL; self.buckets.len() * 2];
            self.relink();
        }
        Ok(NodeId(NodeId::from_index(index).0 ^ neg))
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
    /// from the root set, recycles the slots, rebuilds the unique-table
    /// chains from the survivors, and empties every computed-cache slot
    /// that names a dead node. Returns the number of nodes freed.
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
        // One pass frees the unmarked nodes and relinks the marked ones.
        // Free slots (`TERMINAL_VAR`) stay free and unmarked: no cache
        // entry names one, because the sweep that freed it emptied them.
        self.buckets.fill(NIL);
        let mut freed = 0usize;
        for (i, &live) in marked.iter().enumerate().skip(1) {
            let node = self.nodes[i];
            if node.var == TERMINAL_VAR {
                continue;
            }
            if live {
                self.link(i as u32, node);
            } else {
                self.nodes[i] = FREE;
                self.free_list.push(i as u32);
                freed += 1;
            }
        }
        self.total_freed += freed as u64;
        if freed > 0 {
            self.sweep_caches(|id| marked[id.index() as usize]);
        }
        freed
    }

    /// Empties every computed-cache slot whose key or result names a
    /// node for which `live` fails. The one list of the five caches:
    /// the GC sweep and [`BddManager::clear_caches`] both go through
    /// here, so a cache added later cannot be missed by one of them.
    /// The sweep is required, not an optimization: `mk` recycles freed
    /// slots, so a stale entry would name a different function.
    fn sweep_caches(&mut self, live: impl Fn(NodeId) -> bool + Copy) {
        self.ite_cache.sweep(live);
        self.and_cache.sweep(live);
        self.exists_cache.sweep(live);
        self.and_exists_cache.sweep(live);
        self.rename_cache.sweep(live);
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
        self.sweep_caches(|_| false);
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
        fn go(m: &BddManager, n: NodeId, nvars: u32, memo: &mut FxHashMap<NodeId, f64>) -> f64 {
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
            let lo_l = if lo.is_terminal() {
                nvars
            } else {
                m.level_of(m.var_of(lo))
            };
            let hi_l = if hi.is_terminal() {
                nvars
            } else {
                m.level_of(m.var_of(hi))
            };
            let c = go(m, lo, nvars, memo) * 2f64.powi((lo_l - v - 1) as i32)
                + go(m, hi, nvars, memo) * 2f64.powi((hi_l - v - 1) as i32);
            memo.insert(n, c);
            c
        }
        let top = if f.is_terminal() {
            nvars
        } else {
            self.level_of(self.var_of(f))
        };
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
        assert_eq!(
            reordered.count_sat(g, 6),
            37.0,
            "count_sat is order-invariant"
        );
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

    /// SplitMix64: the tests' deterministic operation generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// One operation over pool indices; `u32` masks select variables.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        And(usize, usize),
        Or(usize, usize),
        Xor(usize, usize),
        Ite(usize, usize, usize),
        Exists(usize, u32),
        AndExists(usize, usize, u32),
        Rename(usize),
    }

    /// Variables the lossy-cache test draws from; renaming stays below
    /// `RENAME_LIMIT`, which bounds every function's size.
    const LOSSY_VARS: u32 = 10;
    const RENAME_LIMIT: u32 = 14;

    fn random_op(rng: &mut Rng, pool: usize) -> Op {
        let mut pick = || rng.below(pool);
        let (a, b, c) = (pick(), pick(), pick());
        let mask = rng.below(1 << RENAME_LIMIT) as u32 | 1;
        match rng.below(7) {
            0 => Op::And(a, b),
            1 => Op::Or(a, b),
            2 => Op::Xor(a, b),
            3 => Op::Ite(a, b, c),
            4 => Op::Exists(a, mask),
            5 => Op::AndExists(a, b, mask),
            _ => Op::Rename(a),
        }
    }

    fn mask_vars(mask: u32) -> Vec<u32> {
        (0..32).filter(|v| mask >> v & 1 == 1).collect()
    }

    fn apply(m: &mut BddManager, pool: &[NodeId], op: Op) -> NodeId {
        match op {
            Op::And(a, b) => m.and(pool[a], pool[b]),
            Op::Or(a, b) => m.or(pool[a], pool[b]),
            Op::Xor(a, b) => m.xor(pool[a], pool[b]),
            Op::Ite(a, b, c) => m.ite(pool[a], pool[b], pool[c]),
            Op::Exists(a, mask) => {
                let cube = m.cube(&mask_vars(mask)).unwrap();
                m.exists(pool[a], cube)
            }
            Op::AndExists(a, b, mask) => {
                let cube = m.cube(&mask_vars(mask)).unwrap();
                m.and_exists(pool[a], pool[b], cube)
            }
            Op::Rename(a) => {
                // Shift the support up by one, or back down to start at
                // 0 once it would leave the variable range: both maps
                // preserve order.
                let support = m.support(pool[a]);
                let up = support.last().is_some_and(|&v| v + 1 < RENAME_LIMIT);
                let lowest = support.first().copied().unwrap_or(0);
                let map: Vec<(u32, u32)> = support
                    .iter()
                    .map(|&v| (v, if up { v + 1 } else { v - lowest }))
                    .collect();
                m.rename(pool[a], &map)
            }
        }
        .unwrap()
    }

    /// The lossy-cache contract: with no collection, a cache miss only
    /// rebuilds nodes that already exist. A manager whose caches hold two
    /// slots each must then return the very same `NodeId` for every
    /// operation, and allocate exactly as many nodes, as a default one.
    #[test]
    fn two_slot_caches_change_no_result_and_no_allocation_count() {
        for seed in 0..24 {
            let mut rng = Rng(seed);
            let mut full = BddManager::new(1 << 20);
            let mut tiny = BddManager::with_two_slot_caches(1 << 20);
            let mut pool: Vec<NodeId> = (0..LOSSY_VARS).map(|v| full.var(v).unwrap()).collect();
            let tiny_vars: Vec<NodeId> = (0..LOSSY_VARS).map(|v| tiny.var(v).unwrap()).collect();
            assert_eq!(pool, tiny_vars);
            let mut last = None;
            for step in 0..150 {
                // Every fourth step repeats the last operation, so the
                // default manager answers it from its cache.
                let op = match last {
                    Some(op) if step % 4 == 0 => op,
                    _ => random_op(&mut rng, pool.len()),
                };
                let want = apply(&mut full, &pool, op);
                let got = apply(&mut tiny, &pool, op);
                assert_eq!(got, want, "seed {seed} step {step}: {op:?}");
                assert_eq!(
                    tiny.total_allocated(),
                    full.total_allocated(),
                    "seed {seed} step {step}: {op:?}"
                );
                pool.push(want);
                last = Some(op);
            }
            assert_eq!(
                full.total_freed() + tiny.total_freed(),
                0,
                "no collection ran"
            );
            assert!(tiny.ite_cache.slot_count() <= 2 && tiny.and_cache.slot_count() <= 2);
            assert!(full.and_cache.slot_count() > 2, "the default caches grew");
        }
    }

    /// Truth table of `f` over variables `0..n` (bit `a` = `f(a)`).
    fn truth_table(m: &BddManager, f: NodeId, n: u32) -> u32 {
        (0..1u32 << n)
            .filter(|&a| m.eval(f, &|v| a >> v & 1 == 1))
            .fold(0, |t, a| t | 1 << a)
    }

    /// `∃ vars(mask). table`, as a truth table over `0..n`.
    fn quantified(table: u32, mask: u32, n: u32) -> u32 {
        (0..1u32 << n)
            .filter(|&a| (0..1u32 << n).any(|b| b & !mask == a & !mask && table >> b & 1 == 1))
            .fold(0, |t, a| t | 1 << a)
    }

    /// A collection frees nodes that cached results name, and `mk` then
    /// recycles those slots for other functions. The sweep must empty
    /// every such cache slot: a stale entry would answer a query about a
    /// new function with the result computed for the slot's old one.
    #[test]
    fn recycled_slots_never_return_stale_cache_entries() {
        const N: u32 = 4;
        let mut rng = Rng(7);
        let mut m = BddManager::new(1 << 16);
        let vars: Vec<NodeId> = (0..N).map(|v| m.var(v).unwrap()).collect();
        for &v in &vars {
            m.protect(v);
        }
        let shift: Vec<(u32, u32)> = (0..N).map(|v| (v, v + N)).collect();
        let mut recycled = 0;
        for _round in 0..300 {
            // Fresh functions, built into the slots the last round freed.
            let free_before = m.free_list.len();
            let mut pool = vars.clone();
            for _ in 0..10 {
                let (a, b) = (pool[rng.below(pool.len())], pool[rng.below(pool.len())]);
                let f = match rng.below(3) {
                    0 => m.and(a, b),
                    1 => m.or(a, !b),
                    _ => m.xor(a, b),
                };
                pool.push(f.unwrap());
            }
            recycled += free_before - m.free_list.len();
            for _ in 0..30 {
                let mut pick = || pool[rng.below(pool.len())];
                let (f, g, h) = (pick(), pick(), pick());
                let mask = rng.below(1 << N) as u32;
                match rng.below(7) {
                    0 => assert_eq!(
                        m.and(f, g).unwrap(),
                        m.ite_reference(f, g, NodeId::FALSE).unwrap()
                    ),
                    1 => assert_eq!(
                        m.or(f, g).unwrap(),
                        m.ite_reference(f, NodeId::TRUE, g).unwrap()
                    ),
                    2 => assert_eq!(m.xor(f, g).unwrap(), m.ite_reference(f, !g, g).unwrap()),
                    3 => assert_eq!(m.ite(f, g, h).unwrap(), m.ite_reference(f, g, h).unwrap()),
                    4 => {
                        let cube = m.cube(&mask_vars(mask)).unwrap();
                        let r = m.exists(f, cube).unwrap();
                        let want = quantified(truth_table(&m, f, N), mask, N);
                        assert_eq!(truth_table(&m, r, N), want);
                    }
                    5 => {
                        let cube = m.cube(&mask_vars(mask)).unwrap();
                        let r = m.and_exists(f, g, cube).unwrap();
                        let conj = truth_table(&m, f, N) & truth_table(&m, g, N);
                        assert_eq!(truth_table(&m, r, N), quantified(conj, mask, N));
                    }
                    _ => {
                        let r = m.rename(f, &shift).unwrap();
                        let back: Vec<(u32, u32)> = shift.iter().map(|&(a, b)| (b, a)).collect();
                        let again = m.rename(r, &back).unwrap();
                        assert_eq!(
                            again,
                            m.ite_reference(f, NodeId::TRUE, NodeId::FALSE).unwrap()
                        );
                    }
                }
            }
            // Everything but the variables dies here.
            m.gc();
        }
        assert!(recycled > 1000, "mk recycled freed slots ({recycled})");
    }

    /// The chained unique table stays exact across bucket doublings and
    /// collections: every live node is found under its own `(var, lo,
    /// hi)`, re-`mk`-ing it allocates nothing and returns its own id, and
    /// the chains hold exactly the live decision nodes.
    #[test]
    fn unique_table_finds_every_live_node_after_doublings_and_sweeps() {
        fn check(m: &mut BddManager) {
            let allocated = m.total_allocated();
            for i in 1..m.nodes.len() {
                let n = m.nodes[i];
                if n.var == TERMINAL_VAR {
                    continue;
                }
                let own = NodeId::from_index(i as u32);
                let b = m.bucket(n.var, n.lo, n.hi);
                assert_eq!(m.find(b, n.var, n.lo, n.hi), Some(i as u32));
                assert_eq!(m.mk(n.var, n.lo, n.hi).unwrap(), own);
            }
            assert_eq!(m.total_allocated(), allocated, "no duplicate was built");
            let mut chained = 0;
            for b in 0..m.buckets.len() {
                let mut i = m.buckets[b];
                while i != NIL {
                    chained += 1;
                    i = m.nodes[i as usize].next;
                }
            }
            assert_eq!(
                chained,
                m.num_nodes() - 1,
                "chains hold exactly the decision nodes"
            );
        }
        let mut rng = Rng(11);
        let mut m = BddManager::new(1 << 20);
        let vars: Vec<NodeId> = (0..12).map(|v| m.var(v).unwrap()).collect();
        for &v in &vars {
            m.protect(v);
        }
        for _round in 0..4 {
            let mut pool = vars.clone();
            for _ in 0..1500 {
                let (a, b) = (pool[rng.below(pool.len())], pool[rng.below(pool.len())]);
                let f = match rng.below(3) {
                    0 => m.and(a, b),
                    1 => m.or(a, b),
                    _ => m.xor(a, b),
                };
                pool.push(f.unwrap());
            }
            check(&mut m);
            // Keep a tenth of the round's functions across the sweep.
            for &f in pool.iter().step_by(10) {
                m.protect(f);
            }
            assert!(m.gc() > 0);
            check(&mut m);
        }
        assert!(
            m.buckets.len() >= 1 << (UNIQUE_INITIAL_BITS + 3),
            "several doublings"
        );
    }
}
