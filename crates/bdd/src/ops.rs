//! BDD operations: ITE, boolean connectives, quantification, relational
//! product, variable renaming, satisfying-assignment extraction.
//!
//! With complement edges, negation ([`BddManager::not`]) is a tag-bit
//! flip — no traversal, no allocation, no cache — and the remaining
//! connectives derive from two primitives: the generic iterative ITE and
//! a specialized binary AND (`or` is `¬(¬f ∧ ¬g)`, `and_not` is
//! `f ∧ ¬g`, both O(1) rewrites). Each public entry point retries once
//! after a garbage collection when the node quota is hit (see the
//! [`BddManager`] root-set contract).

use crate::hash::FxHashMap;
use crate::manager::{BddManager, NodeId, OutOfNodes};

/// One pending step of the iterative [`BddManager::ite`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum IteFrame {
    /// Evaluate `ite(f, g, h)` and push its node onto the result stack.
    Apply(NodeId, NodeId, NodeId),
    /// Pop the two cofactor results, build the node at level `v`, cache
    /// it under the normalized `key`, and push the result complemented
    /// by `neg`.
    Reduce { v: u32, key: (NodeId, NodeId, NodeId), neg: bool },
}

/// Outcome of [`normalize_ite`].
enum Norm {
    /// The triple collapsed to an existing function.
    Done(NodeId),
    /// Canonical triple (`f` and `g` regular) plus an output-complement
    /// flag.
    Rec(NodeId, NodeId, NodeId, bool),
}

/// Canonicalizes an ITE triple whose `f` is known non-terminal — the
/// standard complement-edge normalization (Brace–Rudell–Bryant):
///
/// 1. replace `g`/`h` by constants where they equal `±f`;
/// 2. rewrite the commutative forms (`AND`, `OR`, `NAND`-ish, `NOR`-ish,
///    `XOR`-ish) so the operand with the smaller node index comes first;
/// 3. make `f` regular (swapping `g`/`h`), then make `g` regular
///    (complementing the output).
///
/// Together these fold up to eight equivalent triples onto one computed
/// cache entry, which is where the "cache sharing between `f` and `¬f`"
/// win of complement edges comes from.
fn normalize_ite(mut f: NodeId, mut g: NodeId, mut h: NodeId) -> Norm {
    // ite(f, f, h) = ite(f, T, h);  ite(f, ¬f, h) = ite(f, F, h).
    if g == f {
        g = NodeId::TRUE;
    } else if g == !f {
        g = NodeId::FALSE;
    }
    // ite(f, g, f) = ite(f, g, F);  ite(f, g, ¬f) = ite(f, g, T).
    if h == f {
        h = NodeId::FALSE;
    } else if h == !f {
        h = NodeId::TRUE;
    }
    if g == h {
        return Norm::Done(g);
    }
    if g == NodeId::TRUE && h == NodeId::FALSE {
        return Norm::Done(f);
    }
    if g == NodeId::FALSE && h == NodeId::TRUE {
        return Norm::Done(!f);
    }
    // Commutative rewrites: order the two non-constant operands by node
    // index. (Equal indices are impossible: g = ±f was folded above.)
    if h == NodeId::FALSE && g.index() < f.index() {
        // AND: ite(f, g, F) = ite(g, f, F).
        std::mem::swap(&mut f, &mut g);
    } else if g == NodeId::TRUE && h.index() < f.index() {
        // OR: ite(f, T, h) = ite(h, T, f).
        std::mem::swap(&mut f, &mut h);
    } else if h == NodeId::TRUE && g.index() < f.index() {
        // ite(f, g, T) = ite(¬g, ¬f, T).
        let (nf, ng) = (!f, !g);
        f = ng;
        g = nf;
    } else if g == NodeId::FALSE && h.index() < f.index() {
        // ite(f, F, h) = ite(¬h, F, ¬f).
        let (nf, nh) = (!f, !h);
        f = nh;
        h = nf;
    } else if h == !g && !g.is_terminal() && g.index() < f.index() {
        // XOR-ish: ite(f, g, ¬g) = ite(g, f, ¬f).
        let (of, og) = (f, g);
        f = og;
        g = of;
        h = !of;
    }
    // Canonical polarity: regular f (swap branches), then regular g
    // (complement both branches and the output).
    if f.is_complemented() {
        f = !f;
        std::mem::swap(&mut g, &mut h);
    }
    let neg = g.is_complemented();
    if neg {
        g = !g;
        h = !h;
    }
    Norm::Rec(f, g, h, neg)
}

impl BddManager {
    /// If-then-else: the universal ternary connective.
    ///
    /// Runs iteratively on an explicit stack (deep operand chains cannot
    /// overflow the call stack) and canonicalizes each triple — operand
    /// order *and* complement polarity — before the computed-cache
    /// lookup, so all equivalent phrasings of a query hit one entry.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[f, g, h], |m| m.ite_run(f, g, h))
    }

    fn ite_run(&mut self, f: NodeId, g: NodeId, h: NodeId) -> Result<NodeId, OutOfNodes> {
        // The work stacks live in the manager so the frequent small ITEs
        // (every xor/implies goes through here) reuse their allocations.
        let mut tasks = std::mem::take(&mut self.ite_tasks);
        let mut results = std::mem::take(&mut self.ite_results);
        tasks.push(IteFrame::Apply(f, g, h));
        let mut failed: Option<OutOfNodes> = None;
        while let Some(task) = tasks.pop() {
            match task {
                IteFrame::Apply(f, g, h) => {
                    // Terminal cases.
                    if f == NodeId::TRUE {
                        results.push(g);
                        continue;
                    }
                    if f == NodeId::FALSE {
                        results.push(h);
                        continue;
                    }
                    let (f, g, h, neg) = match normalize_ite(f, g, h) {
                        Norm::Done(r) => {
                            results.push(r);
                            continue;
                        }
                        Norm::Rec(f, g, h, neg) => (f, g, h, neg),
                    };
                    if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
                        results.push(if neg { !r } else { r });
                        continue;
                    }
                    let fg = self.upper_var(self.var_of(f), self.var_of(g));
                    let v = self.upper_var(fg, self.var_of(h));
                    let (f0, f1) = self.cofactors(f, v);
                    let (g0, g1) = self.cofactors(g, v);
                    let (h0, h1) = self.cofactors(h, v);
                    // LIFO: the lo-branch Apply runs first and pushes its
                    // result below the hi-branch's.
                    tasks.push(IteFrame::Reduce { v, key: (f, g, h), neg });
                    tasks.push(IteFrame::Apply(f1, g1, h1));
                    tasks.push(IteFrame::Apply(f0, g0, h0));
                }
                IteFrame::Reduce { v, key, neg } => {
                    let hi = results.pop().expect("hi cofactor result"); // lint: allow
                    let lo = results.pop().expect("lo cofactor result"); // lint: allow
                    match self.mk(v, lo, hi) {
                        Ok(r) => {
                            self.ite_cache.insert(key, r);
                            results.push(if neg { !r } else { r });
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            }
        }
        let outcome = match failed {
            Some(e) => Err(e),
            None => {
                debug_assert_eq!(results.len(), 1);
                Ok(results.pop().expect("final ITE result")) // lint: allow
            }
        };
        tasks.clear();
        results.clear();
        self.ite_tasks = tasks;
        self.ite_results = results;
        outcome
    }

    /// The textbook recursive ITE without argument normalization or the
    /// shared computed cache — the semantic reference the fast path is
    /// property-tested against (it never folds complemented triples, so
    /// it pins the complement-edge canonicalization too). Not part of
    /// the public API.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted.
    #[doc(hidden)]
    pub fn ite_reference(
        &mut self,
        f: NodeId,
        g: NodeId,
        h: NodeId,
    ) -> Result<NodeId, OutOfNodes> {
        let mut memo = FxHashMap::default();
        self.ite_reference_rec(f, g, h, &mut memo)
    }

    fn ite_reference_rec(
        &mut self,
        f: NodeId,
        g: NodeId,
        h: NodeId,
        memo: &mut FxHashMap<(NodeId, NodeId, NodeId), NodeId>,
    ) -> Result<NodeId, OutOfNodes> {
        if f == NodeId::TRUE {
            return Ok(g);
        }
        if f == NodeId::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return Ok(f);
        }
        if let Some(&r) = memo.get(&(f, g, h)) {
            return Ok(r);
        }
        let fg = self.upper_var(self.var_of(f), self.var_of(g));
        let v = self.upper_var(fg, self.var_of(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite_reference_rec(f0, g0, h0, memo)?;
        let hi = self.ite_reference_rec(f1, g1, h1, memo)?;
        let r = self.mk(v, lo, hi)?;
        memo.insert((f, g, h), r);
        Ok(r)
    }

    /// Of two variable ids, the one whose **level** is nearer the root in
    /// the current order — the recursion variable of a binary apply. Var
    /// ids are only order surrogates under the identity order; every
    /// top-variable pick must go through levels because an adopted
    /// order permutes them. (`TERMINAL_VAR` maps to level `u32::MAX`, so
    /// terminals lose against any decision variable.)
    #[inline]
    fn upper_var(&self, a: u32, b: u32) -> u32 {
        if self.level_of(a) <= self.level_of(b) {
            a
        } else {
            b
        }
    }

    /// Cofactors of `n` with respect to variable `v` (which must be at or
    /// above `n`'s top variable in the current order). Complement tags
    /// propagate to the cofactors.
    fn cofactors(&self, n: NodeId, v: u32) -> (NodeId, NodeId) {
        if self.var_of(n) == v {
            (self.lo(n), self.hi(n))
        } else {
            (n, n)
        }
    }

    /// Negation: with complement edges this is a tag-bit flip — O(1), no
    /// allocation, cannot fail, and `f` and `¬f` share every node.
    pub fn not(&self, f: NodeId) -> NodeId {
        !f
    }

    /// Conjunction. Specialized binary apply: the generic ITE would model
    /// this as `ite(f, g, FALSE)`, paying three-way cofactoring and frame
    /// bookkeeping on the hottest operation in image computation.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[f, g], |m| m.and_rec(f, g))
    }

    fn and_rec(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        if f == NodeId::TRUE {
            return Ok(g);
        }
        if g == NodeId::TRUE {
            return Ok(f);
        }
        if f == NodeId::FALSE || g == NodeId::FALSE {
            return Ok(NodeId::FALSE);
        }
        if f == g {
            return Ok(f);
        }
        if f == !g {
            return Ok(NodeId::FALSE);
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.and_cache.get(&key) {
            return Ok(r);
        }
        let v = self.upper_var(self.var_of(f), self.var_of(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.and_rec(f0, g0)?;
        let hi = self.and_rec(f1, g1)?;
        let r = self.mk(v, lo, hi)?;
        self.and_cache.insert(key, r);
        Ok(r)
    }

    /// Internal disjunction via De Morgan — three O(1) complements
    /// around the AND apply, sharing its computed cache.
    fn or_rec(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        Ok(!self.and_rec(!f, !g)?)
    }

    /// Disjunction: `¬(¬f ∧ ¬g)`; the complements are free, so this
    /// shares the AND cache instead of keeping its own.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[f, g], |m| m.or_rec(f, g))
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        self.ite(f, !g, g)
    }

    /// Equivalence: the free complement of [`BddManager::xor`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn xnor(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        Ok(!self.xor(f, g)?)
    }

    /// Difference `f ∧ ¬g` — the frontier-minus-reached step of image
    /// computation. With complement edges the complement of `g` is free,
    /// so this is a plain AND (one cache, no separate difference cache,
    /// and no materialized complement of a multi-million-node set).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn and_not(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        self.and(f, !g)
    }

    /// True iff `f ∧ g` is satisfiable, decided by pure traversal: no
    /// nodes are built and no quota is consumed, unlike testing
    /// `and(f, g) != FALSE`. Relies on the complement-edge invariant
    /// that every non-constant function is both satisfiable and
    /// refutable.
    pub fn intersects(&self, f: NodeId, g: NodeId) -> bool {
        fn go(
            m: &BddManager,
            f: NodeId,
            g: NodeId,
            seen: &mut crate::hash::FxHashSet<(NodeId, NodeId)>,
        ) -> bool {
            if f == NodeId::FALSE || g == NodeId::FALSE {
                return false;
            }
            if f == NodeId::TRUE || g == NodeId::TRUE {
                // The other operand is non-FALSE, hence satisfiable.
                return true;
            }
            if f == !g {
                return false; // disjoint by construction
            }
            if f == g {
                return true; // non-constant, hence satisfiable
            }
            if !seen.insert((f, g)) {
                return false; // already explored, found nothing
            }
            let v = m.upper_var(m.var_of(f), m.var_of(g));
            let (f0, f1) = m.cofactors(f, v);
            let (g0, g1) = m.cofactors(g, v);
            go(m, f0, g0, seen) || go(m, f1, g1, seen)
        }
        let mut seen = crate::hash::FxHashSet::default();
        go(self, f, g, &mut seen)
    }

    /// Implication `f -> g`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> Result<NodeId, OutOfNodes> {
        self.ite(f, g, NodeId::TRUE)
    }

    /// Checks `f -> g` is a tautology without building the implication
    /// (may still allocate in caches).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn implies_check(&mut self, f: NodeId, g: NodeId) -> Result<bool, OutOfNodes> {
        Ok(self.and(f, !g)? == NodeId::FALSE)
    }

    /// Builds the positive cube of the given variables (sorted by their
    /// current level internally), for use with [`BddManager::exists`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn cube(&mut self, vars: &[u32]) -> Result<NodeId, OutOfNodes> {
        let mut sorted = vars.to_vec();
        // Build root-first in the *current* order, not by var id —
        // distinct vars have distinct levels, so dedup still works.
        sorted.sort_unstable_by_key(|&v| self.level_of(v));
        sorted.dedup();
        self.run_with_gc(&[], |m| {
            let mut acc = NodeId::TRUE;
            for &v in sorted.iter().rev() {
                acc = m.mk(v, NodeId::FALSE, acc)?;
            }
            Ok(acc)
        })
    }

    /// Existential quantification of every variable in `cube` from `f`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn exists(&mut self, f: NodeId, cube: NodeId) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[f, cube], |m| m.exists_rec(f, cube))
    }

    fn exists_rec(&mut self, f: NodeId, cube: NodeId) -> Result<NodeId, OutOfNodes> {
        if f.is_terminal() || cube == NodeId::TRUE {
            return Ok(f);
        }
        if let Some(&r) = self.exists_cache.get(&(f, cube)) {
            return Ok(r);
        }
        // Skip cube vars above f's top var (in the current order).
        let fv = self.var_of(f);
        let fl = self.level_of(fv);
        let mut c = cube;
        while !c.is_terminal() && self.level_of(self.var_of(c)) < fl {
            c = self.hi(c);
        }
        if c == NodeId::TRUE {
            return Ok(f);
        }
        let cv = self.var_of(c);
        let r = if fv == cv {
            let lo = self.exists_rec(self.lo(f), self.hi(c))?;
            let hi = self.exists_rec(self.hi(f), self.hi(c))?;
            self.or_rec(lo, hi)?
        } else {
            debug_assert!(fl < self.level_of(cv));
            let lo = self.exists_rec(self.lo(f), c)?;
            let hi = self.exists_rec(self.hi(f), c)?;
            self.mk(fv, lo, hi)?
        };
        self.exists_cache.insert((f, cube), r);
        Ok(r)
    }

    /// Universal quantification: `¬∃ cube. ¬f`, with both complements
    /// free.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn forall(&mut self, f: NodeId, cube: NodeId) -> Result<NodeId, OutOfNodes> {
        Ok(!self.exists(!f, cube)?)
    }

    /// Fused relational product `∃ cube. f ∧ g` — the inner loop of image
    /// computation. Avoids building the full conjunction before
    /// quantification.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn and_exists(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: NodeId,
    ) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[f, g, cube], |m| m.and_exists_rec(f, g, cube))
    }

    fn and_exists_rec(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: NodeId,
    ) -> Result<NodeId, OutOfNodes> {
        if f == NodeId::FALSE || g == NodeId::FALSE || f == !g {
            return Ok(NodeId::FALSE);
        }
        if f == NodeId::TRUE && g == NodeId::TRUE {
            return Ok(NodeId::TRUE);
        }
        if cube == NodeId::TRUE {
            return self.and_rec(f, g);
        }
        let key = (f.min(g), f.max(g), cube);
        if let Some(&r) = self.and_exists_cache.get(&key) {
            return Ok(r);
        }
        let v = self.upper_var(self.var_of(f), self.var_of(g));
        let vl = self.level_of(v);
        // Advance the cube to v's level.
        let mut c = cube;
        while !c.is_terminal() && self.level_of(self.var_of(c)) < vl {
            c = self.hi(c);
        }
        let r = if !c.is_terminal() && self.var_of(c) == v {
            // Quantified variable: OR of the two cofactored products.
            let (f0, f1) = self.cofactors(f, v);
            let (g0, g1) = self.cofactors(g, v);
            let lo = self.and_exists_rec(f0, g0, self.hi(c))?;
            if lo == NodeId::TRUE {
                NodeId::TRUE // short-circuit: OR with anything is TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, self.hi(c))?;
                self.or_rec(lo, hi)?
            }
        } else {
            let (f0, f1) = self.cofactors(f, v);
            let (g0, g1) = self.cofactors(g, v);
            let lo = self.and_exists_rec(f0, g0, c)?;
            let hi = self.and_exists_rec(f1, g1, c)?;
            self.mk(v, lo, hi)?
        };
        self.and_exists_cache.insert(key, r);
        Ok(r)
    }

    /// Renames variables by an **order-preserving** mapping: `map[i]` is a
    /// `(from, to)` pair; variables not mentioned are unchanged. The
    /// mapping must preserve relative variable order — under an adopted
    /// order that means relative **level** order: sources sorted by
    /// their current level must map to targets in ascending level order.
    /// (The mc engines' static order keeps each current/next pair
    /// adjacent precisely so their rename maps stay order-preserving.)
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the mapping is not order-preserving,
    /// which would silently corrupt the diagram.
    pub fn rename(&mut self, f: NodeId, map: &[(u32, u32)]) -> Result<NodeId, OutOfNodes> {
        #[cfg(debug_assertions)]
        {
            let mut sorted = map.to_vec();
            sorted.sort_unstable_by_key(|&(from, _)| self.level_of(from));
            for w in sorted.windows(2) {
                debug_assert!(
                    self.level_of(w[0].1) < self.level_of(w[1].1),
                    "rename mapping must be order-preserving: {:?}",
                    map
                );
            }
        }
        // Hash the map for the cache key.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (a, b) in map {
            h = (h ^ (*a as u64)).wrapping_mul(0x1000_0000_01b3);
            h = (h ^ (*b as u64)).wrapping_mul(0x1000_0000_01b3);
        }
        self.run_with_gc(&[f], |m| m.rename_rec(f, map, h))
    }

    fn rename_rec(
        &mut self,
        f: NodeId,
        map: &[(u32, u32)],
        map_hash: u64,
    ) -> Result<NodeId, OutOfNodes> {
        if f.is_terminal() {
            return Ok(f);
        }
        // Renaming commutes with complement: recurse on the regular edge
        // so f and ¬f share one cache entry, and re-apply the tag.
        if f.is_complemented() {
            return Ok(!self.rename_rec(!f, map, map_hash)?);
        }
        if let Some(&r) = self.rename_cache.get(&(f, map_hash)) {
            return Ok(r);
        }
        let v = self.var_of(f);
        let nv = map
            .iter()
            .find(|(from, _)| *from == v)
            .map(|(_, to)| *to)
            .unwrap_or(v);
        let lo = self.rename_rec(self.lo(f), map, map_hash)?;
        let hi = self.rename_rec(self.hi(f), map, map_hash)?;
        let r = self.mk(nv, lo, hi)?;
        self.rename_cache.insert((f, map_hash), r);
        Ok(r)
    }

    /// Restricts variable `v` to a constant in `f` (Shannon cofactor).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfNodes`] when the quota is exhausted even after
    /// garbage collection.
    pub fn restrict(&mut self, f: NodeId, v: u32, value: bool) -> Result<NodeId, OutOfNodes> {
        self.run_with_gc(&[f], |m| m.restrict_rec(f, v, value))
    }

    fn restrict_rec(&mut self, f: NodeId, v: u32, value: bool) -> Result<NodeId, OutOfNodes> {
        if f.is_terminal() || self.level_of(self.var_of(f)) > self.level_of(v) {
            return Ok(f);
        }
        if self.var_of(f) == v {
            return Ok(if value { self.hi(f) } else { self.lo(f) });
        }
        let lo = self.restrict_rec(self.lo(f), v, value)?;
        let hi = self.restrict_rec(self.hi(f), v, value)?;
        self.mk(self.var_of(f), lo, hi)
    }

    /// Returns one satisfying assignment of `f` as `(var, value)` pairs for
    /// the variables on the chosen path, or `None` if `f` is false.
    /// Variables absent from the result are don't-cares.
    pub fn sat_one(&self, f: NodeId) -> Option<Vec<(u32, bool)>> {
        if f == NodeId::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut n = f;
        while !n.is_terminal() {
            let v = self.var_of(n);
            // Prefer the branch that reaches TRUE.
            if self.lo(n) != NodeId::FALSE {
                path.push((v, false));
                n = self.lo(n);
            } else {
                path.push((v, true));
                n = self.hi(n);
            }
        }
        debug_assert_eq!(n, NodeId::TRUE);
        Some(path)
    }

    /// The support (set of variables) of `f`, ascending. `f` and `¬f`
    /// have the same support, so traversal ignores complement tags.
    pub fn support(&self, f: NodeId) -> Vec<u32> {
        let mut seen: crate::hash::FxHashSet<u32> = crate::hash::FxHashSet::default();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.index()) {
                continue;
            }
            vars.insert(self.var_of(n));
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        vars.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(1 << 20)
    }

    #[test]
    fn boolean_laws() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let ab = m.and(a, b).unwrap();
        let ba = m.and(b, a).unwrap();
        assert_eq!(ab, ba, "commutativity");
        let na = m.not(a);
        let nna = m.not(na);
        assert_eq!(a, nna, "double negation");
        let a_or_na = m.or(a, na).unwrap();
        assert_eq!(a_or_na, NodeId::TRUE, "excluded middle");
        let a_and_na = m.and(a, na).unwrap();
        assert_eq!(a_and_na, NodeId::FALSE, "contradiction");
        // De Morgan
        let nab = m.not(ab);
        let nb = m.not(b);
        let na_or_nb = m.or(na, nb).unwrap();
        assert_eq!(nab, na_or_nb);
    }

    #[test]
    fn complement_edges_make_negation_free() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.xor(a, b).unwrap();
        let nodes_before = m.num_nodes();
        let nf = m.not(f);
        assert_eq!(m.num_nodes(), nodes_before, "not must not allocate");
        assert_eq!(nf, !f);
        assert_eq!(m.size(f), m.size(nf), "f and ¬f share every node");
        for asg in 0..4u32 {
            let want = !m.eval(f, &|v| asg >> v & 1 == 1);
            assert_eq!(m.eval(nf, &|v| asg >> v & 1 == 1), want);
        }
    }

    #[test]
    fn xor_xnor() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let x = m.xor(a, b).unwrap();
        let xn = m.xnor(a, b).unwrap();
        let nx = m.not(x);
        assert_eq!(xn, nx);
        for (av, bv, ev) in [(false, false, false), (false, true, true), (true, false, true), (true, true, false)] {
            assert_eq!(m.eval(x, &|v| if v == 0 { av } else { bv }), ev);
        }
    }

    #[test]
    fn quantification() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let ab = m.and(a, b).unwrap();
        let cube_a = m.cube(&[0]).unwrap();
        let ex = m.exists(ab, cube_a).unwrap();
        assert_eq!(ex, b, "∃a. a∧b == b");
        let fa = m.forall(ab, cube_a).unwrap();
        assert_eq!(fa, NodeId::FALSE, "∀a. a∧b == false");
        let a_or_b = m.or(a, b).unwrap();
        let fa2 = m.forall(a_or_b, cube_a).unwrap();
        assert_eq!(fa2, b, "∀a. a∨b == b");
    }

    #[test]
    fn exists_multiple_vars() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let bc = m.and(b, c).unwrap();
        let f = m.and(a, bc).unwrap();
        let cube = m.cube(&[0, 2]).unwrap();
        let ex = m.exists(f, cube).unwrap();
        assert_eq!(ex, b);
    }

    #[test]
    fn exists_on_complemented_operand() {
        // ∃ does NOT commute with complement; the cache must keep
        // f and ¬f apart.
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let ab = m.and(a, b).unwrap();
        let cube_a = m.cube(&[0]).unwrap();
        let e1 = m.exists(ab, cube_a).unwrap();
        assert_eq!(e1, b);
        let e2 = m.exists(!ab, cube_a).unwrap();
        assert_eq!(e2, NodeId::TRUE, "∃a. ¬(a∧b) is a tautology");
    }

    #[test]
    fn and_exists_equals_sequential() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let f = m.or(a, c).unwrap();
        let g = m.xor(b, c).unwrap();
        let cube = m.cube(&[2]).unwrap();
        let fused = m.and_exists(f, g, cube).unwrap();
        let conj = m.and(f, g).unwrap();
        let seq = m.exists(conj, cube).unwrap();
        assert_eq!(fused, seq);
    }

    #[test]
    fn and_not_equals_composed_form() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let f = m.or(a, b).unwrap();
        let g = m.xor(b, c).unwrap();
        let fused = m.and_not(f, g).unwrap();
        let ng = m.not(g);
        let composed = m.and(f, ng).unwrap();
        assert_eq!(fused, composed);
        assert_eq!(m.and_not(f, f).unwrap(), NodeId::FALSE);
        assert_eq!(m.and_not(f, NodeId::FALSE).unwrap(), f);
        assert_eq!(m.and_not(f, NodeId::TRUE).unwrap(), NodeId::FALSE);
        let nf = m.not(f);
        assert_eq!(m.and_not(NodeId::TRUE, f).unwrap(), nf);
    }

    #[test]
    fn intersects_agrees_with_and() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let na = m.not(a);
        let ab = m.and(a, b).unwrap();
        assert!(m.intersects(a, b));
        assert!(m.intersects(ab, a));
        assert!(!m.intersects(a, na), "disjoint cofactor spaces");
        assert!(!m.intersects(ab, NodeId::FALSE));
        assert!(m.intersects(NodeId::TRUE, b));
        let nodes_before = m.num_nodes();
        assert!(m.intersects(a, b));
        assert_eq!(m.num_nodes(), nodes_before, "intersects must not allocate");
    }

    #[test]
    fn rename_shifts_vars() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(2).unwrap();
        let f = m.and(a, b).unwrap();
        // 0->1, 2->3 (order preserving)
        let g = m.rename(f, &[(0, 1), (2, 3)]).unwrap();
        let a1 = m.var(1).unwrap();
        let b3 = m.var(3).unwrap();
        let expect = m.and(a1, b3).unwrap();
        assert_eq!(g, expect);
        // Complement commutes with renaming.
        let gn = m.rename(!f, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(gn, !expect);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.xor(a, b).unwrap();
        let f_a1 = m.restrict(f, 0, true).unwrap();
        let nb = m.not(b);
        assert_eq!(f_a1, nb);
        let f_a0 = m.restrict(f, 0, false).unwrap();
        assert_eq!(f_a0, b);
    }

    #[test]
    fn sat_one_finds_assignment() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let nb = m.not(b);
        let f = m.and(a, nb).unwrap();
        let sol = m.sat_one(f).unwrap();
        assert!(sol.contains(&(0, true)));
        assert!(sol.contains(&(1, false)));
        assert_eq!(m.sat_one(NodeId::FALSE), None);
        assert_eq!(m.sat_one(NodeId::TRUE), Some(vec![]));
    }

    #[test]
    fn support_lists_vars() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let c = m.var(5).unwrap();
        let f = m.xor(a, c).unwrap();
        assert_eq!(m.support(f), vec![0, 5]);
        assert_eq!(m.support(!f), vec![0, 5]);
        assert!(m.support(NodeId::TRUE).is_empty());
    }

    #[test]
    fn implies_check_works() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let ab = m.and(a, b).unwrap();
        assert!(m.implies_check(ab, a).unwrap());
        assert!(!m.implies_check(a, ab).unwrap());
    }

    #[test]
    fn quota_propagates_through_ops() {
        let mut m = BddManager::new(8);
        let mut f = m.var(0).unwrap();
        let mut overflowed = false;
        for v in 1..20 {
            let x = match m.var(v) {
                Ok(x) => x,
                Err(_) => {
                    overflowed = true;
                    break;
                }
            };
            match m.xor(f, x) {
                Ok(g) => f = g,
                Err(_) => {
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "tiny quota must overflow");
    }

    /// Property-style check: BDD of a random 3-var function equals its
    /// truth table, for all 256 functions.
    #[test]
    fn all_three_var_functions() {
        for tt in 0u32..256 {
            let mut m = BddManager::new(1 << 16);
            // Build f = OR over minterms.
            let mut f = NodeId::FALSE;
            for row in 0..8u32 {
                if tt >> row & 1 == 1 {
                    let mut term = NodeId::TRUE;
                    for v in 0..3u32 {
                        let lit = if row >> v & 1 == 1 {
                            m.var(v).unwrap()
                        } else {
                            m.nvar(v).unwrap()
                        };
                        term = m.and(term, lit).unwrap();
                    }
                    f = m.or(f, term).unwrap();
                }
            }
            for row in 0..8u32 {
                let want = tt >> row & 1 == 1;
                let got = m.eval(f, &|v| row >> v & 1 == 1);
                assert_eq!(got, want, "tt={tt:08b} row={row}");
            }
            assert_eq!(m.count_sat(f, 3) as u32, tt.count_ones());
        }
    }
}
