//! Cross-manager BDD transfer: serialize one function out of a
//! [`BddManager`] as a compact, manager-independent node list and
//! rebuild it — complement edges, sharing and all — inside another
//! manager.
//!
//! This is the checkpoint format of the reachability engines: a
//! suspended run exports its reached and frontier sets (the frontier as
//! a [`DeltaBdd`] against the reached export) and the resumed run
//! imports them into a fresh manager. An [`ExportedBdd`] owns no
//! manager references and is `Send`; the campaign codec writes it to
//! disk.
//!
//! The format is a *level-ordered* list: nodes sorted by the source
//! manager's variable level (an order installed with
//! [`BddManager::adopt_order`] makes level ≠ var id), deepest level
//! first. Since a ROBDD parent's level is strictly above its children's,
//! every node's children precede it in the list, so [`import`] is a
//! single forward pass with no fixups. Edges are stored exactly as the
//! manager holds them (complement tag in bit 0, regular then-edges per
//! the canonical form), so a same-order roundtrip preserves the node
//! count, not just the function.
//!
//! Every export also carries the source order
//! ([`ExportedBdd::source_order`]): a fresh importing manager can adopt
//! it up front ([`BddManager::adopt_order`]) to rebuild the cone at its
//! exported size. When the destination's order differs — an export from
//! an `adopt_order`ed manager meeting a natural-order one, or a
//! checkpoint read back from disk — [`import`] stays correct anyway:
//! each node is rebuilt with the fast `mk` path only while the
//! destination agrees the parent sits above its children, and falls
//! back to a full ITE rebuild for the nodes where the orders disagree.

use crate::hash::FxHashMap;
use crate::manager::{BddManager, NodeId, OutOfNodes};
use std::fmt;

/// A reference inside an [`ExportedBdd`]: bit 0 is the complement tag,
/// the remaining bits select the target — `0` is the shared terminal
/// node, `k > 0` is entry `k - 1` of the node list.
///
/// The encoding deliberately mirrors [`NodeId`] (complement in bit 0,
/// `TRUE`/`FALSE` as the two terminal edges) so translation in both
/// directions is a shift and a tag transplant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SlotRef(u32);

impl SlotRef {
    fn to_slot(slot: usize, complemented: bool) -> SlotRef {
        SlotRef(((slot as u32 + 1) << 1) | complemented as u32)
    }

    fn is_terminal(self) -> bool {
        self.0 < 2
    }

    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    fn slot(self) -> usize {
        (self.0 >> 1) as usize - 1
    }
}

/// One exported node: variable level plus its two child references
/// (`hi` is always regular, mirroring the manager's canonical form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ExportedNode {
    var: u32,
    lo: SlotRef,
    hi: SlotRef,
}

/// A manager-independent serialization of one BDD function, produced by
/// [`export`] and consumed by [`import`].
///
/// Owns plain data only (no manager references), so it outlives the
/// manager it came from — the portfolio scheduler's reachability
/// checkpoints are made of it. Equality is structural (same node list,
/// same root), which two exports of the same function from
/// identically-evolved managers satisfy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExportedBdd {
    /// Level-ordered (deepest variable first): children precede parents.
    nodes: Vec<ExportedNode>,
    root: SlotRef,
    /// The source manager's variable order at export time
    /// (`level2var`: entry `l` is the variable sitting at level `l`).
    order: Vec<u32>,
}

impl ExportedBdd {
    /// Number of nodes the function will occupy in any manager,
    /// terminal included — the same figure [`BddManager::size`] reports
    /// for the root on either side of a transfer.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + 1
    }

    /// True if the exported function is a constant.
    pub fn is_constant(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The source manager's variable order at export time, root level
    /// first. A fresh receiving manager can
    /// [`BddManager::adopt_order`] this before [`import`] to rebuild
    /// the cone at exactly its exported size; a receiver with live
    /// state can compare it against its own
    /// [`BddManager::current_order`] to predict whether the import is
    /// a pure `mk` replay or has to pay ITE rebuilds.
    pub fn source_order(&self) -> &[u32] {
        &self.order
    }

    /// The node list as raw `(var, lo, hi)` triples, children first.
    /// `lo`/`hi` are the wire encoding of the internal references (bit 0
    /// is the complement tag, `0`/`1` the terminal edges, `k > 0` entry
    /// `k - 1` of this list) — the representation an external serializer
    /// ships and feeds back through [`ExportedBdd::from_raw_parts`].
    pub fn raw_nodes(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.nodes.iter().map(|n| (n.var, n.lo.0, n.hi.0))
    }

    /// The root reference in the same raw encoding as
    /// [`ExportedBdd::raw_nodes`] children.
    pub fn raw_root(&self) -> u32 {
        self.root.0
    }

    /// Rebuilds an export from raw parts (the inverse of
    /// [`ExportedBdd::raw_nodes`] + [`ExportedBdd::raw_root`] +
    /// [`ExportedBdd::source_order`]), validating the structural
    /// invariant [`import`] relies on: every reference is a terminal or
    /// targets an *earlier* list slot, so a single forward pass can
    /// never index out of bounds. Checked here — not trusted — because
    /// the raw parts typically arrive from disk.
    ///
    /// # Errors
    ///
    /// Returns a [`TransferFormatError`] naming the offending reference
    /// when the topology is malformed; a deserializer surfaces it as a
    /// corrupt-file error instead of panicking mid-import.
    pub fn from_raw_parts(
        nodes: Vec<(u32, u32, u32)>,
        root: u32,
        order: Vec<u32>,
    ) -> Result<ExportedBdd, TransferFormatError> {
        for (k, (_, lo, hi)) in nodes.iter().enumerate() {
            check_ref(*lo, k, Some(k))?;
            check_ref(*hi, k, Some(k))?;
        }
        check_ref(root, nodes.len(), None)?;
        let nodes = nodes
            .into_iter()
            .map(|(var, lo, hi)| ExportedNode { var, lo: SlotRef(lo), hi: SlotRef(hi) })
            .collect();
        Ok(ExportedBdd { nodes, root: SlotRef(root), order })
    }
}

/// A structural defect in raw transfer parts fed to
/// [`ExportedBdd::from_raw_parts`] or [`DeltaBdd::from_raw_parts`]:
/// a reference that escapes the slot space it is allowed to address.
/// Deserializers turn this into a typed corrupt-file error rather than
/// letting a malformed node list panic inside [`import`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferFormatError {
    /// The root reference targets a slot outside the node list.
    BadRootRef {
        /// The offending raw reference.
        reference: u32,
        /// Number of addressable slots.
        slots: usize,
    },
    /// A child reference of node `node` targets a slot at or beyond its
    /// own position (references must point strictly backwards) or
    /// outside the combined slot space.
    BadChildRef {
        /// List position of the node holding the bad reference.
        node: usize,
        /// The offending raw reference.
        reference: u32,
        /// Number of slots that reference was allowed to address.
        slots: usize,
    },
}

impl fmt::Display for TransferFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferFormatError::BadRootRef { reference, slots } => {
                write!(f, "root reference {reference:#x} escapes {slots} slot(s)")
            }
            TransferFormatError::BadChildRef { node, reference, slots } => {
                write!(f, "node {node}: child reference {reference:#x} escapes {slots} slot(s)")
            }
        }
    }
}

impl std::error::Error for TransferFormatError {}

/// Validates one raw reference against the number of slots it may
/// address (`limit`); `node` is `Some` for a child edge, `None` for the
/// root.
fn check_ref(r: u32, limit: usize, node: Option<usize>) -> Result<(), TransferFormatError> {
    let ok = r < 2 || ((r >> 1) as usize - 1) < limit;
    if ok {
        return Ok(());
    }
    Err(match node {
        Some(node) => TransferFormatError::BadChildRef { node, reference: r, slots: limit },
        None => TransferFormatError::BadRootRef { reference: r, slots: limit },
    })
}

/// Serializes the function `f` of `src` into a manager-independent
/// [`ExportedBdd`].
///
/// Pure read: allocates nothing in `src` and cannot fail. The export
/// enumerates only `f`'s cone (not the whole table) and keeps all
/// sharing: each reachable node appears exactly once, complement tags
/// ride on the edges.
pub fn export(src: &BddManager, f: NodeId) -> ExportedBdd {
    if f.is_terminal() {
        return ExportedBdd {
            nodes: Vec::new(),
            root: SlotRef(f.0), // terminal encodings coincide
            order: src.current_order(),
        };
    }
    // Collect the reachable node indices (complement tags ignored: f and
    // ¬f share every node).
    let mut indices: Vec<u32> = Vec::new();
    let mut seen: FxHashMap<u32, usize> = FxHashMap::default();
    let mut stack = vec![f.index()];
    while let Some(i) = stack.pop() {
        if seen.contains_key(&i) {
            continue;
        }
        seen.insert(i, usize::MAX); // slot assigned after sorting
        indices.push(i);
        let node = src.node(i);
        if !node.lo.is_terminal() {
            stack.push(node.lo.index());
        }
        if !node.hi.is_terminal() {
            stack.push(node.hi.index());
        }
    }
    // Level order (the source's level, not the var id — they diverge
    // under an adopted order), deepest first; ties broken by source
    // index so the layout is deterministic for a given manager state.
    indices.sort_unstable_by(|a, b| {
        let (la, lb) = (src.level_of(src.node(*a).var), src.level_of(src.node(*b).var));
        lb.cmp(&la).then(a.cmp(b))
    });
    for (slot, i) in indices.iter().enumerate() {
        seen.insert(*i, slot);
    }
    let translate = |edge: NodeId| -> SlotRef {
        if edge.is_terminal() {
            SlotRef(edge.0)
        } else {
            SlotRef::to_slot(seen[&edge.index()], edge.is_complemented())
        }
    };
    let nodes = indices
        .iter()
        .map(|i| {
            let node = src.node(*i);
            ExportedNode { var: node.var, lo: translate(node.lo), hi: translate(node.hi) }
        })
        .collect();
    ExportedBdd { nodes, root: translate(f), order: src.current_order() }
}

/// Rebuilds one exported node inside `dst` from already-resolved
/// children. Fast path: when `dst`'s order agrees that the node's
/// variable sits above both children, the stored shape replays with a
/// single `mk`. When the orders disagree (the destination's order is
/// not the export's), the node is re-expressed as `ite(var, hi, lo)`,
/// which re-normalizes that piece of the cone to `dst`'s order. The
/// caller keeps `lo`/`hi` protected, so the intermediate variable node
/// needs no registration of its own.
fn build_node(
    dst: &mut BddManager,
    n: ExportedNode,
    lo: NodeId,
    hi: NodeId,
) -> Result<NodeId, OutOfNodes> {
    let vl = dst.level_of(n.var);
    let above = |e: NodeId| e.is_terminal() || vl < dst.level_of(dst.var_of(e));
    if above(lo) && above(hi) {
        dst.run_with_gc(&[lo, hi], |m| m.mk(n.var, lo, hi))
    } else {
        let v = dst.var(n.var)?;
        dst.ite(v, hi, lo)
    }
}

/// Rebuilds an exported function inside `dst`, which may be a different
/// manager in any state (fresh or mid-computation) as long as it uses
/// the same variable numbering. The two managers'
/// variable *orders* need not agree: nodes whose placement `dst`
/// disputes are rebuilt through ITE (see [`ExportedBdd::source_order`]
/// for how a fresh receiver can avoid even that).
///
/// The import is memoized per list slot — shared subgraphs are built
/// once — and the returned root arrives **rooted**: it carries one
/// [`BddManager::protect`] registration that the caller owns and must
/// eventually release with [`BddManager::unprotect`] (or hand off with
/// [`BddManager::reroot`]). Intermediate nodes are protected only for
/// the duration of the import, so a quota-pressure collection during or
/// after the call cannot reclaim the result or its cone but leaves no
/// stray registrations behind.
///
/// # Errors
///
/// Returns [`OutOfNodes`] if `dst`'s quota is exhausted even after
/// garbage collection; no root registrations leak on this path.
pub fn import(exported: &ExportedBdd, dst: &mut BddManager) -> Result<NodeId, OutOfNodes> {
    let resolve = |memo: &[NodeId], r: SlotRef| -> NodeId {
        if r.is_terminal() {
            NodeId(r.0)
        } else {
            let base = memo[r.slot()];
            if r.is_complemented() {
                !base
            } else {
                base
            }
        }
    };
    // Every imported node is protected until the end of the import so a
    // collection triggered by a later `mk` cannot reclaim the partially
    // rebuilt cone (and the first protect arms automatic GC in `dst`).
    let mut memo: Vec<NodeId> = Vec::with_capacity(exported.nodes.len());
    let mut failed: Option<OutOfNodes> = None;
    for n in &exported.nodes {
        let lo = resolve(&memo, n.lo);
        let hi = resolve(&memo, n.hi);
        match build_node(dst, *n, lo, hi) {
            Ok(r) => {
                dst.protect(r);
                memo.push(r);
            }
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    // Root the result before the memo registrations are released, so no
    // collection can take it before the caller owns it.
    let out = match failed {
        None => {
            let root = resolve(&memo, exported.root);
            dst.protect(root);
            Ok(root)
        }
        Some(e) => Err(e),
    };
    for r in &memo {
        dst.unprotect(*r);
    }
    out
}

/// A delta-encoded serialization of one BDD function against a
/// previously-exported baseline: only the nodes *not* already present
/// in the baseline's cone are shipped; everything shared is referenced
/// by baseline slot. Produced by [`export_delta`], consumed by
/// [`import_delta`] (which needs the same baseline on the receiving
/// side).
///
/// Child references select a **combined slot space**: slots `0 ..
/// baseline_len` are the baseline's node list, slots from
/// `baseline_len` up are this delta's own nodes. Like [`ExportedBdd`]
/// it owns plain data only and is `Send`; equality is structural.
///
/// This is the frontier format of reachability checkpoints: the
/// frontier is a subset of the reached set, so encoded against the
/// reached export it ships only the nodes the frontier's cone adds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaBdd {
    /// Length of the baseline node list this delta's references assume.
    baseline_len: usize,
    /// The new nodes only; children precede parents, and child refs may
    /// point into the baseline section of the combined slot space.
    nodes: Vec<ExportedNode>,
    root: SlotRef,
    /// The source manager's variable order when the delta was taken
    /// (same convention as [`ExportedBdd::source_order`]).
    order: Vec<u32>,
}

impl DeltaBdd {
    /// The source manager's variable order when the delta was taken,
    /// root level first. It differs from the baseline's order when the
    /// two came from differently ordered managers; [`import_delta`]
    /// handles that with the same per-node order checks as [`import`].
    pub fn source_order(&self) -> &[u32] {
        &self.order
    }

    /// Number of nodes actually shipped (the baseline-overlap savings:
    /// a full [`export`] of the same function ships its whole cone).
    pub fn delta_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Length of the baseline node list this delta was encoded against;
    /// [`import_delta`] requires a baseline of exactly this length.
    pub fn baseline_len(&self) -> usize {
        self.baseline_len
    }

    /// The shipped node list as raw `(var, lo, hi)` triples — same wire
    /// encoding as [`ExportedBdd::raw_nodes`], except references select
    /// the *combined* slot space (baseline slots first, then this
    /// list). Inverse: [`DeltaBdd::from_raw_parts`].
    pub fn raw_nodes(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.nodes.iter().map(|n| (n.var, n.lo.0, n.hi.0))
    }

    /// The root reference in the combined-slot-space raw encoding.
    pub fn raw_root(&self) -> u32 {
        self.root.0
    }

    /// Rebuilds a delta from raw parts, validating that every reference
    /// stays inside the combined slot space and that delta-section
    /// references point strictly backwards — the invariant
    /// [`import_delta`] indexes by without further checks.
    ///
    /// # Errors
    ///
    /// Returns a [`TransferFormatError`] naming the offending reference
    /// when the topology is malformed.
    pub fn from_raw_parts(
        baseline_len: usize,
        nodes: Vec<(u32, u32, u32)>,
        root: u32,
        order: Vec<u32>,
    ) -> Result<DeltaBdd, TransferFormatError> {
        for (k, (_, lo, hi)) in nodes.iter().enumerate() {
            check_ref(*lo, baseline_len + k, Some(k))?;
            check_ref(*hi, baseline_len + k, Some(k))?;
        }
        check_ref(root, baseline_len + nodes.len(), None)?;
        let nodes = nodes
            .into_iter()
            .map(|(var, lo, hi)| ExportedNode { var, lo: SlotRef(lo), hi: SlotRef(hi) })
            .collect();
        Ok(DeltaBdd { baseline_len, nodes, root: SlotRef(root), order })
    }
}

/// Serializes `f` as a delta against a previously-exported baseline
/// cone: nodes of `f`'s cone that the baseline already carries are
/// referenced by baseline slot instead of being shipped again.
///
/// Pure read, like [`export`]: allocates nothing in `src` and cannot
/// fail. Baseline recognition is by structure — each baseline slot is
/// resolved bottom-up against `src`'s unique table, and slots whose
/// nodes no longer exist in `src` (or whose children don't) simply
/// fail to match, degrading gracefully toward a full export (an empty
/// or unrelated baseline yields a delta shipping the entire cone, and
/// `export_delta(src, f, &export(src, f))` ships zero nodes).
pub fn export_delta(src: &BddManager, f: NodeId, baseline: &ExportedBdd) -> DeltaBdd {
    let b = baseline.nodes.len();
    if f.is_terminal() {
        return DeltaBdd {
            baseline_len: b,
            nodes: Vec::new(),
            root: SlotRef(f.0),
            order: src.current_order(),
        };
    }
    // Forward pass: resolve baseline slots to src node ids where the
    // structure still exists (children precede parents, so each slot
    // only needs its children's resolutions).
    let mut resolved: Vec<Option<NodeId>> = Vec::with_capacity(b);
    let mut slot_of_index: FxHashMap<u32, usize> = FxHashMap::default();
    for (k, n) in baseline.nodes.iter().enumerate() {
        let child = |r: SlotRef| -> Option<NodeId> {
            if r.is_terminal() {
                Some(NodeId(r.0))
            } else {
                resolved[r.slot()].map(|id| if r.is_complemented() { !id } else { id })
            }
        };
        let id = match (child(n.lo), child(n.hi)) {
            (Some(lo), Some(hi)) => src.lookup(n.var, lo, hi),
            _ => None,
        };
        if let Some(id) = id {
            slot_of_index.insert(id.index(), k);
        }
        resolved.push(id);
    }
    // DFS of f's cone, stopping at baseline-matched nodes: only the
    // fresh remainder is collected.
    let mut indices: Vec<u32> = Vec::new();
    let mut seen: FxHashMap<u32, usize> = FxHashMap::default();
    if !slot_of_index.contains_key(&f.index()) {
        let mut stack = vec![f.index()];
        while let Some(i) = stack.pop() {
            if seen.contains_key(&i) || slot_of_index.contains_key(&i) {
                continue;
            }
            seen.insert(i, usize::MAX);
            indices.push(i);
            let node = src.node(i);
            if !node.lo.is_terminal() {
                stack.push(node.lo.index());
            }
            if !node.hi.is_terminal() {
                stack.push(node.hi.index());
            }
        }
    }
    // Same deterministic layout rule as `export` for the shipped part:
    // current source level, deepest first.
    indices.sort_unstable_by(|a, b| {
        let (la, lb) = (src.level_of(src.node(*a).var), src.level_of(src.node(*b).var));
        lb.cmp(&la).then(a.cmp(b))
    });
    for (slot, i) in indices.iter().enumerate() {
        seen.insert(*i, slot);
    }
    let translate = |edge: NodeId| -> SlotRef {
        if edge.is_terminal() {
            SlotRef(edge.0)
        } else if let Some(&k) = slot_of_index.get(&edge.index()) {
            SlotRef::to_slot(k, edge.is_complemented())
        } else {
            SlotRef::to_slot(b + seen[&edge.index()], edge.is_complemented())
        }
    };
    let nodes = indices
        .iter()
        .map(|i| {
            let node = src.node(*i);
            ExportedNode { var: node.var, lo: translate(node.lo), hi: translate(node.hi) }
        })
        .collect();
    DeltaBdd { baseline_len: b, nodes, root: translate(f), order: src.current_order() }
}

/// Rebuilds a delta-encoded function inside `dst`, given the same
/// baseline the delta was encoded against. Only the baseline nodes the
/// delta actually references (transitively) are materialized — on the
/// common path those already exist in `dst` from a previous import and
/// hash-cons to the existing nodes.
///
/// Same contract as [`import`]: memoized per slot, and the returned
/// root arrives **rooted** (one [`BddManager::protect`] registration
/// the caller owns); intermediates are protected only for the duration
/// of the call.
///
/// # Errors
///
/// Returns [`OutOfNodes`] if `dst`'s quota is exhausted even after
/// garbage collection; no root registrations leak on this path.
///
/// # Panics
///
/// Panics if `baseline` is not of the length the delta was encoded
/// against.
pub fn import_delta(
    delta: &DeltaBdd,
    baseline: &ExportedBdd,
    dst: &mut BddManager,
) -> Result<NodeId, OutOfNodes> {
    assert_eq!(
        baseline.nodes.len(),
        delta.baseline_len,
        "import_delta against a baseline of the wrong shape"
    );
    let b = delta.baseline_len;
    // Mark the baseline slots the delta needs, transitively. Reverse
    // order makes one pass sufficient: a baseline parent is marked
    // before its (earlier-slot) children are visited.
    let mut needed = vec![false; b];
    let mark = |needed: &mut Vec<bool>, r: SlotRef| {
        if !r.is_terminal() && r.slot() < b {
            needed[r.slot()] = true;
        }
    };
    mark(&mut needed, delta.root);
    for n in &delta.nodes {
        mark(&mut needed, n.lo);
        mark(&mut needed, n.hi);
    }
    for k in (0..b).rev() {
        if needed[k] {
            let n = baseline.nodes[k];
            mark(&mut needed, n.lo);
            mark(&mut needed, n.hi);
        }
    }
    let resolve = |memo: &[Option<NodeId>], r: SlotRef| -> NodeId {
        if r.is_terminal() {
            NodeId(r.0)
        } else {
            let base = memo[r.slot()].expect("children precede parents"); // lint: allow
            if r.is_complemented() {
                !base
            } else {
                base
            }
        }
    };
    let mut memo: Vec<Option<NodeId>> = vec![None; b + delta.nodes.len()];
    let mut built: Vec<NodeId> = Vec::new();
    let mut failed: Option<OutOfNodes> = None;
    for k in 0..b + delta.nodes.len() {
        let n = if k < b {
            if !needed[k] {
                continue;
            }
            baseline.nodes[k]
        } else {
            delta.nodes[k - b]
        };
        let lo = resolve(&memo, n.lo);
        let hi = resolve(&memo, n.hi);
        match build_node(dst, n, lo, hi) {
            Ok(r) => {
                dst.protect(r);
                built.push(r);
                memo[k] = Some(r);
            }
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let out = match failed {
        None => {
            let root = resolve(&memo, delta.root);
            dst.protect(root);
            Ok(root)
        }
        Some(e) => Err(e),
    };
    for r in &built {
        dst.unprotect(*r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignments(nvars: u32) -> impl Iterator<Item = u32> {
        0..(1u32 << nvars)
    }

    /// xor chain over the given vars — linear with complement edges and
    /// heavy on complemented lo-edges, the interesting transfer case.
    fn xor_chain(m: &mut BddManager, vars: &[u32]) -> NodeId {
        let mut f = NodeId::FALSE;
        for &v in vars {
            let x = m.var(v).unwrap();
            f = m.xor(f, x).unwrap();
        }
        f
    }

    #[test]
    fn terminals_roundtrip() {
        let src = BddManager::new(16);
        let mut dst = BddManager::new(16);
        for c in [NodeId::TRUE, NodeId::FALSE] {
            let e = export(&src, c);
            assert!(e.is_constant());
            assert_eq!(e.node_count(), 1);
            assert_eq!(import(&e, &mut dst).unwrap(), c);
        }
        assert_eq!(dst.num_nodes(), 1, "constants allocate nothing");
    }

    #[test]
    fn roundtrip_preserves_structure_and_semantics() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3]);
        let e = export(&src, f);
        assert_eq!(e.node_count(), src.size(f));
        let mut dst = BddManager::new(1 << 16);
        let g = import(&e, &mut dst).unwrap();
        assert_eq!(dst.size(g), src.size(f), "sharing survives the transfer");
        for asg in assignments(4) {
            assert_eq!(
                dst.eval(g, &|v| asg >> v & 1 == 1),
                src.eval(f, &|v| asg >> v & 1 == 1),
                "assignment {asg:04b}"
            );
        }
    }

    #[test]
    fn complemented_root_roundtrips() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1]);
        let e = export(&src, !f);
        let mut dst = BddManager::new(1 << 16);
        let g = import(&e, &mut dst).unwrap();
        for asg in assignments(2) {
            assert_eq!(
                dst.eval(g, &|v| asg >> v & 1 == 1),
                src.eval(!f, &|v| asg >> v & 1 == 1)
            );
        }
    }

    #[test]
    fn import_into_populated_manager_reuses_shared_nodes() {
        let mut src = BddManager::new(1 << 16);
        let a = src.var(0).unwrap();
        let b = src.var(1).unwrap();
        let f = src.and(a, b).unwrap();
        // dst already holds the same function (plus unrelated junk).
        let mut dst = BddManager::new(1 << 16);
        let da = dst.var(0).unwrap();
        let db = dst.var(1).unwrap();
        let existing = dst.and(da, db).unwrap();
        let _junk = dst.xor(da, db).unwrap();
        let nodes_before = dst.num_nodes();
        let g = import(&export(&src, f), &mut dst).unwrap();
        assert_eq!(g, existing, "hash-consing unifies the imported cone");
        assert_eq!(dst.num_nodes(), nodes_before, "no duplicate nodes");
        dst.unprotect(g);
    }

    #[test]
    fn import_roots_the_result_on_arrival() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2]);
        let e = export(&src, f);
        let mut dst = BddManager::new(1 << 16);
        let roots_before = dst.num_roots();
        let g = import(&e, &mut dst).unwrap();
        assert_eq!(
            dst.num_roots(),
            roots_before + 1,
            "exactly the result registration remains"
        );
        // An immediate sweep must not touch the imported cone.
        let size = dst.size(g);
        dst.gc();
        assert_eq!(dst.size(g), size);
        for asg in assignments(3) {
            assert_eq!(
                dst.eval(g, &|v| asg >> v & 1 == 1),
                src.eval(f, &|v| asg >> v & 1 == 1)
            );
        }
        dst.unprotect(g);
    }

    #[test]
    fn quota_failure_leaks_no_roots() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3, 4, 5]);
        let e = export(&src, f);
        // Too small for the 7-node chain (terminal + 6 levels).
        let mut dst = BddManager::new(4);
        assert!(import(&e, &mut dst).is_err());
        assert_eq!(dst.num_roots(), 0, "failed import must unwind its roots");
    }

    /// Checks that importing `delta` against `baseline` into a fresh
    /// manager yields the same node count and truth table as importing
    /// the full export `full`.
    fn assert_delta_matches_full(
        delta: &DeltaBdd,
        baseline: &ExportedBdd,
        full: &ExportedBdd,
        nvars: u32,
    ) {
        let mut dst = BddManager::new(1 << 16);
        let via_full = import(full, &mut dst).unwrap();
        let via_delta = import_delta(delta, baseline, &mut dst).unwrap();
        assert_eq!(via_delta, via_full, "hash-consing must unify the two routes");
        for asg in assignments(nvars) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(via_delta, &assign), dst.eval(via_full, &assign));
        }
        dst.unprotect(via_full);
        dst.unprotect(via_delta);
    }

    #[test]
    fn delta_against_own_export_ships_nothing() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3]);
        let baseline = export(&src, f);
        let delta = export_delta(&src, f, &baseline);
        assert_eq!(delta.delta_node_count(), 0, "identical cone: empty delta");
        assert_delta_matches_full(&delta, &baseline, &baseline, 4);
    }

    #[test]
    fn delta_ships_only_the_fresh_cone() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[1, 2, 3]);
        src.protect(f);
        let baseline = export(&src, f);
        // Grow the function: the old cone stays shared under the new top var.
        let a = src.var(0).unwrap();
        let g = src.or(f, a).unwrap();
        src.protect(g);
        let full = export(&src, g);
        let delta = export_delta(&src, g, &baseline);
        assert!(
            delta.delta_node_count() < full.node_count() - 1,
            "delta ({}) must beat the full cone ({})",
            delta.delta_node_count(),
            full.node_count() - 1
        );
        assert_delta_matches_full(&delta, &baseline, &full, 4);
    }

    #[test]
    fn delta_against_disjoint_baseline_ships_everything() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1]);
        src.protect(f);
        let other = xor_chain(&mut src, &[4, 5]);
        src.protect(other);
        let baseline = export(&src, other);
        let full = export(&src, f);
        let delta = export_delta(&src, f, &baseline);
        assert_eq!(
            delta.delta_node_count(),
            full.node_count() - 1,
            "disjoint cones share nothing but the terminal"
        );
        assert_delta_matches_full(&delta, &baseline, &full, 2);
    }

    #[test]
    fn delta_of_constants_and_baseline_hits() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2]);
        src.protect(f);
        let baseline = export(&src, f);
        // Terminal root: nothing shipped, terminal encoding preserved.
        for c in [NodeId::TRUE, NodeId::FALSE] {
            let d = export_delta(&src, c, &baseline);
            assert_eq!(d.delta_node_count(), 0);
            let mut dst = BddManager::new(16);
            assert_eq!(import_delta(&d, &baseline, &mut dst).unwrap(), c);
        }
        // Complemented baseline hit: ¬f's cone is f's cone.
        let d = export_delta(&src, !f, &baseline);
        assert_eq!(d.delta_node_count(), 0, "¬f shares every node with f");
        let mut dst = BddManager::new(1 << 16);
        let g = import_delta(&d, &baseline, &mut dst).unwrap();
        for asg in assignments(3) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(g, &assign), src.eval(!f, &assign));
        }
    }

    #[test]
    fn delta_tolerates_a_collected_baseline() {
        // Baseline nodes that no longer exist in src must simply fail to
        // match (graceful degradation to a fuller delta), not corrupt
        // the encoding.
        let mut src = BddManager::new(1 << 16);
        let dead = xor_chain(&mut src, &[0, 1, 2]);
        let baseline = export(&src, dead);
        src.protect(NodeId::TRUE); // arm GC without keeping `dead` alive
        let keep = xor_chain(&mut src, &[3, 4]);
        src.protect(keep);
        src.gc(); // `dead`'s cone is gone from the unique table
        let full = export(&src, keep);
        let delta = export_delta(&src, keep, &baseline);
        assert_eq!(delta.delta_node_count(), full.node_count() - 1);
        assert_delta_matches_full(&delta, &baseline, &full, 5);
    }

    #[test]
    fn import_delta_materializes_only_needed_baseline_nodes() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3]);
        src.protect(f);
        let baseline = export(&src, f);
        // A function referencing only the deep tail of the baseline.
        let tail = xor_chain(&mut src, &[2, 3]);
        src.protect(tail);
        let delta = export_delta(&src, tail, &baseline);
        let mut dst = BddManager::new(1 << 16);
        let g = import_delta(&delta, &baseline, &mut dst).unwrap();
        assert_eq!(
            dst.num_nodes(),
            src.size(tail),
            "unreferenced baseline slots must not be materialized"
        );
        assert_eq!(dst.num_roots(), 1, "only the result registration remains");
        for asg in assignments(4) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(g, &assign), src.eval(tail, &assign));
        }
    }

    #[test]
    fn delta_quota_failure_leaks_no_roots() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2]);
        src.protect(f);
        let baseline = export(&src, f);
        let big = xor_chain(&mut src, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let delta = export_delta(&src, big, &baseline);
        let mut dst = BddManager::new(4);
        assert!(import_delta(&delta, &baseline, &mut dst).is_err());
        assert_eq!(dst.num_roots(), 0, "failed delta import must unwind its roots");
    }

    /// `(x0 ∧ xk) ∨ (x1 ∧ x{k+1}) ∨ …` — exponential under the identity
    /// order, linear under one that pairs the operands up.
    fn distant_pairs(m: &mut BddManager, k: u32) -> NodeId {
        let mut f = NodeId::FALSE;
        for i in 0..k {
            let a = m.var(i).unwrap();
            let b = m.var(i + k).unwrap();
            let t = m.and(a, b).unwrap();
            f = m.or(f, t).unwrap();
        }
        f
    }

    /// The pairing order `x0 x3 x1 x4 x2 x5` for `distant_pairs(_, 3)`.
    const PAIRED: [u32; 6] = [0, 3, 1, 4, 2, 5];

    #[test]
    fn roundtrip_from_reordered_source_into_identity_receiver() {
        let mut src = BddManager::new(1 << 16);
        src.adopt_order(&PAIRED);
        let f = distant_pairs(&mut src, 3);
        let e = export(&src, f);
        assert_eq!(e.source_order(), &src.current_order()[..]);
        // Identity-order receiver: the ITE fallback re-normalizes.
        let mut dst = BddManager::new(1 << 16);
        let g = import(&e, &mut dst).unwrap();
        for asg in assignments(6) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(g, &assign), src.eval(f, &assign), "assignment {asg:06b}");
        }
        // A receiver that adopts the source order replays the cone at
        // its exported size, pure-`mk`.
        let mut adopted = BddManager::new(1 << 16);
        adopted.adopt_order(e.source_order());
        let h = import(&e, &mut adopted).unwrap();
        assert_eq!(adopted.size(h), e.node_count(), "adopted order preserves the shape");
        for asg in assignments(6) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(adopted.eval(h, &assign), src.eval(f, &assign));
        }
    }

    #[test]
    fn roundtrip_from_identity_source_into_reordered_receiver() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3]);
        let e = export(&src, f);
        let mut dst = BddManager::new(1 << 16);
        dst.adopt_order(&[3, 1, 0, 2]);
        let g = import(&e, &mut dst).unwrap();
        assert_eq!(dst.size(g), e.node_count(), "xor cone is order-invariant in size");
        for asg in assignments(4) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(g, &assign), src.eval(f, &assign), "assignment {asg:04b}");
        }
    }

    #[test]
    fn delta_across_a_source_reorder_stays_correct() {
        // Baseline exported under the identity order; the source then
        // drops everything, adopts the pairing order and rebuilds before
        // taking the delta. Baseline recognition degrades gracefully
        // (the new order rewrites structure, so matches may be lost) and
        // the identity-order receiver imports correctly either way.
        let mut src = BddManager::new(1 << 16);
        let f = distant_pairs(&mut src, 3);
        src.protect(f);
        let baseline = export(&src, f);
        let mut dst = BddManager::new(1 << 16);
        let imported_baseline = import(&baseline, &mut dst).unwrap();
        src.unprotect(f);
        src.gc();
        src.adopt_order(&PAIRED);
        let f = distant_pairs(&mut src, 3);
        src.protect(f);
        let extra = src.var(6).unwrap();
        let g = src.or(f, extra).unwrap();
        src.protect(g);
        let delta = export_delta(&src, g, &baseline);
        assert_eq!(delta.source_order(), &src.current_order()[..]);
        assert_ne!(
            delta.source_order(),
            baseline.source_order(),
            "orders must have diverged for this test to bite"
        );
        let h = import_delta(&delta, &baseline, &mut dst).unwrap();
        for asg in assignments(7) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(h, &assign), src.eval(g, &assign), "assignment {asg:07b}");
        }
        dst.unprotect(imported_baseline);
        dst.unprotect(h);
    }
}
