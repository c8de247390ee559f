//! Cross-manager BDD transfer: serialize a list of functions out of a
//! [`BddManager`] as one compact, manager-independent node list and
//! rebuild them — complement edges, sharing and all — inside another
//! manager.
//!
//! This is the checkpoint format of the reachability engines: a
//! suspended run exports the reached and frontier set of every window
//! as the roots of one export, and the resumed run imports them into a
//! fresh manager. The roots share one node list, so a node common to
//! several of them (the frontier is a subset of the reached set, and
//! windows share deep structure) is stored once. An [`ExportedBdd`]
//! owns no manager references and is `Send`; the campaign codec writes
//! it to disk.
//!
//! The format is a *level-ordered* list: nodes sorted by the source
//! manager's variable level (an order installed with
//! [`BddManager::adopt_order`] makes level ≠ var id), deepest level
//! first. Since a ROBDD parent's level is strictly above its children's,
//! every node's children precede it in the list, so [`import`] is a
//! single forward pass with no fixups. Edges are stored exactly as the
//! manager holds them (complement tag in bit 0, regular then-edges per
//! the canonical form), so a same-order roundtrip preserves the node
//! count, not just the functions.
//!
//! Every export also carries the source order
//! ([`ExportedBdd::source_order`]): a fresh importing manager can adopt
//! it up front ([`BddManager::adopt_order`]) to rebuild the cones at
//! their exported size. When the destination's order differs — an
//! export from an `adopt_order`ed manager meeting a natural-order one,
//! or a checkpoint read back from disk — [`import`] stays correct
//! anyway: each node is rebuilt with the fast `mk` path only while the
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

/// One exported node: variable plus its two child references (`hi` is
/// always regular, mirroring the manager's canonical form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ExportedNode {
    var: u32,
    lo: SlotRef,
    hi: SlotRef,
}

/// A manager-independent serialization of a list of BDD functions (the
/// roots), produced by [`export`] and consumed by [`import`].
///
/// Owns plain data only (no manager references), so it outlives the
/// manager it came from — the reachability checkpoints are made of it.
/// Equality is structural (same node list, same roots), which two
/// exports of the same functions from identically-evolved managers
/// satisfy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExportedBdd {
    /// Level-ordered (deepest variable first): children precede parents.
    nodes: Vec<ExportedNode>,
    roots: Vec<SlotRef>,
    /// The source manager's variable order at export time
    /// (`level2var`: entry `l` is the variable sitting at level `l`).
    order: Vec<u32>,
}

impl ExportedBdd {
    /// Number of nodes the roots will occupy together in any manager,
    /// terminal included: the size of the union of their cones. For a
    /// single root it is the figure [`BddManager::size`] reports on
    /// either side of a transfer.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + 1
    }

    /// The source manager's variable order at export time, root level
    /// first. A fresh receiving manager can
    /// [`BddManager::adopt_order`] this before [`import`] to rebuild
    /// the cones at exactly their exported size; a receiver with live
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

    /// The root references, in export order, in the same raw encoding
    /// as [`ExportedBdd::raw_nodes`] children.
    pub fn raw_roots(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.roots.iter().map(|r| r.0)
    }

    /// Rebuilds an export from raw parts (the inverse of
    /// [`ExportedBdd::raw_nodes`] + [`ExportedBdd::raw_roots`] +
    /// [`ExportedBdd::source_order`]), validating the structural
    /// invariant [`import`] relies on: every reference is a terminal or
    /// targets an *earlier* list slot (a root: any slot), so a single
    /// forward pass can never index out of bounds. Checked here — not
    /// trusted — because the raw parts typically arrive from disk.
    ///
    /// # Errors
    ///
    /// Returns a [`TransferFormatError`] naming the offending reference
    /// when the topology is malformed; a deserializer surfaces it as a
    /// corrupt-file error instead of panicking mid-import.
    pub fn from_raw_parts(
        nodes: Vec<(u32, u32, u32)>,
        roots: Vec<u32>,
        order: Vec<u32>,
    ) -> Result<ExportedBdd, TransferFormatError> {
        for (k, (_, lo, hi)) in nodes.iter().enumerate() {
            check_ref(*lo, k, Some(k))?;
            check_ref(*hi, k, Some(k))?;
        }
        for root in &roots {
            check_ref(*root, nodes.len(), None)?;
        }
        let nodes = nodes
            .into_iter()
            .map(|(var, lo, hi)| ExportedNode {
                var,
                lo: SlotRef(lo),
                hi: SlotRef(hi),
            })
            .collect();
        Ok(ExportedBdd {
            nodes,
            roots: roots.into_iter().map(SlotRef).collect(),
            order,
        })
    }
}

/// A structural defect in raw transfer parts fed to
/// [`ExportedBdd::from_raw_parts`]: a reference that escapes the slot
/// space it is allowed to address. Deserializers turn this into a typed
/// corrupt-file error rather than letting a malformed node list panic
/// inside [`import`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferFormatError {
    /// A root reference targets a slot outside the node list.
    BadRootRef {
        /// The offending raw reference.
        reference: u32,
        /// Number of addressable slots.
        slots: usize,
    },
    /// A child reference of node `node` targets a slot at or beyond its
    /// own position (references must point strictly backwards).
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
            TransferFormatError::BadChildRef {
                node,
                reference,
                slots,
            } => {
                write!(
                    f,
                    "node {node}: child reference {reference:#x} escapes {slots} slot(s)"
                )
            }
        }
    }
}

impl std::error::Error for TransferFormatError {}

/// Validates one raw reference against the number of slots it may
/// address (`limit`); `node` is `Some` for a child edge, `None` for a
/// root.
fn check_ref(r: u32, limit: usize, node: Option<usize>) -> Result<(), TransferFormatError> {
    let ok = r < 2 || ((r >> 1) as usize - 1) < limit;
    if ok {
        return Ok(());
    }
    Err(match node {
        Some(node) => TransferFormatError::BadChildRef {
            node,
            reference: r,
            slots: limit,
        },
        None => TransferFormatError::BadRootRef {
            reference: r,
            slots: limit,
        },
    })
}

/// Serializes the functions `roots` of `src` into one
/// manager-independent [`ExportedBdd`].
///
/// Pure read: allocates nothing in `src` and cannot fail. The export
/// enumerates only the union of the roots' cones (not the whole table)
/// and keeps all sharing: each reachable node appears exactly once,
/// however many roots reach it, and complement tags ride on the edges.
pub fn export(src: &BddManager, roots: &[NodeId]) -> ExportedBdd {
    // Collect the reachable node indices (complement tags ignored: f and
    // ¬f share every node).
    let mut indices: Vec<u32> = Vec::new();
    let mut seen: FxHashMap<u32, usize> = FxHashMap::default();
    let mut stack: Vec<u32> = roots
        .iter()
        .filter(|r| !r.is_terminal())
        .map(|r| r.index())
        .collect();
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
        let (la, lb) = (
            src.level_of(src.node(*a).var),
            src.level_of(src.node(*b).var),
        );
        lb.cmp(&la).then(a.cmp(b))
    });
    for (slot, i) in indices.iter().enumerate() {
        seen.insert(*i, slot);
    }
    let translate = |edge: NodeId| -> SlotRef {
        if edge.is_terminal() {
            SlotRef(edge.0) // terminal encodings coincide
        } else {
            SlotRef::to_slot(seen[&edge.index()], edge.is_complemented())
        }
    };
    let nodes = indices
        .iter()
        .map(|i| {
            let node = src.node(*i);
            ExportedNode {
                var: node.var,
                lo: translate(node.lo),
                hi: translate(node.hi),
            }
        })
        .collect();
    ExportedBdd {
        nodes,
        roots: roots.iter().map(|r| translate(*r)).collect(),
        order: src.current_order(),
    }
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

/// Rebuilds the exported roots inside `dst`, which may be a different
/// manager in any state (fresh or mid-computation) as long as it uses
/// the same variable numbering; returns them in export order. The two
/// managers' variable *orders* need not agree: nodes whose placement
/// `dst` disputes are rebuilt through ITE (see
/// [`ExportedBdd::source_order`] for how a fresh receiver can avoid
/// even that).
///
/// The import is memoized per list slot — shared subgraphs are built
/// once — and every returned root arrives **rooted**: each carries one
/// [`BddManager::protect`] registration (a root listed twice carries
/// two) that the caller owns and must eventually release with
/// [`BddManager::unprotect`] (or hand off with [`BddManager::reroot`]).
/// Intermediate nodes are protected only for the duration of the
/// import, so a quota-pressure collection during or after the call
/// cannot reclaim the results or their cones but leaves no stray
/// registrations behind.
///
/// # Errors
///
/// Returns [`OutOfNodes`] if `dst`'s quota is exhausted even after
/// garbage collection; no root registrations leak on this path.
pub fn import(exported: &ExportedBdd, dst: &mut BddManager) -> Result<Vec<NodeId>, OutOfNodes> {
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
    // rebuilt cones (and the first protect arms automatic GC in `dst`).
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
    // Root the results before the memo registrations are released, so
    // no collection can take them before the caller owns them.
    let out = match failed {
        None => {
            let roots: Vec<NodeId> = exported.roots.iter().map(|r| resolve(&memo, *r)).collect();
            for root in &roots {
                dst.protect(*root);
            }
            Ok(roots)
        }
        Some(e) => Err(e),
    };
    for r in &memo {
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
        let e = export(&src, &[NodeId::TRUE, NodeId::FALSE]);
        assert_eq!(e.node_count(), 1);
        assert_eq!(
            import(&e, &mut dst).unwrap(),
            vec![NodeId::TRUE, NodeId::FALSE]
        );
        assert_eq!(dst.num_nodes(), 1, "constants allocate nothing");
        assert_eq!(dst.num_roots(), 0, "constants need no registration");
    }

    #[test]
    fn roundtrip_preserves_structure_and_semantics() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3]);
        let e = export(&src, &[f]);
        assert_eq!(e.node_count(), src.size(f));
        let mut dst = BddManager::new(1 << 16);
        let g = import(&e, &mut dst).unwrap()[0];
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
        let e = export(&src, &[!f]);
        let mut dst = BddManager::new(1 << 16);
        let g = import(&e, &mut dst).unwrap()[0];
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
        let g = import(&export(&src, &[f]), &mut dst).unwrap()[0];
        assert_eq!(g, existing, "hash-consing unifies the imported cone");
        assert_eq!(dst.num_nodes(), nodes_before, "no duplicate nodes");
        dst.unprotect(g);
    }

    #[test]
    fn import_roots_the_result_on_arrival() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2]);
        let e = export(&src, &[f]);
        let mut dst = BddManager::new(1 << 16);
        let roots_before = dst.num_roots();
        let g = import(&e, &mut dst).unwrap()[0];
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
        let e = export(&src, &[f]);
        // Too small for the 7-node chain (terminal + 6 levels).
        let mut dst = BddManager::new(4);
        assert!(import(&e, &mut dst).is_err());
        assert_eq!(dst.num_roots(), 0, "failed import must unwind its roots");
    }

    /// Three overlapping functions, a complemented one, a repeat and a
    /// constant: the reached/frontier shape of a checkpoint, where
    /// roots share most of their nodes and may coincide.
    fn overlapping_roots(src: &mut BddManager) -> Vec<NodeId> {
        let f = xor_chain(src, &[1, 2, 3]);
        let a = src.var(0).unwrap();
        let g = src.or(f, a).unwrap();
        let h = xor_chain(src, &[2, 3]);
        vec![g, f, !h, f, NodeId::FALSE]
    }

    #[test]
    fn every_root_roundtrips() {
        let mut src = BddManager::new(1 << 16);
        let roots = overlapping_roots(&mut src);
        let e = export(&src, &roots);
        assert_eq!(e.raw_roots().len(), roots.len());
        let mut dst = BddManager::new(1 << 16);
        let got = import(&e, &mut dst).unwrap();
        assert_eq!(got.len(), roots.len());
        assert_eq!(got[1], got[3], "a repeated root is one node");
        for (want, have) in roots.iter().zip(&got) {
            assert_eq!(dst.size(*have), src.size(*want));
            for asg in assignments(4) {
                let assign = |v: u32| asg >> v & 1 == 1;
                assert_eq!(dst.eval(*have, &assign), src.eval(*want, &assign));
            }
        }
    }

    #[test]
    fn node_count_is_the_union_of_the_cones() {
        let mut src = BddManager::new(1 << 16);
        let roots = overlapping_roots(&mut src);
        let e = export(&src, &roots);
        // The union of the cones is the first root's (g = f ∨ x0 holds
        // f's chain, and h is f's tail): one node per level plus the
        // terminal.
        assert_eq!(e.node_count(), src.size(roots[0]));
        let shared: usize = roots.iter().map(|r| src.size(*r)).sum();
        assert!(e.node_count() < shared, "shared nodes are stored once");
        let mut dst = BddManager::new(1 << 16);
        import(&e, &mut dst).unwrap();
        assert_eq!(
            dst.num_nodes(),
            e.node_count(),
            "the import builds the union"
        );
    }

    #[test]
    fn each_root_arrives_rooted() {
        let mut src = BddManager::new(1 << 16);
        let roots = overlapping_roots(&mut src);
        let e = export(&src, &roots);
        let mut dst = BddManager::new(1 << 16);
        let got = import(&e, &mut dst).unwrap();
        // g, f (twice) and ¬h are three distinct nodes; FALSE needs none.
        assert_eq!(dst.num_roots(), 3, "only the results stay registered");
        // Each listed root carries its own registration: releasing one
        // of f's two leaves it protected through the other.
        dst.unprotect(got[3]);
        dst.unprotect(got[0]);
        dst.gc();
        let size = dst.size(got[1]);
        assert_eq!(size, src.size(roots[1]), "f survives on its remaining root");
        for asg in assignments(4) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(dst.eval(got[1], &assign), src.eval(roots[1], &assign));
            assert_eq!(dst.eval(got[2], &assign), src.eval(roots[2], &assign));
        }
        dst.unprotect(got[1]);
        dst.unprotect(got[2]);
        assert_eq!(dst.num_roots(), 0);
    }

    #[test]
    fn multi_root_quota_failure_leaks_no_roots() {
        let mut src = BddManager::new(1 << 16);
        let small = xor_chain(&mut src, &[0, 1]);
        let big = xor_chain(&mut src, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let e = export(&src, &[small, big]);
        let mut dst = BddManager::new(4);
        assert!(import(&e, &mut dst).is_err());
        assert_eq!(dst.num_roots(), 0, "failed import must unwind its roots");
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
        let e = export(&src, &[f]);
        assert_eq!(e.source_order(), &src.current_order()[..]);
        // Identity-order receiver: the ITE fallback re-normalizes.
        let mut dst = BddManager::new(1 << 16);
        let g = import(&e, &mut dst).unwrap()[0];
        for asg in assignments(6) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(
                dst.eval(g, &assign),
                src.eval(f, &assign),
                "assignment {asg:06b}"
            );
        }
        // A receiver that adopts the source order replays the cone at
        // its exported size, pure-`mk`.
        let mut adopted = BddManager::new(1 << 16);
        adopted.adopt_order(e.source_order());
        let h = import(&e, &mut adopted).unwrap()[0];
        assert_eq!(
            adopted.size(h),
            e.node_count(),
            "adopted order preserves the shape"
        );
        for asg in assignments(6) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(adopted.eval(h, &assign), src.eval(f, &assign));
        }
    }

    #[test]
    fn roundtrip_from_identity_source_into_reordered_receiver() {
        let mut src = BddManager::new(1 << 16);
        let f = xor_chain(&mut src, &[0, 1, 2, 3]);
        let e = export(&src, &[f]);
        let mut dst = BddManager::new(1 << 16);
        dst.adopt_order(&[3, 1, 0, 2]);
        let g = import(&e, &mut dst).unwrap()[0];
        assert_eq!(
            dst.size(g),
            e.node_count(),
            "xor cone is order-invariant in size"
        );
        for asg in assignments(4) {
            let assign = |v: u32| asg >> v & 1 == 1;
            assert_eq!(
                dst.eval(g, &assign),
                src.eval(f, &assign),
                "assignment {asg:04b}"
            );
        }
    }
}
