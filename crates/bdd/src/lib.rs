//! # veridic-bdd
//!
//! A from-scratch Reduced Ordered Binary Decision Diagram package, the
//! foundation of veridic's unbounded model checking engines — including the
//! partitioned-OBDD (POBDD) reachability that reproduces the paper's
//! in-house engine \[Jain, IWLS 2004\].
//!
//! Design points:
//!
//! * **Complement edges**: a [`NodeId`] is a node index plus a complement
//!   tag bit, with the canonical regular-hi-edge form, so negation is an
//!   O(1) tag flip (`!id`), `f` and `¬f` share every node, and
//!   equivalent ITE phrasings fold onto one computed-cache entry
//!   (Brace–Rudell–Bryant normalization).
//! * **Mark-and-sweep garbage collection with node recycling**: external
//!   references are declared through a lightweight root set
//!   ([`BddManager::protect`]/[`BddManager::unprotect`]); under quota
//!   pressure the manager collects dead intermediates, recycles their
//!   slots, sweeps stale cache entries, and retries before raising
//!   [`OutOfNodes`] — the quota therefore counts **live** nodes, not
//!   nodes ever allocated.
//! * **Hash-consed node table** with a unique table and per-operation
//!   computed caches (ITE, AND apply — OR and difference are free
//!   complement rewrites of it — quantification, renaming), all keyed
//!   with [`hash::FxHasher`] (shared with the other engines via
//!   `veridic-aig`) — dense manager ids don't need SipHash's DoS
//!   resistance, and the multiply-xor scheme is several times faster on
//!   tuple keys.
//! * **Iterative, normalized ITE**: the generic ternary op runs on an
//!   explicit work stack, so its depth is independent of both operand
//!   structure and variable count, and canonicalizes operand order *and*
//!   complement polarity before cache lookup. The specialized binary
//!   apply recurses one frame per variable level (depth bounded by the
//!   order length).
//! * **Deterministic resource quota**: every operation returns
//!   `Result<_, OutOfNodes>` and fails once the live-node budget is
//!   exhausted (post-GC). The model checkers convert this into a
//!   reproducible "time-out", which is what drives the paper's Figure 7
//!   divide-and-conquer flow.
//! * **Relational product** (`and_exists`) as a first-class fused
//!   operation, plus order-preserving variable renaming for the
//!   current/next-state interleaving used by image computation.
//! * **Cross-manager transfer** ([`transfer`]): one function's cone
//!   serialized as a compact level-ordered node list (`Send`, no
//!   manager references) and rebuilt — sharing, complement edges and
//!   all — inside any manager with the same variable numbering, the
//!   result arriving rooted. This is the reachability engines'
//!   checkpoint format.
//!
//! ```
//! use veridic_bdd::BddManager;
//!
//! let mut m = BddManager::new(1 << 20);
//! let a = m.var(0)?;
//! let b = m.var(1)?;
//! let f = m.and(a, b)?;
//! let g = m.or(a, b)?;
//! assert!(m.implies_check(f, g)?);
//! # Ok::<(), veridic_bdd::OutOfNodes>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod ops;
pub mod transfer;

pub use veridic_aig::hash;
pub use veridic_aig::hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use manager::{BddManager, NodeId, OutOfNodes};
pub use transfer::{DeltaBdd, ExportedBdd, TransferFormatError};
