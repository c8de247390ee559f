//! Word-level RTL expressions.
//!
//! Expressions are stored in a per-module [`ExprArena`] and referenced by
//! [`ExprId`]. The arena caches the width of every node so elaboration and
//! lowering never recompute it, and hash-conses nodes so structurally equal
//! expressions share one id.

use crate::value::Value;
use std::fmt;
use veridic_aig::hash::{FxHashMap, FxHashSet};

/// Identifier of a net within one module.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an expression node within one module's [`ExprArena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A single word-level expression node.
///
/// Operand widths are validated on construction by [`ExprArena::add`]:
/// bitwise and arithmetic binary operators require equal widths, `Mux`
/// requires a 1-bit condition and equal arm widths, and reductions produce
/// 1-bit results.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// The value of a net.
    Net(NetId),
    /// Bitwise NOT.
    Not(ExprId),
    /// Bitwise AND of equal-width operands.
    And(ExprId, ExprId),
    /// Bitwise OR of equal-width operands.
    Or(ExprId, ExprId),
    /// Bitwise XOR of equal-width operands.
    Xor(ExprId, ExprId),
    /// AND-reduction to one bit.
    RedAnd(ExprId),
    /// OR-reduction to one bit.
    RedOr(ExprId),
    /// XOR-reduction (parity) to one bit.
    RedXor(ExprId),
    /// Wrapping addition at operand width.
    Add(ExprId, ExprId),
    /// Wrapping subtraction at operand width.
    Sub(ExprId, ExprId),
    /// Wrapping multiplication at operand width.
    Mul(ExprId, ExprId),
    /// Equality, 1-bit result.
    Eq(ExprId, ExprId),
    /// Inequality, 1-bit result.
    Ne(ExprId, ExprId),
    /// Unsigned less-than, 1-bit result.
    Ult(ExprId, ExprId),
    /// Unsigned less-or-equal, 1-bit result.
    Ule(ExprId, ExprId),
    /// Left shift by a constant amount.
    Shl(ExprId, u32),
    /// Logical right shift by a constant amount.
    Shr(ExprId, u32),
    /// 2:1 multiplexer: `cond ? then_ : else_`.
    Mux {
        /// 1-bit select.
        cond: ExprId,
        /// Value when `cond` is 1.
        then_: ExprId,
        /// Value when `cond` is 0.
        else_: ExprId,
    },
    /// Concatenation; operands listed MSB-first (Verilog `{a, b}` order).
    Concat(Vec<ExprId>),
    /// Replication `{n{e}}`.
    Repeat(u32, ExprId),
    /// Bit/part select `e[hi:lo]`.
    Slice(ExprId, u32, u32),
}

/// Hash-consing arena of [`Expr`] nodes with cached widths.
///
/// # Examples
///
/// ```
/// use veridic_netlist::{ExprArena, Expr, Value};
///
/// let mut arena = ExprArena::new();
/// let a = arena.add(Expr::Const(Value::from_u64(4, 3)));
/// let b = arena.add(Expr::Const(Value::from_u64(4, 3)));
/// assert_eq!(a, b); // hash-consed
/// assert_eq!(arena.width(a), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExprArena {
    nodes: Vec<Expr>,
    widths: Vec<u32>,
    dedup: FxHashMap<Expr, ExprId>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The widths table, indexed by net id. Nets are declared by the module,
    /// so the arena is told net widths lazily via [`ExprArena::add_with_net_width`].
    fn net_width(&self, _net: NetId) -> Option<u32> {
        None
    }

    /// Inserts a node, returning the id of an existing structurally equal
    /// node when possible.
    ///
    /// For `Expr::Net` nodes use [`ExprArena::net`] which supplies the width.
    ///
    /// # Panics
    ///
    /// Panics if operand widths are inconsistent (e.g. `And` of different
    /// widths, `Mux` with a non-1-bit condition) or if an operand id does not
    /// belong to this arena.
    pub fn add(&mut self, e: Expr) -> ExprId {
        let w = self.compute_width(&e);
        self.insert(e, w)
    }

    /// Inserts a net reference with its declared width.
    pub fn net(&mut self, net: NetId, width: u32) -> ExprId {
        self.insert(Expr::Net(net), width)
    }

    fn insert(&mut self, e: Expr, w: u32) -> ExprId {
        if let Some(id) = self.dedup.get(&e) {
            return *id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.dedup.insert(e.clone(), id);
        self.nodes.push(e);
        self.widths.push(w);
        id
    }

    /// Returns the node for an id.
    pub fn node(&self, id: ExprId) -> &Expr {
        &self.nodes[id.0 as usize]
    }

    /// Returns the cached width of a node.
    pub fn width(&self, id: ExprId) -> u32 {
        self.widths[id.0 as usize]
    }

    fn w(&self, id: ExprId) -> u32 {
        assert!(
            (id.0 as usize) < self.widths.len(),
            "expression id {id:?} does not belong to this arena"
        );
        self.widths[id.0 as usize]
    }

    fn compute_width(&self, e: &Expr) -> u32 {
        match e {
            Expr::Const(v) => v.width(),
            Expr::Net(n) => self
                .net_width(*n)
                .expect("use ExprArena::net to create net references"), // lint: allow
            Expr::Not(a) => self.w(*a),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                let (wa, wb) = (self.w(*a), self.w(*b));
                assert_eq!(wa, wb, "bitwise op width mismatch: {wa} vs {wb}");
                wa
            }
            Expr::RedAnd(_) | Expr::RedOr(_) | Expr::RedXor(_) => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                let (wa, wb) = (self.w(*a), self.w(*b));
                assert_eq!(wa, wb, "arithmetic width mismatch: {wa} vs {wb}");
                wa
            }
            Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::Ult(a, b) | Expr::Ule(a, b) => {
                let (wa, wb) = (self.w(*a), self.w(*b));
                assert_eq!(wa, wb, "comparison width mismatch: {wa} vs {wb}");
                1
            }
            Expr::Shl(a, _) | Expr::Shr(a, _) => self.w(*a),
            Expr::Mux { cond, then_, else_ } => {
                assert_eq!(self.w(*cond), 1, "mux condition must be 1 bit");
                let (wt, we) = (self.w(*then_), self.w(*else_));
                assert_eq!(wt, we, "mux arm width mismatch: {wt} vs {we}");
                wt
            }
            Expr::Concat(parts) => {
                assert!(!parts.is_empty(), "empty concat");
                parts.iter().map(|p| self.w(*p)).sum()
            }
            Expr::Repeat(n, a) => {
                assert!(*n > 0, "zero-count repeat");
                n * self.w(*a)
            }
            Expr::Slice(a, hi, lo) => {
                let wa = self.w(*a);
                assert!(hi >= lo && *hi < wa, "bad slice [{hi}:{lo}] of width {wa}");
                hi - lo + 1
            }
        }
    }

    /// Collects the net ids referenced (transitively) by `id`.
    pub fn support(&self, id: ExprId) -> Vec<NetId> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        let mut stack = vec![id];
        let mut visited = FxHashSet::default();
        while let Some(x) = stack.pop() {
            if !visited.insert(x) {
                continue;
            }
            match self.node(x) {
                Expr::Const(_) => {}
                Expr::Net(n) => {
                    if seen.insert(*n) {
                        out.push(*n);
                    }
                }
                Expr::Not(a)
                | Expr::RedAnd(a)
                | Expr::RedOr(a)
                | Expr::RedXor(a)
                | Expr::Shl(a, _)
                | Expr::Shr(a, _)
                | Expr::Repeat(_, a)
                | Expr::Slice(a, _, _) => stack.push(*a),
                Expr::And(a, b)
                | Expr::Or(a, b)
                | Expr::Xor(a, b)
                | Expr::Add(a, b)
                | Expr::Sub(a, b)
                | Expr::Mul(a, b)
                | Expr::Eq(a, b)
                | Expr::Ne(a, b)
                | Expr::Ult(a, b)
                | Expr::Ule(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Expr::Mux { cond, then_, else_ } => {
                    stack.push(*cond);
                    stack.push(*then_);
                    stack.push(*else_);
                }
                Expr::Concat(parts) => stack.extend(parts.iter().copied()),
            }
        }
        out.sort();
        out
    }

    /// Evaluates `id` given a function that resolves net values.
    ///
    /// Used by the reference interpreter and by constant propagation; the
    /// cycle-accurate simulator in `veridic-sim` has its own compiled
    /// evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `nets` returns a value whose width differs from the net
    /// reference's declared width.
    pub fn eval(&self, id: ExprId, nets: &dyn Fn(NetId) -> Value) -> Value {
        let mut cache: FxHashMap<ExprId, Value> = FxHashMap::default();
        self.eval_cached(id, nets, &mut cache)
    }

    fn eval_cached(
        &self,
        id: ExprId,
        nets: &dyn Fn(NetId) -> Value,
        cache: &mut FxHashMap<ExprId, Value>,
    ) -> Value {
        if let Some(v) = cache.get(&id) {
            return v.clone();
        }
        let v = match self.node(id).clone() {
            Expr::Const(v) => v,
            Expr::Net(n) => {
                let v = nets(n);
                assert_eq!(
                    v.width(),
                    self.width(id),
                    "net {n:?} evaluated at wrong width"
                );
                v
            }
            Expr::Not(a) => self.eval_cached(a, nets, cache).not(),
            Expr::And(a, b) => self
                .eval_cached(a, nets, cache)
                .and(&self.eval_cached(b, nets, cache)),
            Expr::Or(a, b) => self
                .eval_cached(a, nets, cache)
                .or(&self.eval_cached(b, nets, cache)),
            Expr::Xor(a, b) => self
                .eval_cached(a, nets, cache)
                .xor(&self.eval_cached(b, nets, cache)),
            Expr::RedAnd(a) => Value::bit_value(self.eval_cached(a, nets, cache).and_reduce()),
            Expr::RedOr(a) => Value::bit_value(self.eval_cached(a, nets, cache).or_reduce()),
            Expr::RedXor(a) => Value::bit_value(self.eval_cached(a, nets, cache).xor_reduce()),
            Expr::Add(a, b) => self
                .eval_cached(a, nets, cache)
                .add(&self.eval_cached(b, nets, cache)),
            Expr::Sub(a, b) => self
                .eval_cached(a, nets, cache)
                .sub(&self.eval_cached(b, nets, cache)),
            Expr::Mul(a, b) => self
                .eval_cached(a, nets, cache)
                .mul(&self.eval_cached(b, nets, cache)),
            Expr::Eq(a, b) => Value::bit_value(
                self.eval_cached(a, nets, cache) == self.eval_cached(b, nets, cache),
            ),
            Expr::Ne(a, b) => Value::bit_value(
                self.eval_cached(a, nets, cache) != self.eval_cached(b, nets, cache),
            ),
            Expr::Ult(a, b) => Value::bit_value(
                self.eval_cached(a, nets, cache)
                    .ult(&self.eval_cached(b, nets, cache)),
            ),
            Expr::Ule(a, b) => {
                let va = self.eval_cached(a, nets, cache);
                let vb = self.eval_cached(b, nets, cache);
                Value::bit_value(!vb.ult(&va))
            }
            Expr::Shl(a, n) => self.eval_cached(a, nets, cache).shl(n),
            Expr::Shr(a, n) => self.eval_cached(a, nets, cache).shr(n),
            Expr::Mux { cond, then_, else_ } => {
                if self.eval_cached(cond, nets, cache).bit(0) {
                    self.eval_cached(then_, nets, cache)
                } else {
                    self.eval_cached(else_, nets, cache)
                }
            }
            Expr::Concat(parts) => {
                // parts are MSB-first; fold from the last (LSB) upward.
                let mut acc: Option<Value> = None;
                for p in parts.iter().rev() {
                    let v = self.eval_cached(*p, nets, cache);
                    acc = Some(match acc {
                        None => v,
                        Some(lo) => lo.concat(&v),
                    });
                }
                acc.expect("empty concat") // lint: allow
            }
            Expr::Repeat(n, a) => {
                let v = self.eval_cached(a, nets, cache);
                let mut acc = v.clone();
                for _ in 1..n {
                    acc = acc.concat(&v);
                }
                acc
            }
            Expr::Slice(a, hi, lo) => self.eval_cached(a, nets, cache).slice(hi, lo),
        };
        cache.insert(id, v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn konst(a: &mut ExprArena, w: u32, v: u64) -> ExprId {
        a.add(Expr::Const(Value::from_u64(w, v)))
    }

    #[test]
    fn hash_consing_dedups() {
        let mut a = ExprArena::new();
        let x = konst(&mut a, 8, 42);
        let y = konst(&mut a, 8, 42);
        assert_eq!(x, y);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn widths_are_computed() {
        let mut a = ExprArena::new();
        let x = konst(&mut a, 8, 3);
        let y = konst(&mut a, 8, 5);
        let s = a.add(Expr::Add(x, y));
        assert_eq!(a.width(s), 8);
        let r = a.add(Expr::RedXor(s));
        assert_eq!(a.width(r), 1);
        let c = a.add(Expr::Concat(vec![x, y, r]));
        assert_eq!(a.width(c), 17);
        let sl = a.add(Expr::Slice(c, 8, 1));
        assert_eq!(a.width(sl), 8);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mixed_width_and_rejected() {
        let mut a = ExprArena::new();
        let x = konst(&mut a, 8, 3);
        let y = konst(&mut a, 4, 5);
        a.add(Expr::And(x, y));
    }

    #[test]
    #[should_panic(expected = "mux condition")]
    fn wide_mux_condition_rejected() {
        let mut a = ExprArena::new();
        let c = konst(&mut a, 2, 3);
        let x = konst(&mut a, 8, 3);
        a.add(Expr::Mux {
            cond: c,
            then_: x,
            else_: x,
        });
    }

    #[test]
    fn eval_arithmetic_and_mux() {
        let mut a = ExprArena::new();
        let n = a.net(NetId(0), 8);
        let five = konst(&mut a, 8, 5);
        let sum = a.add(Expr::Add(n, five));
        let big = a.add(Expr::Ult(five, n));
        let m = a.add(Expr::Mux {
            cond: big,
            then_: sum,
            else_: five,
        });
        let get = |_: NetId| Value::from_u64(8, 10);
        assert_eq!(a.eval(m, &get).to_u64(), 15);
        let get = |_: NetId| Value::from_u64(8, 2);
        assert_eq!(a.eval(m, &get).to_u64(), 5);
    }

    #[test]
    fn eval_concat_is_msb_first() {
        let mut a = ExprArena::new();
        let hi = konst(&mut a, 4, 0b1100);
        let lo = konst(&mut a, 4, 0b0011);
        let c = a.add(Expr::Concat(vec![hi, lo]));
        let v = a.eval(c, &|_| unreachable!());
        assert_eq!(v.to_u64(), 0b1100_0011);
    }

    #[test]
    fn support_collects_unique_nets() {
        let mut a = ExprArena::new();
        let n0 = a.net(NetId(0), 4);
        let n1 = a.net(NetId(1), 4);
        let x = a.add(Expr::Xor(n0, n1));
        let y = a.add(Expr::And(x, n0));
        assert_eq!(a.support(y), vec![NetId(0), NetId(1)]);
    }

    #[test]
    fn eval_reductions() {
        let mut a = ExprArena::new();
        let v = konst(&mut a, 3, 0b101);
        let rx = a.add(Expr::RedXor(v));
        let ra = a.add(Expr::RedAnd(v));
        let ro = a.add(Expr::RedOr(v));
        assert_eq!(a.eval(rx, &|_| unreachable!()).to_u64(), 0);
        assert_eq!(a.eval(ra, &|_| unreachable!()).to_u64(), 0);
        assert_eq!(a.eval(ro, &|_| unreachable!()).to_u64(), 1);
    }
}
