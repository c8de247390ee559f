//! Bit-blasting: flat word-level modules → And-Inverter Graphs.
//!
//! [`Module::to_aig`] lowers an instance-free module into a
//! [`veridic_aig::Aig`]: each net becomes a vector of literals, each
//! register a row of latches initialised to its reset value. Arithmetic is
//! expanded structurally (ripple-carry adders, shift-add multipliers,
//! borrow-chain comparators).

use crate::expr::{Expr, ExprId, NetId};
use crate::module::Module;
use crate::validate::ValidateError;
use veridic_aig::hash::FxHashMap;
use veridic_aig::{Aig, LatchId, Lit, Var};

/// Result of lowering a module to an AIG.
#[derive(Debug)]
pub struct LoweredAig {
    /// The graph.
    pub aig: Aig,
    /// Literal vector (LSB-first) for every net.
    pub net_bits: FxHashMap<NetId, Vec<Lit>>,
    /// AIG input vars for every input-port bit, `(net, bit) -> var`.
    pub input_vars: FxHashMap<(NetId, u32), Var>,
    /// Latch ids for every register bit, `(net, bit) -> latch`.
    pub latch_ids: FxHashMap<(NetId, u32), LatchId>,
}

impl LoweredAig {
    /// The literal of one bit of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net was not lowered (e.g. an unread, undriven net).
    pub fn bit(&self, net: NetId, bit: u32) -> Lit {
        self.net_bits[&net][bit as usize]
    }

    /// All bits of a net, LSB-first.
    pub fn bits(&self, net: NetId) -> &[Lit] {
        &self.net_bits[&net]
    }
}

impl Module {
    /// Bit-blasts this (instance-free) module into an AIG.
    ///
    /// Input ports become AIG primary inputs; registers become latches with
    /// their reset value as initial state (formal semantics: time zero is
    /// the freshly reset machine). Output ports are registered as AIG
    /// outputs named `port[bit]`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ValidateError`] if the module has multiple
    /// drivers, floating reads or combinational cycles.
    ///
    /// # Panics
    ///
    /// Panics if the module still contains instances — flatten first.
    pub fn to_aig(&self) -> Result<LoweredAig, ValidateError> {
        assert!(
            self.is_leaf(),
            "to_aig requires a flattened module; {} has instances",
            self.name
        );
        let drivers = self.drivers()?;
        let schedule = self.comb_schedule()?;
        let mut aig = Aig::new();
        let mut net_bits: FxHashMap<NetId, Vec<Lit>> = FxHashMap::default();
        let mut input_vars = FxHashMap::default();
        let mut latch_ids = FxHashMap::default();

        // Inputs first (stable order: port declaration order).
        for p in self.inputs() {
            let w = self.net_width(p.net);
            let mut bits = Vec::with_capacity(w as usize);
            for b in 0..w {
                let lit = aig.input(format!("{}[{b}]", p.name));
                input_vars.insert((p.net, b), lit.var());
                bits.push(lit);
            }
            net_bits.insert(p.net, bits);
        }
        // Latches next.
        for r in &self.regs {
            let w = self.net_width(r.q);
            let name = &self.net(r.q).name;
            let mut bits = Vec::with_capacity(w as usize);
            for b in 0..w {
                let (id, lit) = aig.latch(format!("{name}[{b}]"), r.reset_value.bit(b));
                latch_ids.insert((r.q, b), id);
                bits.push(lit);
            }
            net_bits.insert(r.q, bits);
        }
        // Combinational assigns in dependency order.
        let mut expr_cache: FxHashMap<ExprId, Vec<Lit>> = FxHashMap::default();
        for i in schedule {
            let (net, expr) = self.assigns[i];
            let bits = self.lower_expr(expr, &mut aig, &net_bits, &mut expr_cache);
            net_bits.insert(net, bits);
        }
        // Nets that are never driven and never read may be absent; that is
        // fine. But regs' next-state exprs may reference nets we already
        // have. Wire the latches now.
        for r in &self.regs {
            let next_bits = self.lower_expr(r.next, &mut aig, &net_bits, &mut expr_cache);
            for (b, lit) in next_bits.iter().enumerate() {
                aig.set_next(latch_ids[&(r.q, b as u32)], *lit);
            }
        }
        // Outputs.
        for p in self.outputs() {
            let bits = net_bits
                .get(&p.net)
                .unwrap_or_else(|| panic!("output {} has no driver", p.name));
            for (b, lit) in bits.iter().enumerate() {
                aig.add_output(format!("{}[{b}]", p.name), *lit);
            }
        }
        let _ = drivers;
        Ok(LoweredAig {
            aig,
            net_bits,
            input_vars,
            latch_ids,
        })
    }

    fn lower_expr(
        &self,
        id: ExprId,
        aig: &mut Aig,
        net_bits: &FxHashMap<NetId, Vec<Lit>>,
        cache: &mut FxHashMap<ExprId, Vec<Lit>>,
    ) -> Vec<Lit> {
        if let Some(bits) = cache.get(&id) {
            return bits.clone();
        }
        let bits: Vec<Lit> = match self.arena.node(id).clone() {
            Expr::Const(v) => (0..v.width())
                .map(|b| if v.bit(b) { Lit::TRUE } else { Lit::FALSE })
                .collect(),
            Expr::Net(n) => net_bits
                .get(&n)
                .unwrap_or_else(|| panic!("net {} lowered before its driver", self.net(n).name))
                .clone(),
            Expr::Not(a) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                a.into_iter().map(|l| !l).collect()
            }
            Expr::And(a, b) => self.lower_bitwise(a, b, aig, net_bits, cache, Aig::and),
            Expr::Or(a, b) => self.lower_bitwise(a, b, aig, net_bits, cache, Aig::or),
            Expr::Xor(a, b) => self.lower_bitwise(a, b, aig, net_bits, cache, Aig::xor),
            Expr::RedAnd(a) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                vec![aig.and_many(a)]
            }
            Expr::RedOr(a) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                vec![aig.or_many(a)]
            }
            Expr::RedXor(a) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let mut acc = Lit::FALSE;
                for l in a {
                    acc = aig.xor(acc, l);
                }
                vec![acc]
            }
            Expr::Add(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b = self.lower_expr(b, aig, net_bits, cache);
                ripple_add(aig, &a, &b, Lit::FALSE)
            }
            Expr::Sub(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b: Vec<Lit> = self
                    .lower_expr(b, aig, net_bits, cache)
                    .into_iter()
                    .map(|l| !l)
                    .collect();
                ripple_add(aig, &a, &b, Lit::TRUE)
            }
            Expr::Mul(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b = self.lower_expr(b, aig, net_bits, cache);
                let w = a.len();
                let mut acc = vec![Lit::FALSE; w];
                for (i, bi) in b.iter().enumerate() {
                    // acc += (a << i) & {w{b[i]}}
                    let shifted: Vec<Lit> = (0..w)
                        .map(|k| if k >= i { a[k - i] } else { Lit::FALSE })
                        .collect();
                    let gated: Vec<Lit> = shifted.iter().map(|l| aig.and(*l, *bi)).collect();
                    acc = ripple_add(aig, &acc, &gated, Lit::FALSE);
                }
                acc
            }
            Expr::Eq(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b = self.lower_expr(b, aig, net_bits, cache);
                let eqs: Vec<Lit> = a.iter().zip(&b).map(|(x, y)| aig.xnor(*x, *y)).collect();
                vec![aig.and_many(eqs)]
            }
            Expr::Ne(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b = self.lower_expr(b, aig, net_bits, cache);
                let eqs: Vec<Lit> = a.iter().zip(&b).map(|(x, y)| aig.xor(*x, *y)).collect();
                vec![aig.or_many(eqs)]
            }
            Expr::Ult(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b = self.lower_expr(b, aig, net_bits, cache);
                vec![ult(aig, &a, &b)]
            }
            Expr::Ule(a, b) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let b = self.lower_expr(b, aig, net_bits, cache);
                let gt = ult(aig, &b, &a);
                vec![!gt]
            }
            Expr::Shl(a, n) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let w = a.len();
                (0..w)
                    .map(|k| {
                        if (k as u32) >= n {
                            a[k - n as usize]
                        } else {
                            Lit::FALSE
                        }
                    })
                    .collect()
            }
            Expr::Shr(a, n) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let w = a.len();
                (0..w)
                    .map(|k| {
                        let src = k + n as usize;
                        if src < w {
                            a[src]
                        } else {
                            Lit::FALSE
                        }
                    })
                    .collect()
            }
            Expr::Mux { cond, then_, else_ } => {
                let c = self.lower_expr(cond, aig, net_bits, cache)[0];
                let t = self.lower_expr(then_, aig, net_bits, cache);
                let e = self.lower_expr(else_, aig, net_bits, cache);
                t.iter().zip(&e).map(|(x, y)| aig.mux(c, *x, *y)).collect()
            }
            Expr::Concat(parts) => {
                // MSB-first in the IR; LSB-first in bit vectors.
                let mut bits = Vec::new();
                for p in parts.iter().rev() {
                    bits.extend(self.lower_expr(*p, aig, net_bits, cache));
                }
                bits
            }
            Expr::Repeat(n, a) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                let mut bits = Vec::with_capacity(a.len() * n as usize);
                for _ in 0..n {
                    bits.extend(a.iter().copied());
                }
                bits
            }
            Expr::Slice(a, hi, lo) => {
                let a = self.lower_expr(a, aig, net_bits, cache);
                a[lo as usize..=hi as usize].to_vec()
            }
        };
        debug_assert_eq!(
            bits.len() as u32,
            self.arena.width(id),
            "lowered width mismatch"
        );
        cache.insert(id, bits.clone());
        bits
    }

    fn lower_bitwise(
        &self,
        a: ExprId,
        b: ExprId,
        aig: &mut Aig,
        net_bits: &FxHashMap<NetId, Vec<Lit>>,
        cache: &mut FxHashMap<ExprId, Vec<Lit>>,
        op: fn(&mut Aig, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        let a = self.lower_expr(a, aig, net_bits, cache);
        let b = self.lower_expr(b, aig, net_bits, cache);
        a.iter().zip(&b).map(|(x, y)| op(aig, *x, *y)).collect()
    }
}

/// Ripple-carry addition; returns `a + b + cin` truncated to `a.len()`.
fn ripple_add(aig: &mut Aig, a: &[Lit], b: &[Lit], cin: Lit) -> Vec<Lit> {
    let mut carry = cin;
    let mut out = Vec::with_capacity(a.len());
    for (x, y) in a.iter().zip(b) {
        let xy = aig.xor(*x, *y);
        let sum = aig.xor(xy, carry);
        // carry' = (x & y) | (carry & (x ^ y))
        let c1 = aig.and(*x, *y);
        let c2 = aig.and(carry, xy);
        carry = aig.or(c1, c2);
        out.push(sum);
    }
    out
}

/// Unsigned a < b via borrow chain.
fn ult(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    // borrow = 1 iff a < b; process LSB to MSB:
    // borrow' = (!a & b) | ((!a | b) & borrow)
    let mut borrow = Lit::FALSE;
    for (x, y) in a.iter().zip(b) {
        let nb1 = aig.and(!*x, *y);
        let t = aig.or(!*x, *y);
        let nb2 = aig.and(t, borrow);
        borrow = aig.or(nb1, nb2);
    }
    borrow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::PortDir;
    use crate::value::Value;

    /// Exhaustively checks a 2-input combinational module against an oracle.
    fn check_comb(m: &Module, wa: u32, wb: u32, oracle: impl Fn(u64, u64) -> u64) {
        let lowered = m.to_aig().unwrap();
        let a_net = m.find_port("a").unwrap().net;
        let b_net = m.find_port("b").unwrap().net;
        let y_net = m.find_port("y").unwrap().net;
        for av in 0..(1u64 << wa) {
            for bv in 0..(1u64 << wb) {
                let leaf = |v: Var| {
                    for bit in 0..wa {
                        if lowered.input_vars.get(&(a_net, bit)) == Some(&v) {
                            return (av >> bit) & 1 == 1;
                        }
                    }
                    for bit in 0..wb {
                        if lowered.input_vars.get(&(b_net, bit)) == Some(&v) {
                            return (bv >> bit) & 1 == 1;
                        }
                    }
                    panic!("unknown input var");
                };
                let mut got = 0u64;
                for (bit, lit) in lowered.bits(y_net).iter().enumerate() {
                    if lowered.aig.eval_comb(*lit, &leaf) {
                        got |= 1 << bit;
                    }
                }
                assert_eq!(got, oracle(av, bv), "mismatch at a={av} b={bv}");
            }
        }
    }

    fn comb_module(wy: u32, f: impl Fn(&mut Module, ExprId, ExprId) -> ExprId) -> Module {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 4);
        let b = m.add_port("b", PortDir::Input, 4);
        let y = m.add_port("y", PortDir::Output, wy);
        let ea = m.sig(a);
        let eb = m.sig(b);
        let e = f(&mut m, ea, eb);
        m.assign(y, e);
        m
    }

    #[test]
    fn add_matches_oracle() {
        let m = comb_module(4, |m, a, b| m.arena.add(Expr::Add(a, b)));
        check_comb(&m, 4, 4, |a, b| (a + b) & 0xF);
    }

    #[test]
    fn sub_matches_oracle() {
        let m = comb_module(4, |m, a, b| m.arena.add(Expr::Sub(a, b)));
        check_comb(&m, 4, 4, |a, b| a.wrapping_sub(b) & 0xF);
    }

    #[test]
    fn mul_matches_oracle() {
        let m = comb_module(4, |m, a, b| m.arena.add(Expr::Mul(a, b)));
        check_comb(&m, 4, 4, |a, b| (a * b) & 0xF);
    }

    #[test]
    fn comparisons_match_oracle() {
        let m = comb_module(1, |m, a, b| m.arena.add(Expr::Ult(a, b)));
        check_comb(&m, 4, 4, |a, b| (a < b) as u64);
        let m = comb_module(1, |m, a, b| m.arena.add(Expr::Ule(a, b)));
        check_comb(&m, 4, 4, |a, b| (a <= b) as u64);
        let m = comb_module(1, |m, a, b| m.arena.add(Expr::Eq(a, b)));
        check_comb(&m, 4, 4, |a, b| (a == b) as u64);
        let m = comb_module(1, |m, a, b| m.arena.add(Expr::Ne(a, b)));
        check_comb(&m, 4, 4, |a, b| (a != b) as u64);
    }

    #[test]
    fn parity_matches_oracle() {
        let m = comb_module(1, |m, a, b| {
            let x = m.arena.add(Expr::Xor(a, b));
            m.arena.add(Expr::RedXor(x))
        });
        check_comb(&m, 4, 4, |a, b| ((a ^ b).count_ones() % 2) as u64);
    }

    #[test]
    fn shifts_and_slices() {
        let m = comb_module(4, |m, a, _| m.arena.add(Expr::Shl(a, 2)));
        check_comb(&m, 4, 4, |a, _| (a << 2) & 0xF);
        let m = comb_module(2, |m, a, _| m.arena.add(Expr::Slice(a, 2, 1)));
        check_comb(&m, 4, 4, |a, _| (a >> 1) & 0b11);
    }

    #[test]
    fn mux_selects() {
        let m = comb_module(4, |m, a, b| {
            let c = m.arena.add(Expr::RedOr(a));
            m.arena.add(Expr::Mux {
                cond: c,
                then_: a,
                else_: b,
            })
        });
        check_comb(&m, 4, 4, |a, b| if a != 0 { a } else { b });
    }

    #[test]
    fn register_becomes_latch_with_reset_init() {
        let mut m = Module::new("m");
        let q = m.add_net("q", 4);
        let y = m.add_port("y", PortDir::Output, 4);
        let one = m.lit(4, 1);
        let eq_ = m.sig(q);
        let nxt = m.arena.add(Expr::Add(eq_, one));
        m.add_reg(q, nxt, Value::from_u64(4, 0b1000));
        let eq2 = m.sig(q);
        m.assign(y, eq2);
        let lowered = m.to_aig().unwrap();
        assert_eq!(lowered.aig.num_latches(), 4);
        // init = 0b1000: bit 3 set.
        let inits: Vec<bool> = lowered.aig.latches().iter().map(|l| l.init).collect();
        assert_eq!(inits, vec![false, false, false, true]);
        // Simulate: counts 8, 9, 10...
        let reports = lowered.aig.simulate(&vec![vec![]; 3]);
        let val = |r: &veridic_aig::CycleReport| -> u64 {
            r.outputs
                .iter()
                .enumerate()
                .map(|(i, b)| (*b as u64) << i)
                .sum()
        };
        assert_eq!(val(&reports[0]), 8);
        assert_eq!(val(&reports[1]), 9);
        assert_eq!(val(&reports[2]), 10);
    }

    #[test]
    fn concat_order_in_bits() {
        let mut m = Module::new("m");
        let a = m.add_port("a", PortDir::Input, 2);
        let b = m.add_port("b", PortDir::Input, 2);
        let y = m.add_port("y", PortDir::Output, 4);
        let ea = m.sig(a);
        let eb = m.sig(b);
        // y = {a, b}: a is the high half.
        let c = m.arena.add(Expr::Concat(vec![ea, eb]));
        m.assign(y, c);
        check_comb(&m, 2, 2, |a, b| a << 2 | b);
    }
}
