//! Leaf-module construction following the paper's Figure-1 abstraction.
//!
//! Every leaf has parity-protected input groups `I<g>` (odd parity over
//! the whole group), injectable state entities (FSMs, counters, datapath
//! registers — all carrying their own odd-parity bit), combinational
//! state checkers (Check1), registered input checkers (Check2), a
//! hardware-error report output `HE`, and parity-preserving output groups
//! `O<j>`.
//!
//! Checkpoints are annotated with `checkpoint.*` attributes; the
//! methodology layer (`veridic-core`) consumes these to produce the
//! Verifiable-RTL transform and the three stereotype vunits.

use crate::bugs::BugId;
use crate::plan::{LeafPlan, SpecialKind};
use veridic_netlist::{Expr, ExprId, Module, NetId, PortDir, Value};

/// Kinds of injectable state entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntityKind {
    /// Free-running FSM (steps on its command bit).
    Fsm,
    /// Always-incrementing counter.
    Counter,
    /// Parity-propagating datapath register.
    Datapath,
    /// Legal-state FSM confined to data values 0..=4 (carries a P3
    /// property).
    LegalFsm,
    /// CSR register with a reserved field (bug B1 host).
    Csr,
    /// The decoder output register (bugs B5/B6 host).
    DecoderOut,
}

impl EntityKind {
    fn as_str(self) -> &'static str {
        match self {
            EntityKind::Fsm => "fsm",
            EntityKind::Counter => "counter",
            EntityKind::Datapath => "datapath",
            EntityKind::LegalFsm => "legal_fsm",
            EntityKind::Csr => "csr",
            EntityKind::DecoderOut => "decoder_out",
        }
    }
}

/// The 91 valid decode addresses of the address-decoder module
/// (deterministic spread over the 8-bit space, excluding the protocol
/// command bytes).
pub fn valid_addresses() -> Vec<u8> {
    // 91 values: multiples of 2.8 ≈ stride walk, skipping the START byte.
    let mut out = Vec::with_capacity(91);
    let mut x: u32 = 7;
    while out.len() < 91 {
        x = (x * 53 + 11) % 256;
        let b = x as u8;
        if b != START_CMD && !out.contains(&b) {
            out.push(b);
        }
    }
    out.sort_unstable();
    out
}

/// The decoder protocol's start-transaction command byte.
pub const START_CMD: u8 = 0xA5;

/// Index into [`valid_addresses`] of the first parity-bugged decode case
/// (bug B5).
pub const B5_CASE: usize = 17;
/// Index of the second bugged case (B6).
pub const B6_CASE: usize = 53;

/// Builds a leaf module per the plan, optionally with a seeded bug.
///
/// # Panics
///
/// Panics if a bug id is passed for a plan whose `special` kind cannot
/// host it (caller pairs bugs with modules via `crate::bugs`).
pub fn build_leaf(plan: &LeafPlan, bug: Option<BugId>) -> Module {
    let mut b = LeafBuilder::new(plan, bug);
    b.ports();
    b.entities();
    b.checkers();
    b.outputs();
    b.payload();
    b.m.attrs
        .insert("chip.category".into(), plan.category.to_string());
    b.m.attrs
        .insert("chip.special".into(), format!("{:?}", plan.special));
    b.m.attrs
        .insert("he.width".into(), plan.he_bits.to_string());
    b.m.validate()
        .unwrap_or_else(|e| panic!("generated module {} invalid: {e}", plan.name));
    b.m
}

/// Width of generic parity-protected groups and entities (3 data bits +
/// 1 parity bit).
pub const GROUP_WIDTH: u32 = 4;
/// Width of the decoder data group and output (7 data + parity).
pub const DECODER_WIDTH: u32 = 8;

struct LeafBuilder<'a> {
    plan: &'a LeafPlan,
    bug: Option<BugId>,
    m: Module,
    in_nets: Vec<NetId>,
    cmd: Option<NetId>,
    addr: Option<NetId>,
    macro_valid: Option<NetId>,
    warm_done: Option<NetId>,
    entities: Vec<(NetId, EntityKind)>,
    in_groups: usize,
    n_entities: usize,
}

impl<'a> LeafBuilder<'a> {
    fn new(plan: &'a LeafPlan, bug: Option<BugId>) -> Self {
        // The decoder's group 0 is its wide data bus; datapath entities
        // need at least one generic 4-bit group, so shift one entity over
        // if the plan gave the decoder a single group.
        let (mut entities, mut in_groups) = (plan.entities, plan.in_groups);
        if plan.special == SpecialKind::AddressDecoder && in_groups < 2 {
            assert!(entities >= 2, "decoder plan too small");
            entities -= 1;
            in_groups += 1;
        }
        LeafBuilder {
            plan,
            bug,
            m: Module::new(plan.name.clone()),
            in_nets: Vec::new(),
            cmd: None,
            addr: None,
            macro_valid: None,
            warm_done: None,
            entities: Vec::new(),
            in_groups,
            n_entities: entities,
        }
    }

    fn ports(&mut self) {
        for g in 0..self.in_groups {
            let (name, width) = self.group_shape(g);
            let net = self.m.add_port(name, PortDir::Input, width);
            let he_bit = self.checker_he_bit(self.n_entities + g);
            let attrs = &mut self.m.net_mut(net).attrs;
            attrs.insert("checkpoint.kind".into(), "input_group".into());
            attrs.insert("checkpoint.index".into(), g.to_string());
            attrs.insert("checkpoint.he_bit".into(), he_bit.to_string());
            if self.plan.special == SpecialKind::MacroInterface && g == 0 {
                attrs.insert("checkpoint.guard".into(), "warm_done".into());
            }
            self.in_nets.push(net);
        }
        let cmd = self
            .m
            .add_port("CMD", PortDir::Input, self.n_entities.max(1) as u32);
        self.m
            .net_mut(cmd)
            .attrs
            .insert("checkpoint.kind".into(), "control".into());
        self.cmd = Some(cmd);
        if self.plan.special == SpecialKind::AddressDecoder {
            let addr = self.m.add_port("ADDR", PortDir::Input, 8);
            self.m
                .net_mut(addr)
                .attrs
                .insert("checkpoint.kind".into(), "control".into());
            self.addr = Some(addr);
        }
        if self.plan.special == SpecialKind::MacroInterface {
            let mv = self.m.add_port("MACRO_VALID", PortDir::Input, 1);
            self.m
                .net_mut(mv)
                .attrs
                .insert("checkpoint.kind".into(), "control".into());
            self.macro_valid = Some(mv);
            // Warm-up chain: warm_done rises at cycle 2 and stays high.
            let c0 = self.m.add_net("warm_c0", 1);
            let one = self.m.lit(1, 1);
            self.m.add_reg(c0, one, Value::zero(1));
            let c1 = self.m.add_net("warm_done", 1);
            let sc0 = self.m.sig(c0);
            self.m.add_reg(c1, sc0, Value::zero(1));
            self.warm_done = Some(c1);
        }
    }

    fn group_shape(&self, g: usize) -> (String, u32) {
        match (self.plan.special, g) {
            (SpecialKind::MacroInterface, 0) => ("MACRO_SIG".to_string(), GROUP_WIDTH),
            (SpecialKind::AddressDecoder, 0) => ("DATA".to_string(), DECODER_WIDTH),
            _ => (format!("I{g}"), GROUP_WIDTH),
        }
    }

    /// Round-robin mapping of checker index to HE bit. Checker indices:
    /// entities first, then input groups.
    fn checker_he_bit(&self, checker: usize) -> usize {
        checker % self.plan.he_bits
    }

    fn entity_kind(&self, e: usize) -> EntityKind {
        match (self.plan.special, e) {
            (SpecialKind::CsrFile, 0) => EntityKind::Csr,
            (SpecialKind::AddressDecoder, 0) => EntityKind::DecoderOut,
            _ => {
                // Special modules reserve entity 0; the P3 legal-state
                // FSMs occupy the first plan.p3 *generic* entity slots.
                let reserved = usize::from(matches!(
                    self.plan.special,
                    SpecialKind::CsrFile | SpecialKind::AddressDecoder
                ));
                if e >= reserved && e - reserved < self.plan.p3 {
                    EntityKind::LegalFsm
                } else {
                    match e % 3 {
                        0 => EntityKind::Fsm,
                        1 => EntityKind::Counter,
                        _ => EntityKind::Datapath,
                    }
                }
            }
        }
    }

    fn entities(&mut self) {
        for e in 0..self.n_entities {
            let kind = self.entity_kind(e);
            let width = if kind == EntityKind::DecoderOut {
                DECODER_WIDTH
            } else {
                GROUP_WIDTH
            };
            let q = self.m.add_net(format!("ent{e}_{}", kind.as_str()), width);
            let next = self.entity_next(e, kind, q, width);
            // Reset: zero data with correct odd parity => parity bit set.
            let mut reset = Value::zero(width);
            reset.set_bit(width - 1, true);
            self.m.add_reg(q, next, reset);
            let he_bit = self.checker_he_bit(e);
            let attrs = &mut self.m.net_mut(q).attrs;
            attrs.insert("checkpoint.kind".into(), "entity".into());
            attrs.insert("checkpoint.entity_kind".into(), kind.as_str().into());
            attrs.insert("checkpoint.index".into(), e.to_string());
            attrs.insert("checkpoint.he_bit".into(), he_bit.to_string());
            if kind == EntityKind::LegalFsm {
                attrs.insert("checkpoint.legal_max".into(), "4".into());
            }
            self.entities.push((q, kind));
        }
    }

    /// {parity, data} with parity = ~^data (odd total parity).
    fn with_parity(&mut self, data: ExprId) -> ExprId {
        let p = self.m.arena.add(Expr::RedXor(data));
        let np = self.m.arena.add(Expr::Not(p));
        self.m.arena.add(Expr::Concat(vec![np, data]))
    }

    fn cmd_bit(&mut self, e: usize) -> ExprId {
        let cmd = self.cmd.expect("CMD port exists");
        self.m.sig_bit(cmd, e as u32)
    }

    fn entity_next(&mut self, e: usize, kind: EntityKind, q: NetId, width: u32) -> ExprId {
        let sq = self.m.sig(q);
        let data = self.m.arena.add(Expr::Slice(sq, width - 2, 0));
        match kind {
            EntityKind::Fsm => {
                let one = self.m.lit(width - 1, 1);
                let inc = self.m.arena.add(Expr::Add(data, one));
                let stepped = if self.bug == Some(BugId::B0) && e == 0 {
                    // B0: parity bit NOT recomputed on the (common) step
                    // transition — the stale bit goes stale whenever the
                    // increment flips data parity.
                    let old_p = self.m.arena.add(Expr::Slice(sq, width - 1, width - 1));
                    self.m.arena.add(Expr::Concat(vec![old_p, inc]))
                } else {
                    self.with_parity(inc)
                };
                let c = self.cmd_bit(e);
                self.m.arena.add(Expr::Mux {
                    cond: c,
                    then_: stepped,
                    else_: sq,
                })
            }
            EntityKind::LegalFsm => {
                // data' = (data == 4) ? 0 : data + 1 when stepped.
                let one = self.m.lit(width - 1, 1);
                let inc = self.m.arena.add(Expr::Add(data, one));
                let four = self.m.lit(width - 1, 4);
                let at4 = self.m.arena.add(Expr::Eq(data, four));
                let zero = self.m.lit(width - 1, 0);
                let wrapped = self.m.arena.add(Expr::Mux {
                    cond: at4,
                    then_: zero,
                    else_: inc,
                });
                let stepped = if self.bug == Some(BugId::B0) && e == 0 {
                    // B0 can land on a legal-state FSM when it is the
                    // module's first entity: same stale-parity defect.
                    let old_p = self.m.arena.add(Expr::Slice(sq, width - 1, width - 1));
                    self.m.arena.add(Expr::Concat(vec![old_p, wrapped]))
                } else {
                    self.with_parity(wrapped)
                };
                let c = self.cmd_bit(e);
                self.m.arena.add(Expr::Mux {
                    cond: c,
                    then_: stepped,
                    else_: sq,
                })
            }
            EntityKind::Counter => {
                let one = self.m.lit(width - 1, 1);
                let inc = self.m.arena.add(Expr::Add(data, one));
                if self.bug == Some(BugId::B2)
                    && matches!(self.entity_kind(e), EntityKind::Counter)
                    && self.first_counter() == e
                {
                    // B2: on wrap (data all-ones), the parity bit keeps its
                    // old value instead of being recomputed.
                    let ones = self.m.lit(width - 1, (1u64 << (width - 1)) - 1);
                    let at_wrap = self.m.arena.add(Expr::Eq(data, ones));
                    let old_p = self.m.arena.add(Expr::Slice(sq, width - 1, width - 1));
                    let wrong = self.m.arena.add(Expr::Concat(vec![old_p, inc]));
                    let right = self.with_parity(inc);
                    self.m.arena.add(Expr::Mux {
                        cond: at_wrap,
                        then_: wrong,
                        else_: right,
                    })
                } else {
                    self.with_parity(inc)
                }
            }
            EntityKind::Datapath => {
                // dp' = I_g1 ^ I_g2 ^ 4'b0001: odd # of odd-parity terms.
                let g1 = self.generic_group(e);
                let g2 = self.generic_group(e + 1);
                let s1 = self.m.sig(g1);
                let s2 = self.m.sig(g2);
                let x = self.m.arena.add(Expr::Xor(s1, s2));
                let c = self.m.lit(width, 1);
                self.m.arena.add(Expr::Xor(x, c))
            }
            EntityKind::Csr => {
                // State layout: [p, rsv, d1, d0]. Write from I0's low bits.
                let wdata_net = self.in_nets[0];
                let wv = self.m.sig(wdata_net);
                let d10 = self.m.arena.add(Expr::Slice(wv, 1, 0));
                let rsv = self.m.arena.add(Expr::Slice(wv, 2, 2));
                let stored = self.m.arena.add(Expr::Concat(vec![rsv, d10]));
                let parity = if self.bug == Some(BugId::B1) {
                    // B1: parity computed over the documented fields only —
                    // a non-zero reserved-field write corrupts the stored
                    // parity.
                    let p = self.m.arena.add(Expr::RedXor(d10));
                    self.m.arena.add(Expr::Not(p))
                } else {
                    let p = self.m.arena.add(Expr::RedXor(stored));
                    self.m.arena.add(Expr::Not(p))
                };
                let written = self.m.arena.add(Expr::Concat(vec![parity, stored]));
                let c = self.cmd_bit(e);
                self.m.arena.add(Expr::Mux {
                    cond: c,
                    then_: written,
                    else_: sq,
                })
            }
            EntityKind::DecoderOut => self.decoder_next(sq),
        }
    }

    /// First Counter entity index (B2 target).
    fn first_counter(&self) -> usize {
        (0..self.n_entities)
            .find(|e| self.entity_kind(*e) == EntityKind::Counter)
            .unwrap_or(0)
    }

    /// A generic (4-bit) input group for datapath sourcing; skips the
    /// decoder's wide group 0.
    fn generic_group(&mut self, i: usize) -> NetId {
        let start = if self.plan.special == SpecialKind::AddressDecoder {
            1
        } else {
            0
        };
        let n = self.in_groups - start;
        self.in_nets[start + i % n]
    }

    fn decoder_next(&mut self, sq: ExprId) -> ExprId {
        // Protocol: a START_CMD byte on ADDR arms `started`; a valid
        // decode address in the next cycle latches the decode result.
        let addr = self.addr.expect("decoder has ADDR");
        let saddr = self.m.sig(addr);
        let start_c = self.m.lit(8, START_CMD as u64);
        let is_start = self.m.arena.add(Expr::Eq(saddr, start_c));
        let started = self.m.add_net("started", 1);
        self.m.add_reg(started, is_start, Value::zero(1));
        let sstarted = self.m.sig(started);

        let valids = valid_addresses();
        let mut valid: Option<ExprId> = None;
        for v in &valids {
            let c = self.m.lit(8, *v as u64);
            let eq = self.m.arena.add(Expr::Eq(saddr, c));
            valid = Some(match valid {
                None => eq,
                Some(acc) => self.m.arena.add(Expr::Or(acc, eq)),
            });
        }
        let valid = valid.expect("91 valid cases");
        let fire = self.m.arena.add(Expr::And(sstarted, valid));

        // Decode result: data' = DATA[6:0] ^ {ADDR[6:0] mix}.
        let data_net = self.in_nets[0];
        let sdata = self.m.sig(data_net);
        let d = self.m.arena.add(Expr::Slice(sdata, 6, 0));
        let amix = self.m.arena.add(Expr::Slice(saddr, 6, 0));
        let mixed = self.m.arena.add(Expr::Xor(d, amix));
        // Parity: recomputed over the full result — except, with bugs B5
        // or B6, for one specific valid address the tree omits one data
        // bit, so the stored parity is wrong exactly when that bit is 1.
        let full_p = self.m.arena.add(Expr::RedXor(mixed));
        let full_np = self.m.arena.add(Expr::Not(full_p));
        // Bug cases: `Some(B5)` seeds BOTH bad decode cases (the chip has
        // two independent decoder bugs, B5 and B6, in the same module);
        // `Some(B6)` seeds only the second, for isolation in unit tests.
        let mut bad_cases: Vec<(usize, u32)> = Vec::new();
        if self.bug == Some(BugId::B5) {
            bad_cases.push((B5_CASE, 4));
            bad_cases.push((B6_CASE, 2));
        } else if self.bug == Some(BugId::B6) {
            bad_cases.push((B6_CASE, 2));
        }
        let mut parity = full_np;
        for (case, omit) in bad_cases {
            let bad_addr = self.m.lit(8, valids[case] as u64);
            let is_bad = self.m.arena.add(Expr::Eq(saddr, bad_addr));
            // Omit one bit from the parity tree: wrong iff that bit is 1.
            let hi = self.m.arena.add(Expr::Slice(mixed, 6, omit + 1));
            let lo = if omit > 0 {
                Some(self.m.arena.add(Expr::Slice(mixed, omit - 1, 0)))
            } else {
                None
            };
            let partial = match lo {
                Some(lo) => self.m.arena.add(Expr::Concat(vec![hi, lo])),
                None => hi,
            };
            let pp = self.m.arena.add(Expr::RedXor(partial));
            let pnp = self.m.arena.add(Expr::Not(pp));
            parity = self.m.arena.add(Expr::Mux {
                cond: is_bad,
                then_: pnp,
                else_: parity,
            });
        }
        let result = self.m.arena.add(Expr::Concat(vec![parity, mixed]));
        self.m.arena.add(Expr::Mux {
            cond: fire,
            then_: result,
            else_: sq,
        })
    }

    fn checkers(&mut self) {
        let he_bits = self.plan.he_bits;
        let mut he_terms: Vec<Vec<ExprId>> = vec![Vec::new(); he_bits];
        // Check1: combinational parity check per entity.
        for (e, (q, _)) in self.entities.clone().into_iter().enumerate() {
            let sq = self.m.sig(q);
            let p = self.m.arena.add(Expr::RedXor(sq));
            let bad = self.m.arena.add(Expr::Not(p));
            he_terms[self.checker_he_bit(e)].push(bad);
        }
        // Check2: registered parity check per input group.
        for (g, net) in self.in_nets.clone().into_iter().enumerate() {
            let s = self.m.sig(net);
            let p = self.m.arena.add(Expr::RedXor(s));
            let bad = self.m.arena.add(Expr::Not(p));
            let gated = if self.plan.special == SpecialKind::MacroInterface && g == 0 {
                // The macro contract: data undefined until warm_done. The
                // clean design gates the checker with the internal warm-up
                // counter; the B3 design trusts the macro's own VALID pin —
                // whose simulation model is (wrongly) always-high.
                let gate = if self.bug == Some(BugId::B3) {
                    let mv = self.macro_valid.expect("macro has MACRO_VALID");
                    self.m.sig(mv)
                } else {
                    let wd = self.warm_done.expect("macro has warm_done");
                    self.m.sig(wd)
                };
                self.m.arena.add(Expr::And(gate, bad))
            } else {
                bad
            };
            let q = self.m.add_net(format!("in_chk{g}_q"), 1);
            self.m.add_reg(q, gated, Value::zero(1));
            let sq = self.m.sig(q);
            he_terms[self.checker_he_bit(self.n_entities + g)].push(sq);
        }
        let he = self.m.add_port("HE", PortDir::Output, he_bits as u32);
        self.m
            .net_mut(he)
            .attrs
            .insert("checkpoint.kind".into(), "he".into());
        let mut bits: Vec<ExprId> = Vec::new(); // MSB-first for concat
        for j in (0..he_bits).rev() {
            let terms = he_terms[j].clone();
            let bit = terms
                .into_iter()
                .reduce(|a, b| self.m.arena.add(Expr::Or(a, b)))
                .unwrap_or_else(|| self.m.lit(1, 0));
            bits.push(bit);
        }
        let he_expr = if bits.len() == 1 {
            bits[0]
        } else {
            self.m.arena.add(Expr::Concat(bits))
        };
        self.m.assign(he, he_expr);
    }

    fn outputs(&mut self) {
        // 4-bit-capable sources: generic entities + generic groups.
        let narrow_entities: Vec<NetId> = self
            .entities
            .iter()
            .filter(|(_, k)| *k != EntityKind::DecoderOut)
            .map(|(q, _)| *q)
            .collect();
        let start = if self.plan.special == SpecialKind::AddressDecoder {
            1
        } else {
            0
        };
        let narrow_groups: Vec<NetId> = self.in_nets[start..].to_vec();
        let mut sources: Vec<NetId> = narrow_entities;
        sources.extend(narrow_groups);
        assert!(
            !sources.is_empty(),
            "module {} has no 4-bit sources",
            self.plan.name
        );

        for j in 0..self.plan.out_groups {
            let (name, width) = if self.plan.special == SpecialKind::AddressDecoder && j == 0 {
                (format!("O{j}"), DECODER_WIDTH)
            } else {
                (format!("O{j}"), GROUP_WIDTH)
            };
            let port = self.m.add_port(name, PortDir::Output, width);
            let attrs = &mut self.m.net_mut(port).attrs;
            attrs.insert("checkpoint.kind".into(), "output_group".into());
            attrs.insert("checkpoint.index".into(), j.to_string());

            if self.plan.special == SpecialKind::AddressDecoder && j == 0 {
                // O0 is the decoder result register, passed through.
                let (q, _) = self.entities[0];
                let sq = self.m.sig(q);
                self.m.assign(port, sq);
                continue;
            }
            // XOR of three sources (odd parity count; duplicates cancel in
            // pairs and keep the count odd).
            let s1 = sources[j % sources.len()];
            let s2 = sources[(j * 2 + 1) % sources.len()];
            let s3 = sources[(j * 3 + 2) % sources.len()];
            let e1 = self.m.sig(s1);
            let e2 = self.m.sig(s2);
            let e3 = self.m.sig(s3);
            let x12 = self.m.arena.add(Expr::Xor(e1, e2));
            if self.bug == Some(BugId::B4) && j == 0 {
                // B4: the CMD[0]-selected mux path drops the third source
                // without a parity correction, emitting even parity. The
                // select is a common condition, so simulation trips over
                // it quickly (Table 3 classifies B4 as easy).
                let sel = self.cmd_bit(0);
                let x123 = self.m.arena.add(Expr::Xor(x12, e3));
                let muxed = self.m.arena.add(Expr::Mux {
                    cond: sel,
                    then_: x12,
                    else_: x123,
                });
                self.m.assign(port, muxed);
            } else {
                let x123 = self.m.arena.add(Expr::Xor(x12, e3));
                self.m.assign(port, x123);
            }
        }
    }
}

impl<'a> LeafBuilder<'a> {
    /// Non-checkpointed bulk logic: a 64-bit XOR/ADD pipeline seeded from
    /// the input groups, sunk to a dedicated `PAYLOAD` output. It models
    /// the module's ordinary datapath mass (the paper's modules are far
    /// larger than their checkpoint logic, which is why the injection
    /// feature costs <2 % area). The payload is combinational and feeds
    /// no property, so cone-of-influence reduction removes it from every
    /// formal check.
    fn payload(&mut self) {
        if self.plan.payload_depth == 0 {
            return;
        }
        // Seed: replicate the first input group out to 64 bits.
        let src = self.in_nets[0];
        let w = self.m.net_width(src);
        let reps = 64 / w + u32::from(64 % w != 0);
        let s = self.m.sig(src);
        let wide = self.m.arena.add(Expr::Repeat(reps, s));
        let total = reps * w;
        let mut acc = self.m.arena.add(Expr::Slice(wide, 63, 0));
        let _ = total;
        for k in 0..self.plan.payload_depth {
            let rot = self.m.arena.add(Expr::Shl(acc, (k as u32 % 13) + 1));
            let x = self.m.arena.add(Expr::Xor(acc, rot));
            let shr = self.m.arena.add(Expr::Shr(acc, 7));
            acc = self.m.arena.add(Expr::Add(x, shr));
        }
        let out = self.m.add_port("PAYLOAD", PortDir::Output, 64);
        self.m
            .net_mut(out)
            .attrs
            .insert("checkpoint.kind".into(), "control".into());
        self.m.assign(out, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plans, Scale};

    fn plan_for(special: SpecialKind) -> LeafPlan {
        build_plans(Scale::Small)
            .into_iter()
            .find(|p| p.special == special)
            .expect("plan exists")
    }

    #[test]
    fn generic_leaf_builds_and_validates() {
        let plans = build_plans(Scale::Small);
        for p in &plans {
            let m = build_leaf(p, None);
            assert!(m.validate().is_ok(), "{}", p.name);
            assert_eq!(
                m.outputs().count(),
                p.out_groups + 2, // +HE +PAYLOAD
                "{}: output count",
                p.name
            );
        }
    }

    #[test]
    fn entity_census_matches_plan() {
        let p = build_plans(Scale::Small)
            .into_iter()
            .find(|p| p.special == SpecialKind::Generic)
            .unwrap();
        let m = build_leaf(&p, None);
        let entities = m
            .nets
            .iter()
            .filter(|n| n.attrs.get("checkpoint.kind").map(String::as_str) == Some("entity"))
            .count();
        let groups = m
            .nets
            .iter()
            .filter(|n| n.attrs.get("checkpoint.kind").map(String::as_str) == Some("input_group"))
            .count();
        assert_eq!(entities, p.entities);
        assert_eq!(groups, p.in_groups);
    }

    #[test]
    fn valid_addresses_are_91_unique_non_start() {
        let v = valid_addresses();
        assert_eq!(v.len(), 91);
        let set: std::collections::HashSet<_> = v.iter().collect();
        assert_eq!(set.len(), 91);
        assert!(!v.contains(&START_CMD));
    }

    #[test]
    fn clean_leaf_parity_invariant_holds_in_simulation() {
        use veridic_sim::{Simulator, Stimulus, UniformRandom};
        let p = plan_for(SpecialKind::Generic);
        let m = build_leaf(&p, None);
        let mut sim = Simulator::new(&m).unwrap();
        // Drive odd-parity input groups and random CMD.
        let mut rng = UniformRandom::new(11);
        for _ in 0..200 {
            for port in m
                .inputs()
                .map(|p| (p.net, p.name.clone()))
                .collect::<Vec<_>>()
            {
                let w = m.net_width(port.0);
                let mut v = rng.random_value(w);
                if m.net(port.0)
                    .attrs
                    .get("checkpoint.kind")
                    .map(String::as_str)
                    == Some("input_group")
                {
                    // Force odd parity.
                    if !v.xor_reduce() {
                        v.set_bit(0, !v.bit(0));
                    }
                }
                sim.poke_net(port.0, v).unwrap();
            }
            sim.settle();
            assert!(
                sim.peek("HE").unwrap().is_zero(),
                "false alarm in clean design"
            );
            sim.step();
        }
        let _ = &mut rng as &mut dyn Stimulus;
    }

    #[test]
    fn b0_bug_trips_he_quickly() {
        use veridic_sim::{Simulator, UniformRandom};
        let plans = build_plans(Scale::Small);
        let p = &plans[0]; // category A module 0 hosts B0
        let m = build_leaf(p, Some(BugId::B0));
        let mut sim = Simulator::new(&m).unwrap();
        let mut rng = UniformRandom::new(3);
        let mut fired = false;
        for _ in 0..50 {
            for port in m
                .inputs()
                .map(|p| (p.net, p.name.clone()))
                .collect::<Vec<_>>()
            {
                let w = m.net_width(port.0);
                let mut v = rng.random_value(w);
                if m.net(port.0)
                    .attrs
                    .get("checkpoint.kind")
                    .map(String::as_str)
                    == Some("input_group")
                    && !v.xor_reduce()
                {
                    v.set_bit(0, !v.bit(0));
                }
                sim.poke_net(port.0, v).unwrap();
            }
            sim.settle();
            if !sim.peek("HE").unwrap().is_zero() {
                fired = true;
                break;
            }
            sim.step();
        }
        assert!(fired, "B0 must raise a false alarm within 50 random cycles");
    }

    #[test]
    fn decoder_builds_with_bugs() {
        let p = plan_for(SpecialKind::AddressDecoder);
        for bug in [None, Some(BugId::B5), Some(BugId::B6)] {
            let m = build_leaf(&p, bug);
            assert!(m.validate().is_ok());
            assert!(m.find_net("ADDR").is_some());
            assert!(m.find_net("started").is_some());
        }
    }

    #[test]
    fn csr_and_macro_build() {
        let csr = build_leaf(&plan_for(SpecialKind::CsrFile), Some(BugId::B1));
        assert!(csr.nets.iter().any(|n| n.name.starts_with("ent0_csr")));
        let mac = build_leaf(&plan_for(SpecialKind::MacroInterface), Some(BugId::B3));
        assert!(mac.find_net("MACRO_SIG").is_some());
        assert!(mac.find_net("warm_done").is_some());
    }
}
