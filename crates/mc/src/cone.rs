//! The cone of influence of one bad, and the [`ConeCache`] that checks
//! each distinct cone of a campaign once.
//!
//! The paper writes the same stereotype properties for every leaf
//! module, and leaves built from the same plan lower to byte-identical
//! cones: the Small chip's 158 properties are 118 distinct cones, the
//! Full census's 2047 only 357. Every engine run is a deterministic
//! function of the cone it is given, the options and the resume state
//! (the [`crate::Engine`] contract), so the result of one fresh check
//! of a cone holds for every later property with the same cone, once
//! its names and its counterexample's inputs are mapped over.

use crate::portfolio::replay_blame;
use crate::{CheckOptions, CheckResult, CheckStats, Portfolio, Trace, Verdict};
use std::sync::{Mutex, PoisonError};
use veridic_aig::hash::FxHashMap;
use veridic_aig::{Aig, Lit, Var};

/// The cone of influence of one bad: the single-bad AIG the portfolio
/// hands to its engines (the bad plus every constraint of the full
/// AIG), and where each of its inputs sits in the full AIG.
pub(crate) struct Cone {
    /// The cone: bad 0 is the property, followed by every constraint.
    pub(crate) aig: Aig,
    /// The bad's index in the full AIG.
    bad_index: usize,
    /// `inputs[i]` is the full AIG's index of the cone's input `i`.
    inputs: Vec<usize>,
}

impl Cone {
    /// Extracts the cone of bad `bad_index` of `aig`. Constraints are
    /// roots too: they must keep their meaning on every path.
    pub(crate) fn of(aig: &Aig, bad_index: usize) -> Cone {
        let bad = &aig.bads()[bad_index];
        let mut roots = vec![bad.lit];
        roots.extend(aig.constraints().iter().map(|c| c.lit));
        let coi = aig.extract_coi(&roots);
        let mut sub = coi.aig;
        sub.add_bad(bad.name.clone(), coi.roots[0]);
        for (i, c) in aig.constraints().iter().enumerate() {
            sub.add_constraint(c.name.clone(), coi.roots[1 + i]);
        }
        let mut inputs = vec![0; sub.num_inputs()];
        for (old_var, new_var) in &coi.input_map {
            let new = sub.input_index(*new_var).expect("mapped input var"); // lint: allow
            inputs[new] = aig.input_index(*old_var).expect("input var"); // lint: allow
        }
        Cone {
            aig: sub,
            bad_index,
            inputs,
        }
    }

    /// Maps a counterexample over the cone's inputs to one over the
    /// inputs of `aig`, the full AIG (inputs outside the cone stay low),
    /// for the cone's bad, and replays it there.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not replay on `aig` (a checker bug);
    /// `blame` names the engine that built it.
    pub(crate) fn replayed(&self, aig: &Aig, trace: &Trace, blame: &str) -> Trace {
        let inputs = trace
            .inputs
            .iter()
            .map(|cycle| {
                let mut full = vec![false; aig.num_inputs()];
                for (&at, &value) in self.inputs.iter().zip(cycle) {
                    full[at] = value;
                }
                full
            })
            .collect();
        let full = Trace {
            inputs,
            bad_index: self.bad_index,
        };
        assert!(full.replays_on(aig), "{blame} counterexample failed replay");
        full
    }

    /// The inverse of [`Cone::replayed`]'s mapping: a counterexample over
    /// the full AIG's inputs restricted to the cone's, on the cone's bad.
    fn contract(&self, trace: &Trace) -> Trace {
        let inputs = trace
            .inputs
            .iter()
            .map(|cycle| self.inputs.iter().map(|&at| cycle[at]).collect())
            .collect();
        Trace {
            inputs,
            bad_index: 0,
        }
    }

    /// The exact, name-free words of the cone: the node count, then
    /// every node in index order (a tag, and an AND's two fanin
    /// literals), each latch's next-state literal and init value, the
    /// bad literal, and the constraint literals in order.
    fn key(&self) -> Box<[u32]> {
        const INPUT: u32 = 0;
        const LATCH: u32 = 1;
        const AND: u32 = 2;
        let word = |l: Lit| l.var().0 << 1 | u32::from(l.is_compl());
        let g = &self.aig;
        let mut words = Vec::with_capacity(
            1 + 3 * g.num_nodes() + 2 * g.num_latches() + 1 + g.constraints().len(),
        );
        words.push(g.num_nodes() as u32);
        for v in 1..g.num_nodes() as u32 {
            let var = Var(v);
            match g.and_fanins(var) {
                Some((a, b)) => words.extend([AND, word(a), word(b)]),
                None if g.is_input(var) => words.push(INPUT),
                None => words.push(LATCH),
            }
        }
        for l in g.latches() {
            words.extend([word(l.next), u32::from(l.init)]);
        }
        words.push(word(g.bads()[0].lit));
        words.extend(g.constraints().iter().map(|c| word(c.lit)));
        words.into_boxed_slice()
    }
}

/// The results of fresh single-bad checks, keyed by the exact, name-free
/// cone of influence the engines see, replayed for every later bad with
/// the same cone.
///
/// The key is the cone's words: its nodes in index order with their
/// fanins, its latches' next-state literals and init values, the bad
/// literal and the constraint literals. Names are not part of it, and a
/// hit compares the whole key. A hit writes the checked bad's name into
/// every event and per-bad COI entry, and maps the stored
/// counterexample, kept over the cone's inputs, to the bad's own AIG
/// and bad index, replaying it there under the same assertion the
/// engines' traces pass.
///
/// Neither options nor portfolio are part of the key: one cache serves
/// one portfolio under one set of options, such as one campaign run or
/// one service worker process. It is `Sync`, so the threads of one
/// campaign share it.
#[derive(Default)]
pub struct ConeCache {
    entries: Mutex<FxHashMap<Box<[u32]>, CheckResult>>,
}

/// A [`ConeCache::lookup`] that found no result for its cone: hand it
/// back to [`ConeCache::fill`] with the result of a fresh check.
pub struct ConeMiss {
    cone: Box<Cone>,
    key: Box<[u32]>,
}

impl ConeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct cones stored.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if no cone is stored.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The map. Every update is one whole insert, so a map left by a
    /// thread that panicked while holding the lock is still valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<Box<[u32]>, CheckResult>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Portfolio::check_bad`] of bad `bad_index` into fresh
    /// statistics, or, when a check of the same cone is stored, its
    /// result replayed for this bad. A miss stores its result.
    ///
    /// # Panics
    ///
    /// See [`Portfolio::check`]; a replayed counterexample is checked
    /// the same way.
    pub fn check_bad(
        &self,
        portfolio: &Portfolio,
        aig: &Aig,
        bad_index: usize,
        opts: &CheckOptions,
    ) -> CheckResult {
        match self.lookup(aig, bad_index) {
            Ok(hit) => hit,
            Err(miss) => {
                let mut stats = CheckStats::default();
                let verdict = portfolio.check_cone(aig, &miss.cone, opts, &mut stats);
                let result = CheckResult { verdict, stats };
                self.fill(miss, &result);
                result
            }
        }
    }

    /// The stored result for the cone of bad `bad_index` of `aig`,
    /// replayed for that bad, or the miss to [`ConeCache::fill`] once
    /// the bad has been checked.
    ///
    /// # Panics
    ///
    /// Panics if a stored counterexample does not replay on `aig`.
    pub fn lookup(&self, aig: &Aig, bad_index: usize) -> Result<CheckResult, ConeMiss> {
        let cone = Cone::of(aig, bad_index);
        let key = cone.key();
        let stored = self.lock().get(&key).cloned();
        let Some(CheckResult { verdict, mut stats }) = stored else {
            return Err(ConeMiss {
                cone: Box::new(cone),
                key,
            });
        };
        let name = &aig.bads()[bad_index].name;
        for e in &mut stats.events {
            e.bad.clone_from(name);
        }
        for c in &mut stats.per_bad_coi {
            c.bad.clone_from(name);
        }
        let verdict = match verdict {
            Verdict::Falsified(t) => {
                let blame = stats
                    .events
                    .last()
                    .map_or("cached", |e| replay_blame(e.engine));
                Verdict::Falsified(cone.replayed(aig, &t, blame))
            }
            other => other,
        };
        Ok(CheckResult { verdict, stats })
    }

    /// Stores `result`, which must be what a fresh check of the missed
    /// bad concluded (one run from the start, never resumed from a
    /// checkpoint), for every later bad with the same cone.
    pub fn fill(&self, miss: ConeMiss, result: &CheckResult) {
        let verdict = match &result.verdict {
            Verdict::Falsified(t) => Verdict::Falsified(miss.cone.contract(t)),
            other => other.clone(),
        };
        let stats = result.stats.clone();
        self.lock()
            .entry(miss.key)
            .or_insert(CheckResult { verdict, stats });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latch `q` that loads input `x`: `q` high is falsified at depth
    /// 1 with `x` high in cycle 0. With `junk`, the AIG first gets an
    /// input and a bad outside that cone, so the property is bad 1 and
    /// `x` is input 1.
    fn load_aig(junk: bool, prefix: &str) -> Aig {
        let mut g = Aig::new();
        if junk {
            let j = g.input(format!("{prefix}junk"));
            let (s, stuck) = g.latch(format!("{prefix}stuck"), false);
            let next = g.and(stuck, j);
            g.set_next(s, next);
            g.add_bad(format!("{prefix}stuck_high"), stuck);
        }
        let x = g.input(format!("{prefix}x"));
        let (l, q) = g.latch(format!("{prefix}q"), false);
        g.set_next(l, x);
        g.add_bad(format!("{prefix}q_high"), q);
        g
    }

    /// A hit maps the stored counterexample to its own AIG: its own
    /// width, its own input positions and its own bad index, and its
    /// own names in the event log.
    #[test]
    fn a_hit_replays_its_trace_on_its_own_aig() {
        let (p, opts) = (Portfolio::default(), CheckOptions::default());
        let (a, b) = (load_aig(false, "a_"), load_aig(true, "b_"));
        let cones = ConeCache::new();
        let first = cones.check_bad(&p, &a, 0, &opts);
        assert!(first.verdict.is_falsified(), "{:?}", first.verdict);
        let hit = cones.check_bad(&p, &b, 1, &opts);
        assert_eq!(
            cones.len(),
            1,
            "bad 1 of the second AIG has the first's cone"
        );

        let Verdict::Falsified(t) = &hit.verdict else {
            panic!("expected a falsification, got {:?}", hit.verdict)
        };
        assert_eq!(t.bad_index, 1);
        assert!(t.inputs.iter().all(|cycle| cycle.len() == 2));
        assert!(t.inputs[0][1], "x is the second input");
        assert!(t.replays_on(&b));
        let mut stats = CheckStats::default();
        assert_eq!(hit.verdict, p.check_bad(&b, 1, &opts, &mut stats));
        assert_eq!(hit.stats, stats, "names included");
        assert!(hit.stats.events.iter().all(|e| e.bad == "b_q_high"));
        assert_eq!(hit.stats.per_bad_coi[0].bad, "b_q_high");
    }

    /// `q` loads `(a & b) & c` under a constraint on `a`; the variants
    /// change one thing each.
    fn gated_aig(init: bool, negated: bool, inputs_first: bool, prefix: &str) -> Aig {
        let mut g = Aig::new();
        let a = g.input(format!("{prefix}a"));
        let b = g.input(format!("{prefix}b"));
        let (n, c) = if inputs_first {
            let c = g.input(format!("{prefix}c"));
            (g.and(a, b), c)
        } else {
            let n = g.and(a, b);
            (n, g.input(format!("{prefix}c")))
        };
        let m = g.and(n, c);
        let (l, q) = g.latch(format!("{prefix}q"), init);
        g.set_next(l, m);
        g.add_bad(format!("{prefix}q_high"), q);
        g.add_constraint(format!("{prefix}a_high"), if negated { !a } else { a });
        g
    }

    /// Cones that differ only in a latch init value, a constraint's
    /// polarity or the interleaving of inputs and ANDs are separate
    /// entries; renaming every signal is not.
    #[test]
    fn the_key_tells_near_identical_cones_apart() {
        let (p, opts) = (Portfolio::default(), CheckOptions::default());
        let variants = [
            gated_aig(false, false, false, ""),
            gated_aig(true, false, false, ""),
            gated_aig(false, true, false, ""),
            gated_aig(false, false, true, ""),
        ];
        let cones = ConeCache::new();
        for (i, g) in variants.iter().enumerate() {
            let result = cones.check_bad(&p, g, 0, &opts);
            assert_eq!(cones.len(), i + 1, "variant {i} must not hit");
            let mut stats = CheckStats::default();
            assert_eq!(result.verdict, p.check_bad(g, 0, &opts, &mut stats));
        }
        // The three verdicts the variants differ by.
        let depth = |r: &CheckResult| match &r.verdict {
            Verdict::Falsified(t) => Some(t.len()),
            _ => None,
        };
        let results: Vec<_> = variants
            .iter()
            .map(|g| cones.check_bad(&p, g, 0, &opts))
            .collect();
        assert_eq!(depth(&results[0]), Some(2));
        assert_eq!(depth(&results[1]), Some(1));
        assert!(results[2].verdict.is_proved());

        let renamed = gated_aig(false, false, false, "renamed_");
        let hit = cones.check_bad(&p, &renamed, 0, &opts);
        assert_eq!(cones.len(), 4, "names are not part of the key");
        assert_eq!(hit.verdict, results[0].verdict);
        assert!(hit.stats.events.iter().all(|e| e.bad == "renamed_q_high"));
    }
}
