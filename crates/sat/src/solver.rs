//! The CDCL search core.
//!
//! The search is pinned exactly, not just its verdicts: the decision
//! sequence, propagation order, learnt clauses and the decision,
//! propagation and conflict counts are part of the contract, because
//! `sat_conflicts` and the engine logs built on them are byte-compared
//! by the campaign goldens. The data structures below are chosen for
//! speed under that constraint (see ARCHITECTURE.md, "SAT hot-path
//! design").

use crate::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The instance is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// The value of a literal, one byte per literal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Assign {
    Undef,
    True,
    False,
}

/// Offset of a clause's header word in the clause arena.
type ClauseRef = u32;

/// The `reason` of a decision, an assumption or a level-0 unit.
const NO_REASON: ClauseRef = u32::MAX;

/// Arena words before a clause's literals: the header (`len << 1 |
/// deleted`), then the clause activity as the low and high halves of an
/// `f64`.
const HEADER: usize = 3;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Marks a variable that is not in the [`OrderHeap`].
const ABSENT: u32 = u32::MAX;

/// Marks a variable in the [`OrderHeap`]'s zero-activity tier.
const UNBUMPED: u32 = u32::MAX - 1;

/// The decision order: highest activity first and ties to the lower
/// index (the variable a scan over all variables picks), in two tiers.
/// Variables whose activity is exactly 0.0 (never bumped, or underflowed
/// in a rescale) sit in a bitset; the rest sit in a binary heap. Every
/// positive activity beats 0.0, and 0.0-ties go to the lower index,
/// which is bit order, so the heap's top, or else the lowest set bit, is
/// the scan's pick. Assigned variables leave lazily, when they come
/// next; backtracking puts variables back.
#[derive(Clone, Debug, Default)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Each variable's position in `heap`, [`UNBUMPED`] while it is in
    /// `zero`, or [`ABSENT`].
    pos: Vec<u32>,
    /// The zero-activity tier, one bit per variable.
    zero: Vec<u64>,
    /// No word of `zero` below this one has a bit set.
    zero_from: usize,
}

impl OrderHeap {
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Registers variable `v`, the next index, and inserts it.
    fn add_var(&mut self, v: u32, activity: &[f64]) {
        self.pos.push(ABSENT);
        if v % 64 == 0 {
            self.zero.push(0);
        }
        self.insert(v, activity);
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.pos[v as usize] != ABSENT {
            return;
        }
        if activity[v as usize] == 0.0 {
            self.insert_zero(v);
        } else {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    fn insert_zero(&mut self, v: u32) {
        let w = v as usize / 64;
        self.zero[w] |= 1 << (v % 64);
        self.zero_from = self.zero_from.min(w);
        self.pos[v as usize] = UNBUMPED;
    }

    /// Restores the order after `v`'s activity grew.
    fn bumped(&mut self, v: u32, activity: &[f64]) {
        match self.pos[v as usize] {
            ABSENT => {}
            UNBUMPED => {
                if activity[v as usize] != 0.0 {
                    self.zero[v as usize / 64] &= !(1 << (v % 64));
                    self.heap.push(v);
                    self.sift_up(self.heap.len() - 1, activity);
                }
            }
            p => self.sift_up(p as usize, activity),
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let Some(last) = self.heap.pop() else {
            return self.pop_zero();
        };
        let top = match self.heap.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => last,
        };
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// The lowest-index variable of the zero-activity tier.
    fn pop_zero(&mut self) -> Option<u32> {
        while let Some(word) = self.zero.get_mut(self.zero_from) {
            if *word != 0 {
                let v = (self.zero_from * 64) as u32 + word.trailing_zeros();
                *word &= *word - 1;
                self.pos[v as usize] = ABSENT;
                return Some(v);
            }
            self.zero_from += 1;
        }
        None
    }

    /// Restores the order after every activity was scaled down at once:
    /// variables whose activity underflowed to 0.0 move to the
    /// zero-activity tier, and the heap is rebuilt from the rest.
    fn rebuild(&mut self, activity: &[f64]) {
        let mut heap = std::mem::take(&mut self.heap);
        heap.retain(|&v| {
            let keep = activity[v as usize] != 0.0;
            if !keep {
                self.insert_zero(v);
            }
            keep
        });
        for (i, &v) in heap.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        self.heap = heap;
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// A CDCL SAT solver with incremental assumptions and a conflict budget.
///
/// See the crate docs for the feature list; construction is [`Solver::new`],
/// variables come from [`Solver::new_var`], clauses from
/// [`Solver::add_clause`], and queries run through [`Solver::solve`].
#[derive(Clone, Debug)]
pub struct Solver {
    /// Every clause of two or more literals, back to back: [`HEADER`]
    /// words, then the literals. Deleted clauses stay until compaction.
    arena: Vec<u32>,
    /// Arena words held by deleted clauses.
    wasted: usize,
    watches: Vec<Vec<Watcher>>,
    /// Indexed by `Lit::index`, so a literal's value is a single load.
    values: Vec<Assign>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    order: OrderHeap,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    conflicts: u64,
    budget: Option<u64>,
    learnt_refs: Vec<ClauseRef>,
    max_learnts: f64,
    seen: Vec<bool>,
    /// Scratch: the clause being added, then the clause being learnt.
    lits_buf: Vec<Lit>,
    /// Statistics: total decisions.
    pub decisions: u64,
    /// Statistics: total propagations.
    pub propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            wasted: 0,
            watches: Vec::new(),
            values: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            order: OrderHeap::default(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            conflicts: 0,
            budget: None,
            learnt_refs: Vec::new(),
            max_learnts: 1000.0,
            seen: Vec::new(),
            lits_buf: Vec::new(),
            decisions: 0,
            propagations: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.activity.len() as u32);
        self.values.push(Assign::Undef);
        self.values.push(Assign::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.add_var(v.0, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.activity.len()
    }

    /// Total conflicts encountered so far (across all solve calls).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Limits the *total* number of conflicts; [`Solver::solve`] returns
    /// [`SolveResult::Unknown`] once `self.num_conflicts()` reaches the
    /// budget. `None` removes the limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at level zero (callers may stop adding).
    ///
    /// Clauses may be added between incremental [`Solver::solve`] calls:
    /// the decisions and assumptions a call left on the trail are undone
    /// first. So a model stays readable with [`Solver::value`] until the
    /// next `add_clause` or `solve`.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // Normalise: sort, dedup, drop tautologies and false literals.
        let mut ls = std::mem::take(&mut self.lits_buf);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..ls.len() {
            let l = ls[i];
            if i + 1 < ls.len() && ls[i + 1] == !l {
                satisfied = true; // tautology: contains l and !l
                break;
            }
            match self.values[l.index()] {
                Assign::True => {
                    satisfied = true; // satisfied at level 0
                    break;
                }
                Assign::False => {} // drop false literal
                Assign::Undef => {
                    ls[kept] = l;
                    kept += 1;
                }
            }
        }
        ls.truncate(kept);
        let ok = match ls.len() {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(ls[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&ls);
                true
            }
        };
        self.lits_buf = ls;
        ok
    }

    fn attach_clause(&mut self, lits: &[Lit]) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef::try_from(self.arena.len()).expect("clause arena exceeds 2^32 words"); // lint: allow
        let header = u32::try_from(lits.len() << 1).expect("clause exceeds 2^31 literals"); // lint: allow
        self.arena.push(header);
        self.arena.extend([0, 0]); // activity 0.0
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[(!lits[0]).index()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).index()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        cref
    }

    fn clause_len(&self, cref: ClauseRef) -> usize {
        (self.arena[cref as usize] >> 1) as usize
    }

    fn clause_lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit(self.arena[cref as usize + HEADER + k])
    }

    fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref as usize] & 1 == 1
    }

    fn clause_activity(&self, cref: ClauseRef) -> f64 {
        let i = cref as usize;
        f64::from_bits(u64::from(self.arena[i + 1]) | u64::from(self.arena[i + 2]) << 32)
    }

    fn set_clause_activity(&mut self, cref: ClauseRef, a: f64) {
        let (i, bits) = (cref as usize, a.to_bits());
        self.arena[i + 1] = bits as u32;
        self.arena[i + 2] = (bits >> 32) as u32;
    }

    /// The model value of `v` after a [`SolveResult::Sat`] answer; `None`
    /// if the variable was irrelevant (never assigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.values[Lit::pos(v).index()] {
            Assign::Undef => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: ClauseRef) {
        debug_assert_eq!(self.values[l.index()], Assign::Undef);
        self.values[l.index()] = Assign::True;
        self.values[(!l).index()] = Assign::False;
        let v = l.var().0 as usize;
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Quick check: blocker satisfied?
                if self.values[w.blocker.index()] == Assign::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                let lits = cref as usize + HEADER;
                // Make sure the false literal is lits[1].
                if self.arena[lits] == false_lit.0 {
                    self.arena.swap(lits, lits + 1);
                }
                debug_assert_eq!(self.arena[lits + 1], false_lit.0);
                let first = Lit(self.arena[lits]);
                if first != w.blocker && self.values[first.index()] == Assign::True {
                    ws[i] = Watcher {
                        cref,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in lits + 2..lits + self.clause_len(cref) {
                    let lk = Lit(self.arena[k]);
                    if self.values[lk.index()] != Assign::False {
                        self.arena.swap(lits + 1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[i] = Watcher {
                    cref,
                    blocker: first,
                };
                i += 1;
                if self.values[first.index()] == Assign::False {
                    // Conflict: keep remaining watchers, stop.
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            // Entries removed by swap_remove are gone; everything left in
            // `ws` (kept prefix + unprocessed tail on conflict) stays
            // watched. No watcher for `p` can have been added meanwhile:
            // a new watch targets a non-false literal, and `!p` is false.
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Underflow can turn distinct activities into ties, which the
            // heap must then order by index like every other tie.
            self.order.rebuild(&self.activity);
        }
        self.order.bumped(v as u32, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        let a = self.clause_activity(cref) + self.cla_inc;
        self.set_clause_activity(cref, a);
        if a > 1e20 {
            for i in 0..self.learnt_refs.len() {
                let r = self.learnt_refs[i];
                self.set_clause_activity(r, self.clause_activity(r) * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `lits_buf` (asserting literal first) and returns the backtrack
    /// level.
    fn analyze(&mut self, confl: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.lits_buf);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut confl = confl;
        // The conflict clause contributes every literal; a reason clause
        // all but its first, the literal it propagated.
        let mut start = 0;
        loop {
            debug_assert_ne!(confl, NO_REASON, "analysis must have a reason");
            self.cla_bump(confl);
            for k in start..self.clause_len(confl) {
                let q = self.clause_lit(confl, k);
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_bump(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal to expand.
            let uip = loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().0 as usize] {
                    break l;
                }
            };
            let pv = uip.var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !uip;
                break;
            }
            confl = self.reason[pv];
            start = 1;
        }
        // Clause minimisation (cheap local check): drop literals whose
        // reason clause lies entirely within the learnt set. `seen` marks
        // exactly the variables of learnt[1..] here, so it stands for the
        // membership test; the kept literals keep their order.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }
        for l in &learnt[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        learnt.truncate(kept);
        // Compute backtrack level = max level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().0 as usize]
                    > self.level[learnt[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().0 as usize]
        };
        self.lits_buf = learnt;
        bt
    }

    /// A literal is redundant if its reason's literals are all already in
    /// the learnt clause (single-step self-subsumption).
    fn redundant(&self, l: Lit) -> bool {
        let cref = self.reason[l.var().0 as usize];
        cref != NO_REASON
            && (1..self.clause_len(cref)).all(|k| {
                let v = self.clause_lit(cref, k).var().0 as usize;
                self.seen[v] || self.level[v] == 0
            })
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0;
            self.polarity[v as usize] = !l.is_neg();
            self.values[l.index()] = Assign::Undef;
            self.values[(!l).index()] = Assign::Undef;
            self.reason[v as usize] = NO_REASON;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// The unassigned variable of highest activity (lowest index among
    /// ties), in its saved phase.
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.values[Lit::pos(Var(v)).index()] == Assign::Undef {
                let v = Var(v);
                return Some(if self.polarity[v.0 as usize] {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
        }
        None
    }

    /// A clause is locked while it is the reason of its first literal
    /// (propagation always asserts `lits[0]` and never moves it after).
    fn locked(&self, cref: ClauseRef) -> bool {
        self.reason[self.clause_lit(cref, 0).var().0 as usize] == cref
    }

    fn reduce_db(&mut self) {
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.sort_by(|&a, &b| {
            self.clause_activity(a)
                .partial_cmp(&self.clause_activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let half = refs.len() / 2;
        let mut kept = 0;
        for i in 0..refs.len() {
            let cref = refs[i];
            if i < half && !self.locked(cref) && self.clause_len(cref) > 2 {
                self.arena[cref as usize] |= 1;
                self.wasted += HEADER + self.clause_len(cref);
            } else {
                refs[kept] = cref;
                kept += 1;
            }
        }
        let removed = kept < refs.len();
        refs.truncate(kept);
        self.learnt_refs = refs;
        if removed {
            let arena = &self.arena;
            for ws in &mut self.watches {
                ws.retain(|w| arena[w.cref as usize] & 1 == 0);
            }
        }
        if self.wasted > self.arena.len() / 2 {
            self.compact();
        }
    }

    /// Copies the live clauses into a fresh arena, in order, and remaps
    /// every reference; each list keeps its order.
    fn compact(&mut self) {
        let mut to = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut at = 0;
        while at < self.arena.len() {
            let end = at + HEADER + self.clause_len(at as ClauseRef);
            if !self.is_deleted(at as ClauseRef) {
                let moved = to.len() as u32;
                to.extend_from_slice(&self.arena[at..end]);
                // The old copy's first activity word forwards to the new one.
                self.arena[at + 1] = moved;
            }
            at = end;
        }
        let forward = |old: &mut ClauseRef, arena: &[u32]| *old = arena[*old as usize + 1];
        for ws in &mut self.watches {
            for w in ws {
                forward(&mut w.cref, &self.arena);
            }
        }
        for r in &mut self.reason {
            if *r != NO_REASON {
                forward(r, &self.arena);
            }
        }
        for r in &mut self.learnt_refs {
            forward(r, &self.arena);
        }
        self.arena = to;
        self.wasted = 0;
    }

    /// Solves under the given assumptions.
    ///
    /// Returns [`SolveResult::Sat`] with a model readable via
    /// [`Solver::value`], [`SolveResult::Unsat`] if no model exists under
    /// the assumptions, or [`SolveResult::Unknown`] if the conflict budget
    /// ran out. The solver remains usable (incrementally) afterwards.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut luby_idx = 0u32;
        let mut restart_budget = 100.0 * luby(luby_idx);
        let mut conflicts_this_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // All assumption-level conflicts below the assumption count
                // mean UNSAT under assumptions: handled by re-deciding below.
                let bt = self.analyze(confl);
                // Never backtrack above the assumption prefix: if the
                // asserting level is inside the assumptions, re-propagating
                // will re-derive the conflict and eventually hit level 0 or
                // fail an assumption.
                self.backtrack(bt);
                let asserting = self.lits_buf[0];
                if self.lits_buf.len() == 1 {
                    match self.values[asserting.index()] {
                        // Asserting literal contradicts an assumption level
                        // assignment at or below bt: unsat under assumptions.
                        Assign::False => return SolveResult::Unsat,
                        Assign::Undef => self.unchecked_enqueue(asserting, NO_REASON),
                        Assign::True => {}
                    }
                } else {
                    let learnt = std::mem::take(&mut self.lits_buf);
                    let cref = self.attach_clause(&learnt);
                    self.lits_buf = learnt;
                    self.learnt_refs.push(cref);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(asserting, cref);
                }
                self.var_decay();
                if let Some(b) = self.budget {
                    if self.conflicts >= b {
                        self.backtrack(0);
                        return SolveResult::Unknown;
                    }
                }
                if self.learnt_refs.len() as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                if conflicts_this_restart as f64 >= restart_budget
                    && self.decision_level() > assumptions.len() as u32
                {
                    // Restart, keeping assumption decisions.
                    self.backtrack(assumptions.len() as u32);
                    luby_idx += 1;
                    restart_budget = 100.0 * luby(luby_idx);
                    conflicts_this_restart = 0;
                }
                // Take the next assumption, if any.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.values[a.index()] {
                        Assign::True => {
                            // Already satisfied: open an empty decision level.
                            self.trail_lim.push(self.trail.len());
                        }
                        Assign::False => {
                            return SolveResult::Unsat;
                        }
                        Assign::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return SolveResult::Sat,
                    Some(l) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (base 2), indexed from 0:
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
fn luby(x: u32) -> f64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < (x as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x as u64;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    2f64.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, pos: bool) -> Lit {
        if pos {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert!(!s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]); // v_i -> v_{i+1}
        }
        s.add_clause(&[Lit::pos(vs[0])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for v in vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes. Var p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for j in 0..2 {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_results() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(&[Lit::neg(a)]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.solve(&[Lit::neg(a), Lit::neg(b)]), SolveResult::Unsat);
        // Solver still usable, and SAT without assumptions.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn budget_returns_unknown_on_hard_instance() {
        // PHP(6,5) is non-trivial for a CDCL solver; with a 5-conflict
        // budget it must give up.
        let mut s = Solver::new();
        let n = 6;
        let m = 5;
        let mut p = vec![vec![Var(0); m]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let cls: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&cls);
        }
        for j in 0..m {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(row1[j]), Lit::neg(row2[j])]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        // Raising the budget resolves it.
        s.set_conflict_budget(Some(1_000_000));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_vs_brute_force() {
        // Deterministic xorshift for reproducibility.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for iter in 0..200 {
            let nvars = 6usize;
            let nclauses = 3 + (rnd() % 24) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut cls = Vec::new();
                for _ in 0..3 {
                    let v = (rnd() % nvars as u64) as u32;
                    let neg = rnd() % 2 == 0;
                    cls.push(lit(Var(v), !neg));
                }
                clauses.push(cls);
            }
            // Brute force.
            let mut bf_sat = false;
            'outer: for asg in 0..(1u32 << nvars) {
                for c in &clauses {
                    let ok = c.iter().any(|l| {
                        let val = asg >> l.var().0 & 1 == 1;
                        val != l.is_neg()
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                bf_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve(&[]);
            let want = if bf_sat {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(got, want, "iteration {iter} clauses {clauses:?}");
            if got == SolveResult::Sat {
                // Verify the model.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(!l.is_neg())),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }

    // Search-exactness pins. The (decisions, propagations, conflicts)
    // triples below were recorded with the linear-scan, Vec-per-clause
    // solver. The order heap, the clause arena and the literal-indexed
    // values must reproduce them exactly: a different decision order,
    // propagation order or learnt clause moves at least one count, and
    // with it the `sat_conflicts` figures and engine logs that the
    // campaign goldens byte-compare.

    type Counts = (SolveResult, u64, u64, u64);

    fn counts(s: &Solver, r: SolveResult) -> Counts {
        (r, s.decisions, s.propagations, s.num_conflicts())
    }

    /// Pigeonhole PHP(n, n-1); every clause gets `guard` (if any) as an
    /// extra negative literal, so solving under `guard` asserts it.
    fn pigeonhole(s: &mut Solver, n: usize, guard: Option<Lit>) {
        let holes = n - 1;
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        let mut clause = Vec::new();
        let mut add = |s: &mut Solver, lits: &mut dyn Iterator<Item = Lit>| {
            clause.clear();
            clause.extend(guard.map(|g| !g));
            clause.extend(lits);
            s.add_clause(&clause);
        };
        for row in &p {
            add(s, &mut row.iter().map(|&v| Lit::pos(v)));
        }
        for j in 0..holes {
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    add(s, &mut [Lit::neg(row1[j]), Lit::neg(row2[j])].into_iter());
                }
            }
        }
    }

    /// Random 3-SAT over `nvars` variables from a fixed xorshift seed.
    fn random_3sat(s: &mut Solver, seed: u64, nvars: usize, nclauses: usize) {
        let mut state = seed;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..nvars {
            s.new_var();
        }
        for _ in 0..nclauses {
            let cls: Vec<Lit> = (0..3)
                .map(|_| lit(Var((rnd() % nvars as u64) as u32), rnd() % 2 == 0))
                .collect();
            s.add_clause(&cls);
        }
    }

    #[test]
    fn search_counts_pigeonhole_crosses_rescale_and_reduce_db() {
        // 5 398 conflicts: past the first 1e-100 activity rescale (4 489
        // conflicts) and through several learnt-clause reductions.
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, None);
        let r = s.solve(&[]);
        assert_eq!(counts(&s, r), (SolveResult::Unsat, 6561, 74538, 5398));
        assert!(s.max_learnts > 2000.0, "reduce_db ran more than twice");
    }

    #[test]
    fn search_counts_unknown_then_raised_budget() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, None);
        s.set_conflict_budget(Some(2000));
        let first = s.solve(&[]);
        let first = counts(&s, first);
        s.set_conflict_budget(None);
        let second = s.solve(&[]);
        assert_eq!(
            [first, counts(&s, second)],
            [
                (SolveResult::Unknown, 2526, 28158, 2000),
                (SolveResult::Unsat, 6944, 77585, 5708)
            ]
        );
    }

    #[test]
    fn search_counts_under_assumptions() {
        // Repeated queries on one satisfiable instance under changing
        // assumption sets; many variables are never bumped, so early
        // decisions break equal (zero) activities by variable index.
        let mut s = Solver::new();
        random_3sat(&mut s, 0x9E37_79B9_7F4A_7C15 ^ 2, 150, 640);
        let mut got = Vec::new();
        for i in 0..8u32 {
            let assumptions: Vec<Lit> = (0..4)
                .map(|b| lit(Var(7 * i + b), (i >> (b % 3)) & 1 == 1))
                .collect();
            let r = s.solve(&assumptions);
            got.push(counts(&s, r));
        }
        let r = s.solve(&[]);
        got.push(counts(&s, r));
        use SolveResult::{Sat, Unsat};
        assert_eq!(
            got,
            [
                (Unsat, 875, 22401, 727),
                (Unsat, 1587, 39929, 1309),
                (Sat, 2344, 60200, 1901),
                (Sat, 2520, 64574, 2032),
                (Sat, 2780, 71065, 2219),
                (Sat, 2812, 71215, 2219),
                (Sat, 3487, 88685, 2767),
                (Unsat, 3836, 99363, 3071),
                (Sat, 4443, 114386, 3542),
            ]
        );
    }

    #[test]
    fn search_counts_survive_activity_underflow() {
        // Five guarded pigeonholes solved one after another in one solver:
        // 20 578 conflicts take four activity rescales, so the first
        // pigeonhole's variables (cold since its solve) underflow to equal
        // activities; the final unguarded solve then decides them in
        // variable-index order among the ties.
        let mut s = Solver::new();
        let mut got = Vec::new();
        for _ in 0..5 {
            let g = Lit::pos(s.new_var());
            pigeonhole(&mut s, 8, Some(g));
            let r = s.solve(&[g]);
            got.push(counts(&s, r));
        }
        let r = s.solve(&[]);
        got.push(counts(&s, r));
        use SolveResult::{Sat, Unsat};
        assert_eq!(
            got,
            [
                (Unsat, 5265, 59974, 4374),
                (Unsat, 10797, 120852, 8889),
                (Unsat, 15541, 174547, 12731),
                (Unsat, 20516, 229051, 16682),
                (Unsat, 25442, 280625, 20578),
                (Sat, 25722, 280905, 20578),
            ]
        );
    }

    /// The variable the order heap must yield: the unassigned one of
    /// highest activity, the lowest index among ties (a plain scan).
    fn scan_pick(s: &Solver) -> Option<u32> {
        let mut best: Option<u32> = None;
        for v in 0..s.num_vars() as u32 {
            if s.value(Var(v)).is_none()
                && best.map_or(true, |b| s.activity[v as usize] > s.activity[b as usize])
            {
                best = Some(v);
            }
        }
        best
    }

    #[test]
    fn order_heap_matches_the_scan_under_random_bumps() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut s = Solver::new();
        for _ in 0..64 {
            s.new_var();
        }
        for _ in 0..20_000 {
            match rnd() % 4 {
                // Bump by a few coarse amounts so that ties are common.
                0 | 1 => {
                    s.var_inc = (rnd() % 3) as f64;
                    s.var_bump((rnd() % 64) as usize);
                }
                2 => {
                    let want = scan_pick(&s);
                    let got = s.pick_branch().map(|l| l.var().0);
                    assert_eq!(got, want);
                    if let Some(v) = got {
                        s.trail_lim.push(s.trail.len());
                        s.unchecked_enqueue(Lit::neg(Var(v)), NO_REASON);
                    }
                }
                _ => s.backtrack((rnd() % (s.decision_level() as u64 + 1)) as u32),
            }
        }
    }

    #[test]
    fn order_heap_matches_the_scan_across_underflowing_rescales() {
        // Bump amounts span 0.0, a value the next rescale underflows to
        // 0.0, and values that force a rescale every few bumps, so
        // variables keep crossing between the two tiers. Variables are
        // also assigned without leaving the order (as propagation does)
        // and are bumped and rescaled while assigned, then backtracked.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut s = Solver::new();
        let n = 150;
        for _ in 0..n {
            s.new_var();
        }
        let (mut rescales, mut unbumped_bumps) = (0, 0);
        for _ in 0..40_000 {
            let v = (rnd() % n) as usize;
            match rnd() % 5 {
                0 | 1 => {
                    let inc = [0.0, 1e-260, 1.0, 2.0, 7e99][(rnd() % 5) as usize];
                    s.var_inc = inc;
                    if s.activity[v] == 0.0 && inc > 0.0 && s.order.pos[v] == UNBUMPED {
                        unbumped_bumps += 1;
                    }
                    s.var_bump(v);
                    if s.var_inc != inc {
                        rescales += 1;
                    }
                }
                // Up to a full assignment, so that the zero tier's
                // cursor passes emptied words and backtracking refills
                // words below it.
                2 => {
                    for _ in 0..1 + rnd() % n {
                        let want = scan_pick(&s);
                        let got = s.pick_branch().map(|l| l.var().0);
                        assert_eq!(got, want);
                        let Some(v) = got else { break };
                        s.trail_lim.push(s.trail.len());
                        s.unchecked_enqueue(Lit::neg(Var(v)), NO_REASON);
                    }
                }
                3 if s.decision_level() > 0 && s.value(Var(v as u32)).is_none() => {
                    s.unchecked_enqueue(Lit::pos(Var(v as u32)), NO_REASON);
                }
                _ => s.backtrack((rnd() % (s.decision_level() as u64 + 1)) as u32),
            }
        }
        assert!(rescales > 100, "only {rescales} rescales");
        assert!(
            unbumped_bumps > 1000,
            "only {unbumped_bumps} bumps left the zero tier"
        );
    }

    #[test]
    fn order_heap_breaks_underflow_ties_by_index() {
        // Variables 0..7 sit in the heap in reverse index order (higher
        // index, higher activity); bumping variable 8 past 1e100 rescales
        // them all to 0.0, a seven-way tie that must pop as 0, 1, ..., 6.
        let mut s = Solver::new();
        for v in 0..9 {
            s.new_var();
            s.var_inc = (v + 1) as f64 * 1e-300;
            s.var_bump(v);
        }
        s.var_inc = 2e100;
        s.var_bump(8);
        assert!(s.activity[..8].iter().all(|&a| a == 0.0));
        let order: Vec<u32> = std::iter::from_fn(|| s.order.pop(&s.activity)).collect();
        assert_eq!(order, [8, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn clauses_can_be_added_after_a_model() {
        // Enumerates the three models of (a | b) with blocking clauses.
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        let mut models = Vec::new();
        while s.solve(&[]) == SolveResult::Sat && models.len() < 4 {
            let model = [s.value(a), s.value(b)].map(|x| x == Some(true));
            models.push(model);
            s.add_clause(&[lit(a, !model[0]), lit(b, !model[1])]);
        }
        models.sort_unstable();
        assert_eq!(models, [[false, true], [true, false], [true, true]]);
    }

    #[test]
    fn clauses_can_be_added_after_failed_assumptions() {
        // The second assumption fails with the first one still on the
        // trail; the added unit then refutes the first one outright.
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        assert_eq!(s.solve(&[Lit::pos(a), Lit::pos(b)]), SolveResult::Unsat);
        assert!(s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(&[Lit::pos(a)]), SolveResult::Unsat);
        assert_eq!(s.solve(&[Lit::pos(b)]), SolveResult::Sat);
        assert_eq!((s.value(a), s.value(b)), (Some(false), Some(true)));
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..15).map(luby).collect();
        assert_eq!(
            seq,
            vec![1., 1., 2., 1., 1., 2., 4., 1., 1., 2., 1., 1., 2., 4., 8.]
        );
    }
}
