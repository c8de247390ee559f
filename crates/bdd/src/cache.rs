//! The computed cache: one direct-mapped, lossy table of results per
//! operation.
//!
//! A slot holds one `(key, result)` pair, and a new result overwrites
//! whatever its slot held, so a lookup may miss a result computed
//! earlier; the operation then recomputes it. Without a collection in
//! between, that recomputation only meets nodes that already exist —
//! every node the first computation built is still in the table — so a
//! miss costs time but never changes a result `NodeId` or the count of
//! nodes allocated.
//!
//! The table is allocated on the first insert with `2^INITIAL_BITS`
//! slots and doubles while it has taken more inserts than it has slots
//! and holds fewer than `SLOTS_PER_NODE` slots per node-table entry,
//! up to `2^MAX_BITS` slots. A run that stays small keeps a small
//! cache, and a run near its node quota keeps a bounded one instead of
//! every result it ever computed.

use crate::manager::NodeId;

/// log2 of the slot count a cache starts with.
const INITIAL_BITS: u32 = 8;
/// log2 of the largest slot count a cache grows to.
const MAX_BITS: u32 = 20;
/// A cache grows only while it has fewer slots than this many per
/// node-table entry.
const SLOTS_PER_NODE: usize = 4;

/// The first key word of an empty slot: the edge to node index
/// `2^31 - 1`, which no manager reaches, so no operation looks it up.
const NO_NODE: NodeId = NodeId(u32::MAX);

/// The multiplier of the Fibonacci hash (2^64 / φ).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hash of three 32-bit words; callers index by its high
/// bits, which depend on every input bit.
#[inline]
pub(crate) fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let x = (u64::from(a) | u64::from(b) << 32).wrapping_mul(PHI);
    (x ^ u64::from(c)).wrapping_mul(PHI)
}

/// A computed-cache key: at most three 32-bit words, the first of them
/// a node operand.
pub(crate) trait CacheKey: Copy + Eq {
    /// The key of an empty slot.
    const EMPTY: Self;
    /// The key's hash (see [`hash3`]).
    fn slot_hash(self) -> u64;
    /// True if `live` holds for every node the key names.
    fn names_live(self, live: impl Fn(NodeId) -> bool) -> bool;
}

/// `and` and `exists`: two node operands.
impl CacheKey for (NodeId, NodeId) {
    const EMPTY: Self = (NO_NODE, NO_NODE);

    #[inline]
    fn slot_hash(self) -> u64 {
        hash3(self.0 .0, self.1 .0, 0)
    }

    fn names_live(self, live: impl Fn(NodeId) -> bool) -> bool {
        live(self.0) && live(self.1)
    }
}

/// `ite` and `and_exists`: three node operands.
impl CacheKey for (NodeId, NodeId, NodeId) {
    const EMPTY: Self = (NO_NODE, NO_NODE, NO_NODE);

    #[inline]
    fn slot_hash(self) -> u64 {
        hash3(self.0 .0, self.1 .0, self.2 .0)
    }

    fn names_live(self, live: impl Fn(NodeId) -> bool) -> bool {
        live(self.0) && live(self.1) && live(self.2)
    }
}

/// `rename`: the function operand and the two halves of the map's
/// 64-bit hash, which names no node.
impl CacheKey for (NodeId, [u32; 2]) {
    const EMPTY: Self = (NO_NODE, [0; 2]);

    #[inline]
    fn slot_hash(self) -> u64 {
        hash3(self.0 .0, self.1[0], self.1[1])
    }

    fn names_live(self, live: impl Fn(NodeId) -> bool) -> bool {
        live(self.0)
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot<K> {
    key: K,
    result: NodeId,
}

/// A direct-mapped, lossy computed cache (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct OpCache<K> {
    /// Empty until the first insert; then a power of two long.
    slots: Vec<Slot<K>>,
    /// log2 of the largest table this cache may grow to.
    max_bits: u32,
    /// Inserts over the cache's lifetime.
    inserts: usize,
}

impl<K: CacheKey> OpCache<K> {
    /// An empty cache that grows to at most `2^MAX_BITS` slots.
    pub(crate) fn new() -> Self {
        Self::with_max_bits(MAX_BITS)
    }

    /// An empty cache that grows to at most `2^max_bits` slots
    /// (`max_bits ≥ 1`).
    pub(crate) fn with_max_bits(max_bits: u32) -> Self {
        debug_assert!((1..=MAX_BITS).contains(&max_bits));
        OpCache {
            slots: Vec::new(),
            max_bits,
            inserts: 0,
        }
    }

    #[inline]
    fn index(&self, key: K) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.slot_hash() >> (64 - bits)) as usize
    }

    /// The cached result for `key`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.index(key)];
        (slot.key == key).then_some(slot.result)
    }

    /// Stores `result` under `key`, evicting the slot's previous entry.
    /// `table_len` is the node table's length, which bounds growth.
    #[inline]
    pub(crate) fn insert(&mut self, key: K, result: NodeId, table_len: usize) {
        debug_assert!(key != K::EMPTY);
        if self.slots.is_empty() {
            let empty = Slot {
                key: K::EMPTY,
                result: NodeId::TRUE,
            };
            self.slots = vec![empty; 1 << INITIAL_BITS.min(self.max_bits)];
        } else if self.inserts > self.slots.len()
            && self.slots.len() < SLOTS_PER_NODE.saturating_mul(table_len)
            && self.slots.len() < 1 << self.max_bits
        {
            self.grow();
        }
        self.inserts += 1;
        let i = self.index(key);
        self.slots[i] = Slot { key, result };
    }

    /// Doubles the table. An entry's new index extends its old one by
    /// one hash bit, so no two surviving entries collide.
    fn grow(&mut self) {
        let empty = Slot {
            key: K::EMPTY,
            result: NodeId::TRUE,
        };
        let doubled = vec![empty; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old {
            if slot.key != K::EMPTY {
                let i = self.index(slot.key);
                self.slots[i] = slot;
            }
        }
    }

    /// Empties every slot whose key or result names a node for which
    /// `live` fails.
    pub(crate) fn sweep(&mut self, live: impl Fn(NodeId) -> bool + Copy) {
        for slot in &mut self.slots {
            if slot.key != K::EMPTY && !(slot.key.names_live(live) && live(slot.result)) {
                slot.key = K::EMPTY;
            }
        }
    }

    /// The table's current slot count (0 before the first insert).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_at_most_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot<(NodeId, NodeId, NodeId)>>(), 16);
        assert_eq!(std::mem::size_of::<Slot<(NodeId, [u32; 2])>>(), 16);
        assert_eq!(std::mem::size_of::<Slot<(NodeId, NodeId)>>(), 12);
    }

    #[test]
    fn allocates_on_first_insert_and_grows_to_the_caps() {
        let mut c: OpCache<(NodeId, NodeId)> = OpCache::new();
        assert_eq!(c.slot_count(), 0);
        assert_eq!(c.get((NodeId(2), NodeId(4))), None);
        c.insert((NodeId(2), NodeId(4)), NodeId(6), 1 << 20);
        assert_eq!(c.slot_count(), 1 << INITIAL_BITS);
        assert_eq!(c.get((NodeId(2), NodeId(4))), Some(NodeId(6)));
        // Many inserts against a large node table: capped at 2^MAX_BITS.
        for i in 0..(3u32 << MAX_BITS) {
            c.insert((NodeId(2 * i + 2), NodeId(4)), NodeId::TRUE, 1 << 30);
        }
        assert_eq!(c.slot_count(), 1 << MAX_BITS);
        // A small node table caps growth at SLOTS_PER_NODE slots a node.
        let mut small: OpCache<(NodeId, NodeId)> = OpCache::new();
        for i in 0..100_000u32 {
            small.insert((NodeId(2 * i + 2), NodeId(4)), NodeId::TRUE, 1000);
        }
        assert_eq!(small.slot_count(), 4096, "first power of two ≥ 4 × 1000");
    }

    #[test]
    fn growth_keeps_every_entry() {
        let mut c: OpCache<(NodeId, NodeId, NodeId)> = OpCache::new();
        let keys: Vec<_> = (0..200u32)
            .map(|i| (NodeId(2 * i + 2), NodeId(7), NodeId(i)))
            .collect();
        for &k in &keys {
            c.insert(k, k.2, 1 << 20);
        }
        let before: Vec<_> = keys.iter().map(|&k| c.get(k)).collect();
        c.grow();
        assert_eq!(c.slot_count(), 2 << INITIAL_BITS);
        let after: Vec<_> = keys.iter().map(|&k| c.get(k)).collect();
        assert_eq!(before, after, "doubling keeps exactly the entries it had");
    }

    #[test]
    fn sweep_empties_slots_naming_dead_nodes() {
        let mut c: OpCache<(NodeId, [u32; 2])> = OpCache::new();
        let marked = [true, true, false, true];
        let live = |n: NodeId| marked[n.index() as usize];
        c.insert((NodeId(2), [7, 7]), NodeId(6), 8); // node 1 → node 3: live
        c.insert((NodeId(4), [7, 7]), NodeId(2), 8); // key names dead node 2
        c.insert((NodeId(6), [7, 7]), NodeId(5), 8); // result names dead node 2
        c.sweep(live);
        assert_eq!(c.get((NodeId(2), [7, 7])), Some(NodeId(6)));
        assert_eq!(c.get((NodeId(4), [7, 7])), None);
        assert_eq!(c.get((NodeId(6), [7, 7])), None);
        c.sweep(|_| false);
        assert_eq!(c.get((NodeId(2), [7, 7])), None);
    }
}
