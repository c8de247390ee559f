//! A fast, non-cryptographic hasher for the engine hot paths.
//!
//! The default `std` hasher (SipHash-1-3) is keyed and DoS-resistant,
//! which the engines' tables do not need: every key is a small tuple of
//! dense ids (AIG variables, BDD node ids, solver literals) produced by
//! the process itself. This module hand-rolls the FxHash multiply-xor
//! scheme used by rustc (`rustc-hash`), which hashes such keys in a
//! handful of cycles and measurably speeds up every table-bound
//! operation.
//!
//! It lives in `veridic-aig` — the base crate of the engine layer — so
//! the BDD manager (root set, traversal memos), the SAT solver's CNF
//! frame maps, and the model checkers' node maps all share one
//! definition; `veridic_bdd::hash` re-exports it. (The BDD unique
//! table and computed caches are not hash maps: see `veridic-bdd`.)

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash multiplier (64-bit golden-ratio constant, as in `rustc-hash`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one word, folded with rotate-xor-multiply.
///
/// Not DoS-resistant — only use for keys the process generates itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let word: [u8; 8] = c.try_into().expect("8-byte chunk"); // lint: allow
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`]; zero-sized and stateless,
/// so maps built with it hash identically across runs (deterministic
/// iteration is still not guaranteed — do not rely on map order).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the process's own dense ids, using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` counterpart of [`FxHashMap`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_tuple_orders() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        assert_ne!(bh.hash_one((1u32, 2u32)), bh.hash_one((2u32, 1u32)));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        m.insert((1, 2, 3), 7);
        assert_eq!(m.get(&(1, 2, 3)), Some(&7));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
    }

    #[test]
    fn partial_writes_cover_all_bytes() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
