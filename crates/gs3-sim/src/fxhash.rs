//! A minimal FxHash-style hasher for integer-keyed hot-path maps.
//!
//! The engine's spatial grid keys `(i64, i64)` cell coordinates; the
//! standard library's SipHash is DoS-resistant but costs ~1.5 ns per word,
//! which dominates grid lookups in the broadcast hot path. This is the
//! classic rustc/Firefox multiply-rotate hash: one rotate, one xor, one
//! multiply per word. Keys here are node-controlled only through positions
//! already bounded by the deployment, so hash-flooding resistance buys
//! nothing.

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-fx multiplier (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A non-cryptographic word-at-a-time hasher.
#[derive(Debug, Clone, Copy, Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — drop-in for `HashMap`'s default.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
// gs3-lint: allow(d1) -- this IS the FxHashMap definition the rule points everyone at; iteration-order discipline is on its users
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: (i64, i64)| {
            use std::hash::BuildHasher;
            FxBuildHasher::default().hash_one(v)
        };
        assert_eq!(hash((3, -7)), hash((3, -7)));
        assert_ne!(hash((3, -7)), hash((-7, 3)));
        assert_ne!(hash((0, 0)), hash((0, 1)));
    }

    #[test]
    fn byte_writes_cover_remainders() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let a = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        h.write(&[9]);
        assert_ne!(a, 0);
        // Same data, different chunking: values may differ (length is not
        // mixed), but each stream hashes deterministically.
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a, h2.finish());
    }

    #[test]
    fn map_works_with_tuple_keys() {
        // gs3-lint: allow(d1) -- the alias's own test: it reads len and keyed lookups, never the order
        let mut m: FxHashMap<(i64, i64), u32> = FxHashMap::default();
        for x in -10..10 {
            for y in -10..10 {
                m.insert((x, y), (x + y) as u32);
            }
        }
        assert_eq!(m.len(), 400);
        assert_eq!(m.get(&(-3, 5)), Some(&2));
    }
}
