//! FNV-1a, the one hash every state digest in the workspace folds with.
//!
//! [`crate::trace::Trace::digest`], [`crate::Engine::pending_event_hashes`],
//! the model checker's 128-bit state fingerprint and the harness's
//! structural signature all run the byte step `h ← (h ⊕ b)·P` from the
//! offset basis, in 64 or 128 bits. The algorithm is its definition, so a
//! pinned value moves only when the bytes folded do — not with the
//! toolchain, as it could with std's default hasher, whose algorithm is
//! unspecified across releases. FNV is not cryptographic, which is fine:
//! these hashes guard against accidental collisions, not an adversary.

use std::fmt::{self, Write as _};

use gs3_geometry::Point;

use crate::ids::NodeId;
use crate::time::SimTime;

/// A word FNV-1a is defined over, `u64` or `u128`: its offset basis and
/// its prime `P`.
pub trait Word: Copy {
    /// The offset basis: a fresh hasher's state.
    const OFFSET: Self;
    /// The byte step `(self ⊕ b)·P`.
    fn step(self, b: u8) -> Self;
    /// `k ≤ 8` zero bytes in one multiply, `self·P^k`: a zero byte's step
    /// is `h·P`.
    fn zeros(self, k: usize) -> Self;
}

macro_rules! word {
    ($t:ty, $offset:literal, $prime:literal) => {
        impl Word for $t {
            const OFFSET: $t = $offset;
            #[inline]
            fn step(self, b: u8) -> $t {
                (self ^ <$t>::from(b)).wrapping_mul($prime)
            }
            #[inline]
            fn zeros(self, k: usize) -> $t {
                const PRIME_POW: [$t; 9] = {
                    let mut pow: [$t; 9] = [1; 9];
                    let mut k = 1;
                    while k < 9 {
                        pow[k] = pow[k - 1].wrapping_mul($prime);
                        k += 1;
                    }
                    pow
                };
                self.wrapping_mul(PRIME_POW[k])
            }
        }
    };
}

word!(u64, 0xcbf2_9ce4_8422_2325, 0x0000_0100_0000_01b3);
word!(u128, 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d, 0x0000_0000_0100_0000_0000_0000_0000_013b);

/// An FNV-1a hasher over `W`. Each fold returns `&mut Self`, so a record
/// reads as one chain; [`fmt::Write`] folds `Debug` text without
/// allocating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv<W: Word>(W);

/// 64-bit FNV-1a.
pub type Fnv64 = Fnv<u64>;
/// 128-bit FNV-1a.
pub type Fnv128 = Fnv<u128>;

impl<W: Word> Default for Fnv<W> {
    fn default() -> Self {
        Fnv(W::OFFSET)
    }
}

impl<W: Word> Fnv<W> {
    /// A hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv::default()
    }

    /// Continues a fold from `state`, a digest an earlier fold returned.
    #[must_use]
    pub fn resume(state: W) -> Self {
        Fnv(state)
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> W {
        self.0
    }

    /// Folds raw bytes, one step each — the definition.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = self.0.step(b);
        }
        self
    }

    /// Folds the eight little-endian bytes of `v`: the significant low
    /// bytes one step each, the zero bytes above them in one multiply.
    #[inline]
    pub fn u64(&mut self, mut v: u64) -> &mut Self {
        let significant = 8 - (v.leading_zeros() / 8) as usize;
        for _ in 0..significant {
            self.0 = self.0.step(v as u8);
            v >>= 8;
        }
        self.0 = self.0.zeros(8 - significant);
        self
    }

    /// Folds an `i64` (little-endian, two's complement).
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.u64(v as u64)
    }

    /// Folds a boolean as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[u8::from(v)])
    }

    /// Folds an `f64` by its bit pattern (`-0.0` and `0.0` differ; every
    /// simulated float is produced deterministically, so bitwise equality
    /// is the right notion).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a node id as its raw `u64`.
    pub fn id(&mut self, id: NodeId) -> &mut Self {
        self.u64(id.raw())
    }

    /// Folds a point as its two coordinates.
    pub fn point(&mut self, p: Point) -> &mut Self {
        self.f64(p.x).f64(p.y)
    }

    /// Folds a stored past instant as its age `now − t`.
    pub fn age(&mut self, now: SimTime, t: SimTime) -> &mut Self {
        self.u64(now.saturating_since(t).as_micros())
    }

    /// Folds an instant that may lie in the future (a deadline) as its
    /// signed offset from `now`.
    pub fn offset(&mut self, now: SimTime, t: SimTime) -> &mut Self {
        self.i64(t.as_micros() as i64 - now.as_micros() as i64)
    }

    /// Folds an `Option`: a `0` byte, or a `1` byte and `some`'s fold of
    /// the value.
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T) -> &mut Self) -> &mut Self {
        match v {
            None => self.bytes(&[0]),
            Some(x) => some(self.bytes(&[1]), x),
        }
    }

    /// Folds a collection: its length, then `item`'s fold of each element.
    pub fn each<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item) -> &mut Self) -> &mut Self
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.u64(items.len() as u64);
        for x in items {
            item(self, x);
        }
        self
    }

    /// Folds `v`'s `Debug` text and a `0xff` terminator — a byte UTF-8
    /// never contains, so no text folds as a prefix of another.
    pub fn debug(&mut self, v: &dyn fmt::Debug) -> &mut Self {
        let _ = write!(self, "{v:?}");
        self.bytes(&[0xff])
    }
}

impl<W: Word> fmt::Write for Fnv<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The shortened `u64` fold and the `Debug` writer against the
    /// byte-serial definition, in both widths, chained: every word starts
    /// from the state the previous one left, so an error confined to one
    /// step's low byte still changes the end.
    #[test]
    fn shortened_fold_equals_the_bytewise_oracle() {
        // 0, the all-ones word, single significant bytes at every
        // position, and interior zero bytes.
        const EDGES: [u64; 10] = [
            0,
            u64::MAX,
            0xff,
            0x100,
            0x0100_0000_0000_0000,
            0x00ff_0000_0000_00ff,
            0x0000_0012_0000_3400,
            0x1200_0000_0000_0000,
            0x0000_0000_0001_0000,
            0x0000_00ff_ff00_ff00,
        ];
        fn chain<W: Word + PartialEq + fmt::Debug>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut fast, mut slow) = (Fnv::<W>::new(), Fnv::<W>::new());
            for step in 0..if cfg!(miri) { 500 } else { 20_000 } {
                let v = match rng.gen_range(0u32..4) {
                    0 => EDGES[rng.gen_range(0..EDGES.len())],
                    1 => rng.gen_range(0u64..70_000),
                    2 => rng.gen::<u64>() >> rng.gen_range(0u32..64),
                    _ => rng.gen::<u64>() & rng.gen::<u64>(),
                };
                fast.u64(v);
                slow.bytes(&v.to_le_bytes());
                assert_eq!(fast, slow, "step {step}: {v:#x}");
                let x = (v, "kind", f64::from_bits(v), Some(-(v as i64)));
                write!(fast, "{x:?}").unwrap();
                slow.bytes(format!("{x:?}").as_bytes());
                assert_eq!(fast, slow, "step {step}: {x:?}");
            }
        }
        chain::<u64>(14);
        chain::<u128>(15);
    }
}
