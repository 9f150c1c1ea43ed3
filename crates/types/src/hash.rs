//! A fast deterministic hasher for simulator-internal hash maps.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with per-process random
//! keys: HashDoS-resistant, but an order of magnitude slower than needed
//! for trusted keys, and randomized between runs. Simulator tables are
//! keyed by our own address newtypes — never attacker-controlled — and sit
//! on the per-access hot path (the page table is probed on every memory
//! access), so we use an FxHash-style multiply-and-rotate hash instead:
//! the same function rustc itself uses for its internal tables.
//!
//! Determinism note: hash values are stable across runs *and* processes,
//! which keeps iteration order reproducible. Simulator code must still
//! never let map iteration order drive simulated behaviour — that is what
//! the `deep-audit` invariants check — but a stable hasher removes the
//! randomness source entirely.
//!
//! # Examples
//!
//! ```
//! use cameo_types::{DetHashMap, PageAddr};
//!
//! let mut table: DetHashMap<PageAddr, u64> = DetHashMap::default();
//! table.insert(PageAddr::new(7), 42);
//! assert_eq!(table.get(&PageAddr::new(7)), Some(&42));
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "this module defines `DetHashMap`/`DetHashSet` over std's collections"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fibonacci-hashing multiplier (2^64 / φ), the same constant
/// rustc's FxHash uses to spread entropy across the word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: rotate, xor, multiply per word.
///
/// Not cryptographic and not DoS-resistant — use only for maps keyed by
/// trusted simulator-internal values.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The top byte is always padding (the remainder is < 8 bytes);
            // tag it with the tail length so a short input cannot collide
            // with its zero-padded extension.
            word[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A SplitMix64 pseudo-random stream: tiny, fast, and statistically
/// strong enough for fault sampling.
///
/// This is the workspace's one seeded PRNG for infrastructure-level
/// randomness (the fault injector draws from it), kept in `cameo-types`
/// so every layer shares the same deterministic stream definition.
/// Workload generation keeps using the vendored `rand` crate; this type
/// is for places that must stay dependency-free.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`); uses the high-bits multiply trick
    /// to avoid modulo bias beyond one part in 2^64.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// `BuildHasher` for [`DetHasher`] (zero-sized, `Default`-constructible).
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// A `HashMap` using the deterministic fast hasher.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

/// A `HashSet` using the deterministic fast hasher.
pub type DetHashSet<T> = HashSet<T, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = DetHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn stable_across_builders() {
        let a = DetBuildHasher::default().hash_one(0xDEAD_BEEFu64);
        let b = DetBuildHasher::default().hash_one(0xDEAD_BEEFu64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_tail_lengths() {
        // A shorter input must not collide with its zero-padded extension
        // colliding trivially would be fine for correctness but is a smell.
        assert_ne!(hash_of(b"abc"), hash_of(b"abcd"));
        assert_ne!(hash_of(&[]), hash_of(&[0]));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Page tables are keyed by near-sequential page numbers; the hash
        // must not collapse them onto a few buckets.
        let mut low_bits: HashSet<u64> = HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(DetBuildHasher::default().hash_one(i) & 0xFF);
        }
        assert!(low_bits.len() > 128, "only {} distinct", low_bits.len());
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second, "same seed must yield the same stream");
        let mut c = SplitMix64::new(43);
        let third: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(first, third, "different seeds must diverge");
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: DetHashMap<u64, u64> = DetHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&2997));
    }
}
