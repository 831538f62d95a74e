//! Seeded, deterministic pseudo-random numbers for the whole workspace.
//!
//! Every stochastic component of the reproduction — workload models, the
//! fleet population, the benchmark drivers — draws from this crate instead
//! of an external `rand`, for two reasons:
//!
//! 1. **Hermetic offline builds.** The container that grows this repo has no
//!    crates.io access; a vendored PRNG removes the last network-dependent
//!    build input.
//! 2. **Determinism as a contract.** Results must be bit-identical given a
//!    seed (the paper's A/B methodology depends on paired, reproducible
//!    runs). A local generator pins the stream across toolchain updates;
//!    `rand` explicitly reserves the right to change value streams between
//!    versions.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded by expanding a
//! 64-bit seed through SplitMix64 — the reference seeding procedure. The
//! API mirrors the subset of `rand` the workspace used, so call sites only
//! changed their import.
//!
//! The same SplitMix64 constant drives the workspace's one integer-key
//! hasher, [`IntHasher`] / [`IntMap`], defined here so every crate that keys
//! a map by an address or an id shares a single definition.
//!
//! # Example
//!
//! ```
//! use wsc_prng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let die = rng.gen_range(1u32..=6);
//! assert!((1..=6).contains(&die));
//! let p: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&p));
//! // Identical seeds give identical streams.
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion (its equidistribution makes it safe to seed one
/// generator from another) and available directly for cheap hash-like
/// mixing.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 increment (Weyl constant). Odd, so `master + i * GAMMA` is
/// injective in `i`: distinct streams never collide on the same state.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Derives the `stream`-th child seed of `master` in O(1).
///
/// This is the workspace's seed-derivation tree: child `i` is the SplitMix64
/// output at state `master + i·γ` — i.e. the value a SplitMix64 sequence
/// seeded at `master` would produce on its `i+1`-th step, reached directly.
/// Children of distinct `(master, stream)` pairs are decorrelated by the
/// generator's avalanche mixing, and the derivation composes: a task can
/// derive grandchildren with `derive_seed(child, j)`.
///
/// The parallel experiment engine assigns every unit of work
/// `derive_seed(master, task_index)`, which is what makes results
/// independent of execution order and thread count.
///
/// # Example
///
/// ```
/// use wsc_prng::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// // Deterministic: same tree every time.
/// assert_eq!(a, derive_seed(42, 0));
/// ```
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut state = master.wrapping_add(stream.wrapping_mul(GAMMA));
    splitmix64(&mut state)
}

/// The workspace's one hasher for maps keyed by integers the program made
/// itself (addresses, hugepage indices, trace ids, CPU ids): a multiply by
/// the SplitMix64 Weyl constant per word, with the high half folded into
/// the low half on `finish` so keys that differ only above bit 32 — or only
/// in a few aligned address bits — still spread over both the bucket index
/// and the control byte the std table derives from one hash.
///
/// Unkeyed, so not collision-resistant against crafted keys: a hostile
/// trace can make a map slow, never wrong. Hash order is unspecified, so an
/// [`IntMap`] must never be iterated (the analyzer's `hashmap-iter` rule
/// enforces it); where the key space is dense by construction, index a
/// `Vec` instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(GAMMA);
    }
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    /// Total for any key type: bytes are folded eight at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A `HashMap` over [`IntHasher`]: for keyed lookups whose keys are
/// arbitrary integers. Build with `IntMap::default()`; never iterate.
///
/// # Example
///
/// ```
/// use wsc_prng::IntMap;
///
/// let mut live: IntMap<u64, u32> = IntMap::default();
/// live.insert(0x7f00_0020_0000, 7);
/// assert_eq!(live.remove(&0x7f00_0020_0000), Some(7));
/// ```
// lint:allow(hashmap-decl) the alias itself; never iterated — every use site
// carries its own justification.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A small, fast, seedable generator: xoshiro256++.
///
/// Not cryptographic. Period 2^256 − 1; passes BigCrush. The name matches
/// the `rand::rngs::SmallRng` it replaced so diffs stay readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next 64 uniform random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value of `T` (full integer range; `f64`/`f32` in `[0, 1)`).
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform value in `range` (half-open `a..b` or inclusive `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Types that can be drawn uniformly from a [`SmallRng`].
pub trait FromRng {
    /// Draws one value.
    fn from_rng(rng: &mut SmallRng) -> Self;
}

impl FromRng for u64 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for u16 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl FromRng for u8 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl FromRng for usize {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a [`SmallRng`] can sample uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

/// Uniform `u64` in `[0, span)` without modulo bias (Lemire's multiply-shift
/// with rejection).
#[inline]
fn bounded_u64(rng: &mut SmallRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Widening multiply maps the 64-bit stream onto [0, span); reject the
    // low-product region to erase the bias (at most one extra draw on
    // average for any span).
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + bounded_u64(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + bounded_u64(rng, span + 1) as $t
            }
        }
    )*};
}

int_range_impls!(u8, u16, u32, u64, usize);

macro_rules! signed_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                // Sign-extended wrapping difference is the span as unsigned;
                // wrapping_add folds the offset back into the signed domain.
                let span = (self.end as i64 as u64).wrapping_sub(self.start as i64 as u64);
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64 as u64).wrapping_sub(lo as i64 as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

signed_range_impls!(i8, i16, i32, i64, isize);

macro_rules! float_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let f: $t = rng.gen();
                let v = self.start + f * (self.end - self.start);
                // Guard the open upper bound against rounding.
                if v >= self.end {
                    <$t>::from_bits(self.end.to_bits() - 1)
                } else {
                    v
                }
            }
        }
    )*};
}

float_range_impls!(f32, f64);

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference stream for seed 0 (Vigna's splitmix64.c).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn derive_seed_matches_splitmix_walk() {
        // Child i equals the (i+1)-th output of a SplitMix64 sequence
        // seeded at the master — the O(1) jump is exact.
        let master = 0xfeed_beef;
        let mut s = master;
        for i in 0..16u64 {
            let walked = splitmix64(&mut s);
            assert_eq!(derive_seed(master, i), walked, "stream {i}");
        }
    }

    #[test]
    fn derive_seed_children_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for master in [0u64, 1, 42, u64::MAX] {
            for stream in 0..256u64 {
                seen.insert(derive_seed(master, stream));
            }
        }
        assert_eq!(seen.len(), 4 * 256, "no collisions across small trees");
    }

    fn int_hash(key: impl std::hash::Hash) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn int_hasher_spreads_the_key_shapes_we_feed_it() {
        // std's table takes the bucket from the low bits and a 7-bit tag
        // from the top bits of one hash: both must vary for sequential ids,
        // hugepage-aligned addresses and cache-line-aligned addresses alike.
        let shapes: [fn(u64) -> u64; 4] = [
            |k| k,
            |k| k << 21,
            |k| 0x7f00_0000_0000 + k * 64,
            |k| (k << 32) | 0xdead_beef,
        ];
        for (i, shape) in shapes.iter().enumerate() {
            let mut buckets = std::collections::BTreeSet::new();
            let mut tags = std::collections::BTreeSet::new();
            for k in 0..4096u64 {
                let h = int_hash(shape(k));
                buckets.insert(h & 0xfff);
                tags.insert(h >> 57);
            }
            // A uniform hash fills 4096·(1 − 1/e) ≈ 2589 of 4096 buckets;
            // hold every shape to three quarters of that.
            assert!(buckets.len() > 1940, "shape {i}: {} buckets", buckets.len());
            assert_eq!(tags.len(), 128, "shape {i}");
        }
    }

    #[test]
    fn int_hasher_is_total_over_byte_keys() {
        // Tuples, strings and odd-length slices go through `write`.
        assert_ne!(int_hash((1u32, 2u64)), int_hash((2u32, 1u64)));
        assert_ne!(int_hash("abc"), int_hash("abd"));
        assert_ne!(
            int_hash([1u8; 9].as_slice()),
            int_hash([1u8; 10].as_slice())
        );
    }

    #[test]
    fn int_map_agrees_with_an_ordered_map() {
        let mut rng = SmallRng::seed_from_u64(0x1a7);
        // lint:allow(hashmap-decl) the map under test; never iterated
        let mut map: IntMap<u64, u64> = IntMap::default();
        let mut model = std::collections::BTreeMap::new();
        for step in 0..20_000u64 {
            let key = rng.gen_range(0u64..512) << 21;
            if rng.gen::<f64>() < 0.5 {
                assert_eq!(map.insert(key, step), model.insert(key, step));
            } else {
                assert_eq!(map.remove(&key), model.remove(&key));
            }
            assert_eq!(map.len(), model.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(123);
        let mut b = SmallRng::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(3u32..=7);
            assert!((3..=7).contains(&w));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(0.6f64..1.4);
            assert!((0.6..1.4).contains(&v));
            let tiny = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(tiny > 0.0 && tiny < 1.0);
        }
    }

    #[test]
    fn singleton_inclusive_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(rng.gen_range(5u32..=5), 5);
    }

    #[test]
    fn all_ints_reachable_in_small_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = rng.gen_range(5u32..5);
    }
}
