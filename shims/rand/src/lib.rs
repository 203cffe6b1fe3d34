//! Offline shim for `rand` (0.8-style API subset).
//!
//! Deterministic given a seed, self-consistent, and sufficient for the
//! generators in `euler-gen`: `Rng::gen`, `gen_range`, `gen_bool`,
//! `SeedableRng::seed_from_u64`, and `SliceRandom::{shuffle,
//! choose_multiple}`. Streams do NOT match the real rand crate; all
//! randomness in this workspace is seeded and only structural properties of
//! the outputs are asserted.

use std::ops::Range;

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`next_u64`](Self::next_u64)).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from an RNG (stand-in for the `Standard`
/// distribution).
pub trait Standard: Sized {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait RangeSample: Copy {
    /// Samples uniformly from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi - lo) as u64;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_range_sample!(u8, u16, u32, u64, usize);

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of type `T` uniformly.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a half-open range.
    fn gen_range<T: RangeSample>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds an RNG whose stream is a deterministic function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Sequence-related sampling (stand-in for `rand::seq`).
pub mod seq {
    use super::RngCore;
    use std::collections::HashMap;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Samples `amount` distinct elements (fewer if the slice is
        /// shorter), returned in selection order.
        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a T> {
            // Partial Fisher–Yates over the index table `0..n`, of which only
            // the entries a swap has moved are stored: O(amount), not O(n).
            // Entry `i` is never read after step `i`, so only `j` is written.
            let n = self.len();
            let k = amount.min(n);
            let mut moved: HashMap<usize, usize> = HashMap::with_capacity(k);
            let mut picked = Vec::with_capacity(k);
            for i in 0..k {
                let j = i + (rng.next_u64() % (n - i) as u64) as usize;
                let at_i = moved.get(&i).copied().unwrap_or(i);
                let at_j = moved.insert(j, at_i).unwrap_or(j);
                picked.push(&self[at_j]);
            }
            picked.into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Lcg(42);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = Lcg(7);
        for _ in 0..1000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        use seq::SliceRandom;
        let mut v: Vec<u32> = (0..50).collect();
        let mut rng = Lcg(3);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_multiple_distinct() {
        use seq::SliceRandom;
        let v: Vec<u32> = (0..30).collect();
        let mut rng = Lcg(9);
        let picked: Vec<u32> = v.choose_multiple(&mut rng, 10).copied().collect();
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "choose_multiple must not repeat");
    }

    /// The index-table partial Fisher–Yates that the sparse swap map
    /// replaced: the oracle for the sequence `choose_multiple` draws.
    fn choose_multiple_dense<'a, T>(slice: &'a [T], rng: &mut impl RngCore, amount: usize) -> Vec<&'a T> {
        let n = slice.len();
        let k = amount.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        let mut picked = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + (rng.next_u64() % (n - i) as u64) as usize;
            idx.swap(i, j);
            picked.push(&slice[idx[i]]);
        }
        picked
    }

    #[test]
    fn choose_multiple_draws_what_the_dense_table_draws() {
        use seq::SliceRandom;
        let mut params = Lcg(2024);
        for case in 0..500u64 {
            let n = (params.next_u64() % 60) as usize;
            // Every fifth case asks for at least the whole slice.
            let k = if case % 5 == 0 { n + (params.next_u64() % 3) as usize } else { (params.next_u64() % 64) as usize };
            let seed = params.next_u64();
            let v: Vec<usize> = (0..n).collect();
            let sparse: Vec<usize> = v.choose_multiple(&mut Lcg(seed), k).copied().collect();
            let dense: Vec<usize> = choose_multiple_dense(&v, &mut Lcg(seed), k).into_iter().copied().collect();
            assert_eq!(sparse, dense, "n {n} k {k} seed {seed}");
            assert_eq!(sparse.len(), k.min(n));
        }
    }
}
