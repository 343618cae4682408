//! Deterministic randomness.
//!
//! Every stochastic component in the workspace (workload generators, arrival
//! processes, simulated latencies) derives its stream from a single `u64`
//! experiment seed through [`derive_rng`], so that
//!
//! - the same seed reproduces the same experiment bit-for-bit on any
//!   platform (ChaCha8 is platform-independent, unlike `SmallRng`), and
//! - independently labeled components get statistically independent streams
//!   even when created in different orders.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used throughout the workspace.
pub type DetRng = ChaCha8Rng;

/// Derive an independent, labeled RNG stream from an experiment seed.
///
/// `label` identifies the consumer ("workload", "arrivals", "latency@s3",
/// ...). Mixing is done with the SplitMix64 finalizer over the seed and a
/// FNV-1a hash of the label, which is cheap and avoids correlated streams
/// for adjacent seeds.
pub fn derive_rng(seed: u64, label: &str) -> DetRng {
    let h = fnv1a(FNV_OFFSET_BASIS, label.as_bytes());
    DetRng::seed_from_u64(splitmix64(seed ^ h))
}

/// The 64-bit FNV-1a offset basis: the `h` to start a hash from.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a hash `h`. Public because golden
/// tests digest recorded histories with it.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer. Public because tests and generators use it to
/// stretch small counters into well-mixed 64-bit values.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = derive_rng(42, "workload");
        let mut b = derive_rng(42, "workload");
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_different_streams() {
        let mut a = derive_rng(42, "workload");
        let mut b = derive_rng(42, "arrivals");
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn splitmix_spreads_adjacent_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8);
    }
}
