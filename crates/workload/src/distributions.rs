//! Access-skew distributions over a site's data items.
//!
//! Item 0 is the reserved ticket item, so sampling covers `1..=items`.

use mdbs_common::ids::DataItemId;
use rand::Rng;

/// How accesses spread over a site's items.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessDistribution {
    /// Every item equally likely.
    Uniform,
    /// Zipf-like skew with parameter `theta` in `(0, 1)`; higher is more
    /// skewed. Sampled by the classic Gray et al. power approximation
    /// `item = ceil(items * u^(1/(1-theta)))`, which concentrates mass on
    /// low-numbered items.
    Zipf {
        /// Skew parameter, `0.0 < theta < 1.0`.
        theta: f64,
    },
    /// A fraction `hot_frac` of the items receives `hot_prob` of the
    /// accesses (e.g. the 80/20 rule is `hot_frac: 0.2, hot_prob: 0.8`).
    Hotspot {
        /// Fraction of items that are hot.
        hot_frac: f64,
        /// Probability an access goes to the hot set.
        hot_prob: f64,
    },
}

impl AccessDistribution {
    /// Sample an item id in `1..=items` (0 is the ticket).
    pub fn sample(&self, items: u64, rng: &mut impl Rng) -> DataItemId {
        debug_assert!(items >= 1);
        let idx = match *self {
            AccessDistribution::Uniform => rng.gen_range(1..=items),
            AccessDistribution::Zipf { theta } => {
                debug_assert!((0.0..1.0).contains(&theta));
                let u: f64 = rng.gen_range(0.0..1.0);
                let x = (items as f64) * u.powf(1.0 / (1.0 - theta));
                (x.ceil() as u64).clamp(1, items)
            }
            AccessDistribution::Hotspot { hot_frac, hot_prob } => {
                let hot_items = ((items as f64 * hot_frac).ceil() as u64).clamp(1, items);
                if rng.gen_bool(hot_prob.clamp(0.0, 1.0)) {
                    rng.gen_range(1..=hot_items)
                } else if hot_items == items {
                    rng.gen_range(1..=items)
                } else {
                    rng.gen_range(hot_items + 1..=items)
                }
            }
        };
        DataItemId(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_common::rng::derive_rng;

    fn histogram(dist: AccessDistribution, items: u64, n: usize) -> Vec<u64> {
        let mut rng = derive_rng(7, "dist-test");
        let mut h = vec![0u64; items as usize + 1];
        for _ in 0..n {
            let item = dist.sample(items, &mut rng);
            assert!(item.0 >= 1 && item.0 <= items, "out of range: {item:?}");
            h[item.0 as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_covers_range_evenly() {
        let h = histogram(AccessDistribution::Uniform, 10, 10_000);
        assert_eq!(h[0], 0, "ticket item never sampled");
        for count in &h[1..] {
            assert!(*count > 700 && *count < 1300, "roughly uniform: {h:?}");
        }
    }

    #[test]
    fn zipf_skews_to_low_items() {
        let h = histogram(AccessDistribution::Zipf { theta: 0.8 }, 100, 20_000);
        let head: u64 = h[1..=10].iter().sum();
        let tail: u64 = h[91..=100].iter().sum();
        assert!(head > tail * 4, "head {head} should dominate tail {tail}");
    }

    #[test]
    fn hotspot_ratio_holds() {
        let h = histogram(
            AccessDistribution::Hotspot {
                hot_frac: 0.2,
                hot_prob: 0.8,
            },
            100,
            20_000,
        );
        let hot: u64 = h[1..=20].iter().sum();
        let total: u64 = h.iter().sum();
        let frac = hot as f64 / total as f64;
        assert!((0.75..0.85).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn single_item_site() {
        for dist in [
            AccessDistribution::Uniform,
            AccessDistribution::Zipf { theta: 0.5 },
            AccessDistribution::Hotspot {
                hot_frac: 0.5,
                hot_prob: 0.9,
            },
        ] {
            let h = histogram(dist, 1, 100);
            assert_eq!(h[1], 100);
        }
    }
}
