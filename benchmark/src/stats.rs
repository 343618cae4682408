//! Order statistics, the calibration spin and the sample-repetition rule.

use std::time::{Duration, Instant};

/// The spin length every wall-clock number is normalised to: normalised
/// seconds = wall seconds × (`CALIB_REF_MS` ÷ the round's spin in ms).
/// Fixed in the source so results from different machines and machine
/// states share one unit.
pub const CALIB_REF_MS: f64 = 10.0;

/// A sample shorter than this repeats its input until this much time has
/// elapsed and reports time ÷ repetitions.
pub const MIN_SAMPLE: Duration = Duration::from_millis(50);

/// Sort a copy ascending. Inputs never hold NaN (they are measured times
/// and counts), so `total_cmp` is a plain numeric order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 100]` of an ascending slice, by linear
/// interpolation between closest ranks; 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let upper = sorted.get(lo + 1).copied().unwrap_or(last);
    sorted[lo] + (upper - sorted[lo]) * frac
}

/// Percentile of an unsorted slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The quartile spread to expect of `median(values)` between repeated
/// runs, estimated from this run's rounds: for independent rounds the
/// median's sampling distribution has an interquartile range of about
/// 1.25 × IQR ÷ √n. Recorded beside every timed metric so `compare` can
/// tell a change from noise; slow machine drift is not in it, so it is a
/// lower bound.
pub fn median_spread(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    1.25 * quartile_spread(values) / (values.len() as f64).sqrt()
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = percentile_sorted(&s, 50.0);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0)) / mid.abs()
}

/// One calibration spin: ordered-map and vector churn (insert, append,
/// remove over 4096 keys), the allocation- and cache-heavy kind of work
/// the measured crates do. Returns wall milliseconds, about 10 on the
/// reference container. A pure-ALU spin (FNV-1a over 1 MiB) was tried
/// first and does not track this machine's interference: see README,
/// "Normalisation".
pub fn calibration_spin_ms() -> f64 {
    let t = Instant::now();
    let mut map: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    let mut x = 88_172_645_463_325_252u64;
    for i in 0..80_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 4096).or_default().push(i);
        if i % 3 == 0 {
            map.remove(&((x >> 20) % 4096));
        }
    }
    std::hint::black_box(map.len());
    t.elapsed().as_secs_f64() * 1e3
}

/// Scale wall seconds into normalised seconds using a spin time.
pub fn normalise(wall_s: f64, spin_ms: f64) -> f64 {
    wall_s * (CALIB_REF_MS / spin_ms)
}

/// Bracketing calibration: every timed region is normalised by the mean
/// of the spin taken just before it and the spin taken just after it.
/// Interference here changes within seconds, so a spin further away than
/// that says little about the region it is meant to correct.
pub struct Calib {
    last_ms: f64,
    spins: Vec<f64>,
}

impl Calib {
    /// Take one discarded spin (warms the allocator and the clock path)
    /// and the first real one.
    pub fn start() -> Calib {
        calibration_spin_ms();
        let first = calibration_spin_ms();
        Calib {
            last_ms: first,
            spins: vec![first],
        }
    }

    /// Apply the sample-repetition rule to `work`, then spin; returns
    /// `(normalised seconds per repetition, last output)`.
    pub fn timed<I, O>(
        &mut self,
        min: Duration,
        prepare: impl FnMut() -> I,
        work: impl FnMut(I) -> O,
    ) -> (f64, O) {
        let before = self.last_ms;
        let (wall, _, out) = sample(min, prepare, work);
        self.last_ms = calibration_spin_ms();
        self.spins.push(self.last_ms);
        (normalise(wall, (before + self.last_ms) / 2.0), out)
    }

    /// Every spin taken so far, wall milliseconds.
    pub fn spins(&self) -> &[f64] {
        &self.spins
    }
}

/// The sample-repetition rule: run `work` on a fresh `prepare()` input
/// until at least `min` has elapsed *inside `work`* (preparation is not
/// timed), and return `(seconds per repetition, repetitions, last output)`.
/// A sample is therefore never shorter than `min` in total.
pub fn sample<I, O>(
    min: Duration,
    mut prepare: impl FnMut() -> I,
    mut work: impl FnMut(I) -> O,
) -> (f64, u32, O) {
    let mut elapsed = Duration::ZERO;
    let mut reps = 0u32;
    loop {
        let input = prepare();
        let t = Instant::now();
        let out = work(input);
        elapsed += t.elapsed();
        reps += 1;
        if elapsed >= min {
            return (elapsed.as_secs_f64() / f64::from(reps), reps, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: percentile by nearest-lower/upper ranks on a sorted copy.
    fn oracle(values: &[f64], p: f64) -> (f64, f64) {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let rank = p / 100.0 * (v.len() - 1) as f64;
        (v[rank.floor() as usize], v[rank.ceil() as usize])
    }

    #[test]
    fn percentiles_lie_between_oracle_ranks() {
        let mut x = 12345u64;
        for len in [1usize, 2, 3, 10, 41, 160] {
            let values: Vec<f64> = (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 40) as f64 / 7.0
                })
                .collect();
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let (lo, hi) = oracle(&values, p);
                let got = percentile(&values, p);
                assert!(lo <= got && got <= hi, "len {len} p {p}: {lo} {got} {hi}");
            }
            let s = sorted(&values);
            assert_eq!(percentile(&values, 0.0), s[0]);
            assert_eq!(percentile(&values, 100.0), s[len - 1]);
        }
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_of_known_sets() {
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        // 1..=5: q1 = 2, q3 = 4, median 3.
        let s = quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0]), 0.0);
        // Four times the rounds halve the expected spread of the median.
        let few = [1.0, 2.0, 3.0, 4.0, 5.0];
        let many: Vec<f64> = few.iter().cycle().take(20).copied().collect();
        assert!((median_spread(&few) / median_spread(&many) - 2.0).abs() < 0.35);
        assert_eq!(median_spread(&[]), 0.0);
    }

    #[test]
    fn sample_never_shorter_than_minimum() {
        let min = Duration::from_millis(50);
        let mut prepared = 0u32;
        let (per_rep, reps, last) = sample(
            min,
            || {
                prepared += 1;
                prepared
            },
            |i| {
                std::thread::sleep(Duration::from_millis(4));
                i
            },
        );
        assert!(reps >= 2, "a 4 ms body must repeat");
        assert_eq!(last, reps, "each repetition gets a fresh input");
        assert!(per_rep * f64::from(reps) >= min.as_secs_f64());
        // A body longer than the minimum runs exactly once.
        let (_, reps, ()) = sample(
            Duration::from_millis(5),
            || (),
            |()| std::thread::sleep(Duration::from_millis(6)),
        );
        assert_eq!(reps, 1);
    }

    #[test]
    fn normalise_scales_by_reference_spin() {
        assert_eq!(normalise(2.0, CALIB_REF_MS), 2.0);
        assert_eq!(normalise(2.0, CALIB_REF_MS * 2.0), 1.0);
    }

    #[test]
    fn calib_brackets_each_timed_region_with_one_new_spin() {
        let mut calib = Calib::start();
        assert_eq!(calib.spins().len(), 1);
        let (norm_s, out) = calib.timed(
            Duration::from_millis(1),
            || 3u32,
            |x| {
                std::thread::sleep(Duration::from_millis(2));
                x + 1
            },
        );
        assert_eq!(out, 4);
        assert_eq!(calib.spins().len(), 2);
        assert!(norm_s > 0.0 && calib.spins().iter().all(|ms| *ms > 0.0));
    }
}
