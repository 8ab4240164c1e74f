//! The benchmark's arithmetic: medians, the percentile rule, the
//! seeded arrival schedule and the open-loop latency definition.
//!
//! Everything a reported number passes through lives here so the unit
//! tests below pin the definitions the README states.

use anatomy::tensor::rng::SplitMix64;
use std::time::Duration;

/// Median of `values` (mean of the two middle elements for an even
/// count). Returns NaN for an empty slice so a missing series is loud.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation around `center` — the noise scale the
/// ladder reports next to every rung (DESIGN.md §10.2).
pub fn mad(values: &[f64], center: f64) -> f64 {
    let dev: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&dev)
}

/// The `p`-th percentile (0–100) of an ascending-sorted slice, by the
/// same nearest-index rule `ServerStats` uses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p / 100.0).round() as usize]
}

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// The percentile rule: the highest of p99/p95/p90/p75/p50 that has at
/// least [`MIN_BEYOND`] of the `samples` beyond it (p50 when none
/// has). Each workload reports one fixed tail percentile so its metric
/// never changes meaning between runs; this function is what that
/// choice is checked against on every run.
pub fn supported_percentile(samples: usize) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| samples as f64 * f64::from(100 - p) / 100.0 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Due times (offsets from the phase start) of `rate_per_s × duration`
/// Poisson arrivals: a Poisson process with a given number of arrivals
/// in a window is that many independent uniform times, sorted. Fixing
/// the count keeps the offered load the same for every seed while the
/// gaps stay exponential; the generator is seeded by `seed` alone, so
/// a seed fixes the schedule and the program under test never sees it.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate_per_s * duration.as_secs_f64()).round() as usize;
    // next_f32 is uniform in [-0.5, 0.5)
    let mut due: Vec<Duration> =
        (0..count).map(|_| duration.mul_f64(f64::from(rng.next_f32()) + 0.5)).collect();
    due.sort();
    due
}

/// One open-loop request, all times as offsets from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    /// When the schedule said the request should be sent.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its result was in hand.
    pub done: Duration,
}

impl OpenLoopSample {
    /// Latency from the **due** time: a stall that delays later sends
    /// is charged to the requests it delayed, not hidden.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator ran for this request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // deviations from 2 are {1, 0, 1, 8}: median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 10.0], 2.0), 1.0);
    }

    #[test]
    fn percentile_indexes_sorted_samples() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(8), 50);
        assert_eq!(supported_percentile(39), 50);
        assert_eq!(supported_percentile(40), 75);
        assert_eq!(supported_percentile(100), 90);
        assert_eq!(supported_percentile(199), 90);
        assert_eq!(supported_percentile(200), 95);
        assert_eq!(supported_percentile(999), 95);
        assert_eq!(supported_percentile(1000), 99);
    }

    #[test]
    fn schedule_is_reproducible_per_seed_and_differs_across_seeds() {
        let w = Duration::from_secs(10);
        let a = poisson_schedule(1, 100.0, w);
        assert_eq!(a, poisson_schedule(1, 100.0, w));
        assert_ne!(a, poisson_schedule(2, 100.0, w));
        // ascending, inside the window, exactly rate × duration long
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.last().unwrap() < &w);
        assert_eq!(a.len(), 1000);
        // exponential gaps: about 1/e of them exceed the mean gap
        let mean = w / 1000;
        let long = a.windows(2).filter(|p| p[1] - p[0] > mean).count();
        assert!((300..440).contains(&long), "{long} gaps above the mean");
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let ms = Duration::from_millis;
        let s = OpenLoopSample { due: ms(10), sent: ms(25), done: ms(40) };
        assert_eq!(s.latency(), ms(30), "from due, not from send");
        assert_eq!(s.lag(), ms(15));
    }
}
