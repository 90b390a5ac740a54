//! Order statistics shared by every workload.

/// `q`-quantile (0 < q ≤ 1) of an ascending list by the nearest-rank rule
/// (`rank = ceil(q · n)`); 0 when empty. The load harness's own function,
/// so the two report the same percentile for the same samples.
pub use threev_server::load::percentile;

/// Samples strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(0, n)
}

/// The tail percentiles a report may print, lowest first.
pub const TAILS: [(&str, f64); 3] = [("p99", 0.99), ("p999", 0.999), ("p9999", 0.9999)];

/// The highest entry of [`TAILS`] that still has at least ten samples
/// beyond it, with its value; `None` when even p99 does not.
pub fn highest_supported_tail(sorted: &[u64]) -> Option<(&'static str, u64)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, q)| samples_beyond(sorted.len(), *q) >= 10)
        .map(|(label, q)| (*label, percentile(sorted, *q)))
}

/// Median of an unsorted list (mean of the middle pair when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

/// Samples a window holds at least, so its p99 has ten beyond it.
const MIN_WINDOW: usize = 1000;
/// Windows a run is cut into at most.
const MAX_WINDOWS: usize = 9;

/// The `q`-quantile of each of up to [`MAX_WINDOWS`] equal consecutive
/// windows of `in_order` (samples in schedule order), and the lower quartile
/// of those window quantiles.
///
/// Noise on this host is one-sided and comes in episodes: over six runs of
/// `xpart_tcp` the one-second windows' p99 sat at 308-335 us with between
/// one and five windows of nine pushed to 350-1500 us, and how many were
/// pushed is what differed from run to run (over ten seeds the whole run's
/// p99 had an inter-quartile spread of 167 % of its median, the median or
/// mean of the middle windows 13-21 %, this 6-13 %). The quiet windows
/// carry the program's behaviour: a change to the program moves every
/// window, a neighbour's burst moves some. What this hides is a stall of
/// the program's own that recurs in fewer than three windows out of four;
/// the ungated p999 note and the spans of the traced run still show it.
pub fn windowed_percentile(in_order: &[u64], q: f64) -> f64 {
    let windows = (in_order.len() / MIN_WINDOW).clamp(1, MAX_WINDOWS);
    let per = in_order.len() / windows;
    let mut quantiles: Vec<u64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * per
            };
            let mut window = in_order[w * per..end].to_vec();
            window.sort_unstable();
            percentile(&window, q)
        })
        .collect();
    quantiles.sort_unstable();
    quantiles[(windows - 1) / 4] as f64
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond, p999 only 1.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(highest_supported_tail(&v), Some(("p99", 990)));
        // One sample fewer and p99 is no longer supported either.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(highest_supported_tail(&v[..999]), None);
        // 10 000 samples support p999 but not p9999.
        let big: Vec<u64> = (1..=10_000).collect();
        assert_eq!(highest_supported_tail(&big), Some(("p999", 9990)));
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_tail() {
        // 9000 samples of 100 with 200-sample stalls of 5000 in four of the
        // nine windows: the run's p99 is the stall, the windowed p99 is not.
        let mut v = vec![100u64; 9000];
        for w in [1, 4, 5, 8] {
            v[w * 1000..w * 1000 + 200].fill(5000);
        }
        assert_eq!(windowed_percentile(&v, 0.99), 100.0);
        // A shift of every window is a shift of the result.
        let shifted: Vec<u64> = v.iter().map(|x| x + 30).collect();
        assert_eq!(windowed_percentile(&shifted, 0.99), 130.0);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 0.99), 5000);
        // Fewer than two windows' worth: the plain quantile.
        let short: Vec<u64> = (1..=1500).rev().collect();
        assert_eq!(windowed_percentile(&short, 0.5), 750.0);
        assert_eq!(windowed_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
