//! Order statistics, CPU-steal windows and failure accounting shared
//! by every workload.
//!
//! Percentiles use the nearest-rank definition on a sorted copy: the
//! `q`-quantile of `n` samples is the `ceil(q * n)`-th smallest. Each
//! workload asks for fixed tail percentiles. Where fewer than
//! [`MIN_BEYOND`] samples would lie beyond one, [`tail_quantile`] lowers
//! it to the highest that leaves that many, `(n - MIN_BEYOND) / n`. That
//! choice moves by one rank per sample, not by a ladder step.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples (the slack
/// keeps `q * n` that is an integer up to rounding on that integer).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile, at most `want`, with at least
/// [`MIN_BEYOND`] samples beyond it; the median when even that is out
/// of reach.
pub fn tail_quantile(want: f64, n: usize) -> f64 {
    if n <= 2 * MIN_BEYOND {
        return 0.5;
    }
    want.min((n - MIN_BEYOND) as f64 / n as f64)
}

/// Nearest-rank `q`-quantile of `samples` (NaN when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(q, s.len()) - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail metric for `samples`: the nearest-rank quantile at
/// [`tail_quantile`]`(want, n)`, together with the quantile used.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let q = tail_quantile(want, samples.len());
    (quantile(samples, q), q)
}

/// Equal windows a run is cut into.
pub const WINDOWS: usize = 5;
/// Windows the steady metrics are taken from: the ones in which the
/// host stole the least CPU time from this machine. Steal comes in
/// bursts of a few seconds on a shared host and slows every thread of
/// the run; dropping the worst windows keeps a neighbour's burst out of
/// the figures without favouring fast or slow requests.
pub const CALM_WINDOWS: usize = 3;

fn window_of(at: f64, span: f64, w: usize) -> usize {
    ((at / span * w as f64).max(0.0) as usize).min(w - 1)
}

/// The [`CALM_WINDOWS`] of [`WINDOWS`] equal windows of a run with the
/// least CPU steal.
#[derive(Debug, Clone)]
pub struct CalmWindows {
    span: f64,
    /// Steal ticks per window.
    pub steal: [u64; WINDOWS],
    keep: [bool; WINDOWS],
}

impl CalmWindows {
    /// From `(offset, steal ticks)` increments over `[0, span)`.
    pub fn new(steal: impl IntoIterator<Item = (f64, u64)>, span: f64) -> Self {
        let mut per = [0u64; WINDOWS];
        for (at, ticks) in steal {
            per[window_of(at, span, WINDOWS)] += ticks;
        }
        let mut order: Vec<usize> = (0..WINDOWS).collect();
        order.sort_by_key(|&i| (per[i], i));
        let mut keep = [false; WINDOWS];
        for &i in &order[..CALM_WINDOWS] {
            keep[i] = true;
        }
        CalmWindows {
            span,
            steal: per,
            keep,
        }
    }

    /// Whether a sample at offset `at` lies in a kept window.
    pub fn keeps(&self, at: f64) -> bool {
        self.keep[window_of(at, self.span, WINDOWS)]
    }
}

/// The fastest latency of each distinct request over repeated passes,
/// `passes[p][r]` being request `r` in pass `p`. Contention from outside
/// the program (CPU steal, a neighbour's cache and memory traffic) only
/// ever slows a request down, so the fastest pass drops it as long as
/// one pass of that request ran undisturbed.
pub fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|r| passes.iter().map(|p| p[r]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Outcome counts of one measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Queries the load generator tried to run.
    pub attempted: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Answered from the approximate seed after a deadline expiry.
    pub degraded: u64,
    /// Answered over only part of the collection.
    pub partial: u64,
}

impl Outcomes {
    /// Queries that did not get a complete exact answer.
    pub fn failed(&self) -> u64 {
        self.rejected + self.degraded + self.partial
    }

    /// `failed / attempted`; `None` when nothing was attempted.
    pub fn failed_frac(&self) -> Option<f64> {
        (self.attempted > 0).then(|| self.failed() as f64 / self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of samples strictly beyond the nearest-rank `q`-quantile.
    fn beyond(q: f64, n: usize) -> usize {
        n - rank(q, n)
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 0.91), 10.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        assert_eq!(beyond(0.99, 1000), 10);
        assert_eq!(tail_quantile(0.99, 1000), 0.99);
        // More samples never raise a tail above what it asks for.
        assert_eq!(tail_quantile(0.99, 10_000), 0.99);
        assert_eq!(tail_quantile(0.999, 10_000), 0.999);
        // Fewer: the highest percentile that still leaves ten beyond.
        for n in [21, 100, 250, 999] {
            let q = tail_quantile(0.99, n);
            assert!(q < 0.99);
            assert_eq!(beyond(q, n), MIN_BEYOND, "n = {n}");
        }
        assert_eq!(tail_quantile(0.99, 100), 0.9);
        // Too few for any tail: the median.
        assert_eq!(tail_quantile(0.99, 20), 0.5);
        assert_eq!(tail_quantile(0.99, 0), 0.5);
    }

    #[test]
    fn tail_moves_one_rank_per_sample() {
        // Adding samples near the cut shifts the tail by one rank.
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99).0, 490.0);
        assert_eq!(tail(&s[..499], 0.99).0, 489.0);
    }

    #[test]
    fn tail_reports_value_and_quantile() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), (990.0, 0.99));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), (90.0, 0.9));
    }

    #[test]
    fn calm_windows_drop_the_most_stolen() {
        // Steal lands in windows 1 and 3 (of five 2 s windows).
        let calm = CalmWindows::new([(2.5, 7), (3.0, 1), (7.9, 4), (9.0, 1)], 10.0);
        assert_eq!(calm.steal, [0, 8, 0, 4, 1]);
        let kept: Vec<bool> = [0.0, 2.0, 4.0, 6.0, 8.0]
            .iter()
            .map(|&t| calm.keeps(t))
            .collect();
        assert_eq!(kept, [true, false, true, false, true]);
        // No steal at all: the earliest windows are kept.
        let quiet = CalmWindows::new([], 10.0);
        let kept: Vec<bool> = [0.0, 2.0, 4.0, 6.0, 8.0]
            .iter()
            .map(|&t| quiet.keeps(t))
            .collect();
        assert_eq!(kept, [true, true, true, false, false]);
    }

    #[test]
    fn fastest_takes_each_request_best_pass() {
        // A burst slows requests 0-1 in pass 0 and request 2 in pass 1.
        let passes = vec![
            vec![9.0, 8.0, 3.0],
            vec![2.0, 4.0, 7.0],
            vec![2.5, 4.5, 3.5],
        ];
        assert_eq!(fastest(&passes), [2.0, 4.0, 3.0]);
        assert!(fastest(&[]).is_empty());
    }

    #[test]
    fn failed_frac_counts_every_failure_kind() {
        let o = Outcomes {
            attempted: 200,
            rejected: 3,
            degraded: 2,
            partial: 5,
        };
        assert_eq!(o.failed(), 10);
        assert_eq!(o.failed_frac(), Some(0.05));
        let clean = Outcomes {
            attempted: 7,
            ..Outcomes::default()
        };
        assert_eq!(clean.failed_frac(), Some(0.0));
        assert_eq!(Outcomes::default().failed_frac(), None);
    }
}
