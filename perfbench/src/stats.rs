//! Summary statistics and failure accounting.
//!
//! Two kinds of summary are kept apart on purpose:
//!
//! * a *percentile* of a latency distribution ([`percentile`]) is only
//!   reported when at least [`MIN_BEYOND`] samples lie beyond it — a p90
//!   over 40 jobs is refused, not printed;
//! * the *median and quartiles of repetitions* ([`Summary`]) describe how
//!   steady a whole-run figure was, whatever the repetition count.

/// Samples that must lie strictly beyond a percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or a refusal
/// naming how many samples it would need.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    let rank = |n: usize| ((q * n as f64).ceil() as usize).max(1);
    if n < rank(n) + MIN_BEYOND {
        let needed = (n..)
            .find(|&m| m >= rank(m) + MIN_BEYOND)
            .unwrap_or(usize::MAX);
        return Err(format!(
            "p{} refused: {n} samples, needs at least {needed} so that {MIN_BEYOND} lie beyond it",
            (q * 100.0).round()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n) - 1])
}

/// Median and quartiles of a set of repetitions, with Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) for the
/// quartiles, so the figures printed here match the ones a Python
/// script computes from the same values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the middle two for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions summarised.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Self {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            }),
            _ => {
                let median = if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                };
                let [q1, _, q3] = quartiles(&v);
                Some(Self { median, q1, q3, n })
            }
        }
    }
}

/// `statistics.quantiles(sorted, n=4)` for `sorted.len() >= 2`.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Attempted/failed accounting for one workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units of work attempted (cells or jobs).
    pub attempted: u64,
    /// Units that did not complete: failed, refused by backpressure, or
    /// lost to a client error.
    pub failed: u64,
}

impl Tally {
    /// Records one unit that completed.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one unit that failed.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records `n` units of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Failed units as a share of attempted ones (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let err = percentile(&ramp(99), 0.9).unwrap_err();
        assert!(err.contains("99 samples"), "{err}");
        assert!(err.contains("at least 100"), "{err}");
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Ok(20.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&ramp(10)).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_of_one_and_none() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn refused_submits_count_as_failures() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        t.fail(); // e.g. a QueueFull refusal
        t.add(1, 1); // a client error
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.5);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
