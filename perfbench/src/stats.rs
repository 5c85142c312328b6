//! Accounting shared by every workload: latency percentiles, the tail
//! rule, failure counting and peak memory.

use std::time::Duration;

/// The number of samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A latency summary: median and tail, with the sample count and the
/// percentile the tail stands for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples summarised.
    pub samples: usize,
    /// Median, in milliseconds.
    pub p50_ms: f64,
    /// Tail value, in milliseconds.
    pub tail_ms: f64,
    /// The percentile `tail_ms` stands for.
    pub tail_pct: f64,
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail rule: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it. With `n` sorted samples that is the value at
/// 0-based index `n - TAIL_BEYOND - 1`, standing for percentile
/// `100 * (n - TAIL_BEYOND) / n`. When that percentile would fall below
/// the median (fewer than `2 * TAIL_BEYOND` samples), no percentile has
/// enough samples beyond it to be a tail, and the maximum (percentile
/// 100) is reported instead.
///
/// Returns `(index into the sorted samples, percentile)`.
///
/// # Panics
///
/// Panics when `n` is zero.
pub fn tail_rank(n: usize) -> (usize, f64) {
    assert!(n > 0, "tail of no samples");
    if n < 2 * TAIL_BEYOND {
        (n - 1, 100.0)
    } else {
        (n - TAIL_BEYOND - 1, 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
    }
}

/// Summarises op latencies.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn latency(samples: &[Duration]) -> Latency {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let (index, tail_pct) = tail_rank(ms.len());
    Latency { samples: ms.len(), p50_ms: median(&ms), tail_ms: ms[index], tail_pct }
}

/// How one op ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Completed and every output check passed.
    Verified,
    /// Completed, but an output check failed.
    Unverified(String),
    /// The hub answered `rejected` (queue full).
    Rejected(String),
    /// The program returned an error, or the hub sent `error` or `failed`.
    Failed(String),
}

impl Outcome {
    /// Classifies an error message from a hub client call: backpressure
    /// (`rejected`) is told apart from every other failure.
    pub fn from_error(message: &str) -> Outcome {
        if message.contains("hub rejected the job") {
            Outcome::Rejected(message.to_owned())
        } else {
            Outcome::Failed(message.to_owned())
        }
    }

    /// Whether the op counts as a failure.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Verified)
    }
}

/// Attempted and failed op counts, with the first few failure reasons.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed in any way (see [`Outcome::is_failure`]).
    pub failed: u64,
    /// The first failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one op.
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        let reason = match outcome {
            Outcome::Verified => return,
            Outcome::Unverified(r) => format!("unverified: {r}"),
            Outcome::Rejected(r) => format!("rejected: {r}"),
            Outcome::Failed(r) => format!("failed: {r}"),
        };
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The memory high-water mark (`VmHWM`) of process `pid` (`"self"` for
/// this process), in MiB.
///
/// # Errors
///
/// Returns a message when `/proc` cannot be read or lacks the field.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: &[u64]) -> Vec<Duration> {
        values.iter().map(|&v| Duration::from_millis(v)).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [20, 21, 57, 100, 1000] {
            let (index, pct) = tail_rank(n);
            assert_eq!(n - 1 - index, TAIL_BEYOND, "n={n}");
            assert!((50.0..100.0).contains(&pct), "n={n}: p{pct}");
        }
        assert_eq!(tail_rank(100), (89, 90.0));
        assert_eq!(tail_rank(1000), (989, 99.0));
        assert_eq!(tail_rank(20), (9, 50.0));
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        assert_eq!(tail_rank(1), (0, 100.0));
        assert_eq!(tail_rank(19), (18, 100.0));
        let summary = latency(&ms(&[5, 1, 9, 3]));
        assert_eq!(summary.tail_ms, 9.0);
        assert_eq!(summary.tail_pct, 100.0);
        assert_eq!(summary.p50_ms, 4.0);
    }

    #[test]
    fn latency_tail_on_a_known_distribution() {
        // 1..=100 ms: the tail is p90 = 90 ms, with 91..=100 beyond it.
        let samples: Vec<u64> = (1..=100).rev().collect();
        let summary = latency(&ms(&samples));
        assert_eq!(summary.samples, 100);
        assert_eq!(summary.tail_ms, 90.0);
        assert_eq!(summary.tail_pct, 90.0);
        assert_eq!(summary.p50_ms, 50.5);
    }

    #[test]
    fn every_kind_of_failure_counts() {
        let mut tally = Tally::default();
        tally.record(&Outcome::Verified);
        tally.record(&Outcome::Unverified("result differs".into()));
        tally.record(&Outcome::from_error("hub rejected the job: queue full"));
        tally.record(&Outcome::from_error("job 3 failed: boom"));
        tally.record(&Outcome::Failed("hub rejected the request: bad spec".into()));
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.failed, 4);
        assert!((tally.error_rate() - 0.8).abs() < 1e-12);
        assert!(tally.reasons[1].starts_with("rejected:"), "{:?}", tally.reasons);
        assert!(tally.reasons[2].starts_with("failed:"), "{:?}", tally.reasons);
    }

    #[test]
    fn rejected_is_told_apart_from_an_error_reply() {
        assert!(matches!(Outcome::from_error("hub rejected the job: full"), Outcome::Rejected(_)));
        assert!(matches!(
            Outcome::from_error("hub rejected the request: invalid job"),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
