//! Order statistics shared by every workload: nearest-rank percentiles
//! and the tail rule ("report the highest of p90/p99/p99.9 that has at
//! least [`MIN_BEYOND`] samples beyond it").
//!
//! Percentiles are in per-mille and ranks are computed in integers, so
//! `p99.9` of 10 000 samples is exactly rank 9 990 with 10 samples
//! beyond it — no floating-point rounding decides which side of the
//! rule a sample count falls on.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile a workload may report as `latency_tail_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    P90,
    P99,
    P999,
}

impl Tail {
    /// Highest first, the order the tail rule scans.
    pub const DESCENDING: [Tail; 3] = [Tail::P999, Tail::P99, Tail::P90];

    /// The percentile in per-mille.
    pub fn per_mille(self) -> usize {
        match self {
            Tail::P90 => 900,
            Tail::P99 => 990,
            Tail::P999 => 999,
        }
    }

    /// Display name, as printed in the run record.
    pub fn label(self) -> &'static str {
        match self {
            Tail::P90 => "p90",
            Tail::P99 => "p99",
            Tail::P999 => "p99.9",
        }
    }

    /// Samples strictly beyond this percentile's nearest-rank position
    /// in `n` samples.
    pub fn beyond(self, n: usize) -> usize {
        n - rank(self.per_mille(), n)
    }

    /// The highest tail percentile that `n` samples support, or `None`
    /// when even p90 has fewer than [`MIN_BEYOND`] samples beyond it.
    pub fn highest_supported(n: usize) -> Option<Tail> {
        Tail::DESCENDING
            .into_iter()
            .find(|t| t.beyond(n) >= MIN_BEYOND)
    }
}

/// The run-record line for a tail percentile taken over the `n`
/// requests of the quiet windows: the samples beyond it and the highest
/// percentile the tail rule supports for `n`.
pub fn tail_note(tail: Tail, n: usize) -> String {
    let supported = Tail::highest_supported(n).map_or("none", Tail::label);
    format!(
        "{} of the {n} quiet-window samples ({} beyond it); the tail rule supports {supported}",
        tail.label(),
        tail.beyond(n),
    )
}

/// 1-based nearest rank of the `per_mille` percentile in `n` samples:
/// `ceil(n * per_mille / 1000)`, at least 1 (0 for no samples).
fn rank(per_mille: usize, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n * per_mille).div_ceil(1000).clamp(1, n)
    }
}

/// The `per_mille` nearest-rank percentile of `values` (any order).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(values: &[f64], per_mille: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(per_mille, sorted.len()) - 1]
}

/// Nearest-rank median (the lower middle of an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 500)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(Tail::highest_supported(99), None);
        assert_eq!(Tail::highest_supported(100), Some(Tail::P90));
        assert_eq!(Tail::highest_supported(999), Some(Tail::P90));
        assert_eq!(Tail::highest_supported(1000), Some(Tail::P99));
        assert_eq!(Tail::highest_supported(9999), Some(Tail::P99));
        assert_eq!(Tail::highest_supported(10_000), Some(Tail::P999));
        assert_eq!(Tail::P999.beyond(10_000), 10);
        assert_eq!(Tail::P99.beyond(1000), 10);
        assert_eq!(Tail::P90.beyond(100), 10);
        assert_eq!(Tail::P90.beyond(99), 9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
