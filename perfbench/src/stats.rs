//! The benchmark's own statistics: medians, quartiles, the tail order
//! statistic, and the parent-versus-change rule.

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first and third quartiles by the "exclusive" method — the
/// default of Python's `statistics.quantiles(values, n=4)`, so spreads
/// computed here match the ones computed from the printed results.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN value.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "percentile of no values");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples a tail figure must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the (`TAIL_BEYOND`+1)-th largest sample, with the percentile it
/// sits at (`100 · (n − 10) / n`). `None` with too few samples to leave
/// ten beyond.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((sorted[n - 1 - TAIL_BEYOND], pct))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughputs, savings).
    Higher,
}

/// The verdict of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Pairs the change won, ties counting for neither side.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Change median minus parent median.
    pub delta: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    /// The change counts as a gain: it won at least nine tenths of the
    /// pairs and the medians differ by more than the parent's IQR.
    pub gain: bool,
    /// The change's median is worse than the parent's by more than
    /// `bound` × the parent's median.
    pub regression: bool,
}

/// Compares paired runs (`parent[i]` against `change[i]`) of one metric.
///
/// # Panics
///
/// Panics unless both sides hold the same number (at least two) of
/// runs.
#[must_use]
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count();
    let pairs = parent.len();
    let (parent_median, change_median) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let delta = change_median - parent_median;
    let improved = match better {
        Better::Lower => delta < 0.0,
        Better::Higher => delta > 0.0,
    };
    let worse_by = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    Comparison {
        wins,
        pairs,
        delta,
        parent_iqr: q3 - q1,
        gain: improved && wins * 10 >= pairs * 9 && delta.abs() > q3 - q1,
        regression: worse_by > bound * parent_median.abs(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("benchmark statistics never see NaN")
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // Eleven samples: the tail is the minimum, at percentile 100/11.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (value, pct) = tail(&v).expect("eleven samples suffice");
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // A hundred samples: the 90th percentile, value 90.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let beyond = v.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i)).collect();
        // Every pair won by a wide margin: a gain.
        let fast: Vec<f64> = parent.iter().map(|p| p - 2.0).collect();
        let c = compare(&parent, &fast, Better::Lower, 0.1);
        assert_eq!((c.wins, c.pairs), (10, 10));
        assert!(c.gain && !c.regression);
        // Nine of ten wins still counts.
        let mut nine = fast.clone();
        nine[0] = parent[0] + 1.0;
        assert!(compare(&parent, &nine, Better::Lower, 0.1).gain);
        // Eight of ten does not.
        let mut eight = nine.clone();
        eight[1] = parent[1] + 1.0;
        assert!(!compare(&parent, &eight, Better::Lower, 0.1).gain);
        // Ties count for neither side.
        let mut tied = fast.clone();
        tied[0] = parent[0];
        tied[1] = parent[1];
        assert_eq!(compare(&parent, &tied, Better::Lower, 0.1).wins, 8);
        // All pairs won, but by less than the parent's IQR: no gain.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        let c = compare(&parent, &close, Better::Lower, 0.1);
        assert_eq!(c.wins, 10);
        assert!(!c.gain);
    }

    #[test]
    fn direction_and_bound_decide_regression() {
        let parent = [100.0; 10];
        // Higher is better: a 5 % drop is within a 10 % bound, 15 % is not.
        let drop5 = [95.0; 10];
        let drop15 = [85.0; 10];
        assert!(!compare(&parent, &drop5, Better::Higher, 0.1).regression);
        assert!(compare(&parent, &drop15, Better::Higher, 0.1).regression);
        assert!(compare(&parent, &[115.0; 10], Better::Higher, 0.1).gain);
        // Lower is better: the same rise is the regression.
        assert!(compare(&parent, &[115.0; 10], Better::Lower, 0.1).regression);
        assert!(!compare(&parent, &drop15, Better::Lower, 0.1).regression);
        // A zero bound rejects any worsening of an exact metric.
        assert!(compare(&parent, &[99.999; 10], Better::Higher, 0.0).regression);
        assert!(!compare(&parent, &parent, Better::Higher, 0.0).regression);
    }
}
