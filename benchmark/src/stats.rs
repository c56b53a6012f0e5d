//! The benchmark's statistics: medians, quartiles with Python's
//! `statistics.quantiles(data, n=4)` semantics, the tail-percentile rule
//! and the paired-win rule a speed claim must pass.

/// Median; the mean of the middle two for an even count. `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The median of the minima of `parts` consecutive, near-equal parts of
/// `xs`, taken in the order given (fewer parts when there are fewer
/// samples). On a shared host a round is only ever slowed by its
/// neighbours, so a part's fastest round is its steadiest figure; the
/// median over the parts keeps one lucky round from setting the result.
/// `NaN` when empty.
pub fn median_of_part_minima(xs: &[f64], parts: usize) -> f64 {
    let (n, p) = (xs.len(), parts.min(xs.len()));
    let minima: Vec<f64> = (0..p)
        .map(|i| {
            xs[i * n / p..(i + 1) * n / p]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&minima)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method, with
/// the index clamping of Python 3.11) computes them. One sample gives that
/// sample three times; `None` when empty.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(xs);
    let ld = s.len() as i64;
    match ld {
        0 => return None,
        1 => return Some((s[0], s[0], s[0])),
        _ => {}
    }
    let (n, m) = (4i64, ld + 1);
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (s[(j - 1) as usize] * (n - delta) as f64 + s[j as usize] * delta as f64) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median — the steadiness
/// figure the bounds are checked against.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, _, q3)) => (q3 - q1) / median(xs).abs(),
        None => f64::NAN,
    }
}

/// A tail latency: the highest whole percentile that still has at least
/// `min_beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 1..=99.
    pub pct: u32,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

/// The tail rule: the highest percentile `p` whose nearest-rank position
/// `r = ceil(p·N/100)` leaves at least `min_beyond` of the `N` samples
/// after it. `None` when no percentile qualifies (too few samples).
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    (1..=99u32).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= min_beyond).then(|| Tail {
            pct,
            value: s[rank - 1],
            beyond: n - rank,
        })
    })
}

/// How many `(before, after)` pairs the `after` side wins, where a win
/// means strictly better in the metric's direction.
pub fn pair_wins(pairs: &[(f64, f64)], lower_is_better: bool) -> usize {
    pairs
        .iter()
        .filter(|&&(a, b)| if lower_is_better { b < a } else { b > a })
        .count()
}

/// The claim rule: at least ten interleaved pairs, and the new side wins
/// at least nine in ten of them.
pub fn pair_rule_holds(wins: usize, pairs: usize) -> bool {
    pairs >= 10 && wins * 10 >= pairs * 9
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_part_minima_takes_each_parts_fastest() {
        let xs = [5.0, 1.0, 6.0, 2.0, 7.0, 3.0, 8.0, 4.0];
        assert_eq!(median_of_part_minima(&xs, 4), 2.5);
        assert_eq!(median_of_part_minima(&xs, 1), 1.0);
        // Uneven parts: [5, 1, 6] [2, 7, 3] [8, 4] -> minima 1, 2, 4.
        assert_eq!(median_of_part_minima(&xs, 3), 2.0);
        // More parts than samples: every sample is its own part.
        assert_eq!(median_of_part_minima(&[3.0, 1.0, 2.0], 8), 2.0);
        assert!(median_of_part_minima(&[], 8).is_nan());
    }

    /// Expected values printed by Python 3.11's
    /// `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python() {
        type Case = (&'static [f64], (f64, f64, f64));
        let cases: &[Case] = &[
            (&[1.0, 2.0], (0.75, 1.5, 2.25)),
            (&[3.0, 1.0, 2.0], (1.0, 2.0, 3.0)),
            (&[1.0, 2.0, 3.0, 4.0], (1.25, 2.5, 3.75)),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 3.0, 4.5)),
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                (2.75, 5.5, 8.25),
            ),
            (&[0.5, 0.25, 0.125, 4.0, 8.0, 16.0, 32.0], (0.25, 4.0, 16.0)),
        ];
        for (data, want) in cases {
            assert_eq!(quartiles(data), Some(*want), "{data:?}");
        }
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&xs, 10),
            Some(Tail {
                pct: 90,
                value: 90.0,
                beyond: 10
            })
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 10).map(|t| (t.pct, t.beyond)), Some((95, 10)));
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs, 10).map(|t| (t.pct, t.value)), Some((80, 40.0)));
        // 37 samples: p72 sits at rank 27 (10 beyond); p73 at rank 28.
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        assert_eq!(tail(&xs, 10).map(|t| (t.pct, t.beyond)), Some((72, 10)));
        // Input order does not matter.
        let rev: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&rev, 10).unwrap().value, 90.0);
    }

    #[test]
    fn tail_needs_more_samples_than_it_keeps_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs, 10).map(|t| (t.pct, t.value)), Some((9, 1.0)));
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn wins_follow_the_metric_direction() {
        let pairs = [(1.0, 0.9), (1.0, 1.1), (1.0, 1.0)];
        assert_eq!(pair_wins(&pairs, true), 1);
        assert_eq!(pair_wins(&pairs, false), 1);
    }

    #[test]
    fn nine_of_ten_pairs_rule() {
        assert!(pair_rule_holds(9, 10));
        assert!(pair_rule_holds(10, 10));
        assert!(!pair_rule_holds(8, 10));
        assert!(pair_rule_holds(18, 20));
        assert!(!pair_rule_holds(17, 20));
        // Fewer than ten pairs never suffice, however lopsided.
        assert!(!pair_rule_holds(9, 9));
        assert!(!pair_rule_holds(0, 0));
    }
}
