//! Order statistics over timing samples, and the metric-name grammar.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`. A single sample is its own
/// quartiles. `None` for an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let q = |i: usize| {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Percentiles the report may name, in tenths of a percent, lowest first.
const PERCENTILES: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// above its nearest-rank position, with its value. `None` when even the
/// median has fewer than ten samples beyond it (fewer than 20 samples).
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    PERCENTILES.iter().rev().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 10.0, s[rank - 1]))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One timing summarised the way every report line states it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let (q1, q3) = quartiles(xs)?;
        Some(Summary {
            median: median(xs)?,
            q1,
            q3,
            n: xs.len(),
            tail: tail_percentile(xs),
        })
    }

    pub fn render(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => "p-tail=n/a(<20 samples)".to_string(),
        };
        format!(
            "median={:.6} q1={:.6} q3={:.6} n={} {tail}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&upto(19)), None);
        // 20 samples: the median (rank 10) has exactly 10 above it.
        assert_eq!(tail_percentile(&upto(20)), Some((50.0, 10.0)));
        // 40 samples: p75 is rank 30, 10 above; p90 would leave 4.
        assert_eq!(tail_percentile(&upto(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&upto(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&upto(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&upto(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn summary_renders_every_field() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.median, s.n, s.tail), (2.0, 3, None));
        assert!(s
            .render()
            .starts_with("median=2.000000 q1=1.000000 q3=3.000000 n=3"));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "pass_s",
            "schedsim.run_s",
            "ckpt.encode_s",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for ok in ["s", "ms", "1/s", "%", "MiB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
