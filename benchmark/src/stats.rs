//! Order statistics over small samples.

/// Summary of one sample: what the runner prints beside every timed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice, by linear
/// interpolation between the two closest ranks.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

pub fn summary(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
        max: s[s.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
        let s = summary(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
    }

    #[test]
    fn percentile_reaches_both_ends() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        assert_eq!(summary(&[5.0, 1.0, 4.0, 2.0, 3.0]), summary(&[1.0, 2.0, 3.0, 4.0, 5.0]));
    }
}
