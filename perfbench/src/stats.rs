//! Order statistics over samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile by linear interpolation between closest ranks
/// (0 for no samples).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi || v[hi] == v[lo] {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
            }
        }
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let n = 4;
    let at = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (at(1), at(3))
}

/// Interquartile range, in the samples' own unit.
pub fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }
}
