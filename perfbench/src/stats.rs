//! Order statistics and the hand-rolled JSON the benchmark prints.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest whole percentile with at least ten samples beyond it
/// (nearest-rank), as `(percentile, value)`. With fewer than 20 samples no
/// percentile above the median qualifies, and the median is returned.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for q in (51..=99u32).rev() {
        let rank = (q as usize * n).div_ceil(100);
        if rank >= 1 && n - rank >= 10 {
            return (q, v[rank - 1]);
        }
    }
    (50, median(values))
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`, which the
/// result line never carries: checks turn them into failed ops first).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        let v: Vec<f64> = (1..=114).map(f64::from).collect();
        let (q, x) = tail(&v);
        assert_eq!(q, 91);
        assert!(v.iter().filter(|&&y| y > x).count() >= 10);
        // Too few samples for any upper percentile: the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50, 2.0));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
