//! Order statistics used to summarize repeated measurements.

/// The median of `values` (the mean of the two middle values for an even
/// count); `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values)?;
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). `None` for fewer than two values or any NaN.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values)?;
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        // j = floor(i * (m + 1) / 4), clamped to [1, m - 1] as Python does.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The interquartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}
