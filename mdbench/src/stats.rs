//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between order statistics. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Most samples [`repeat`] takes.
const MAX_REPS: usize = 10_000;

/// Call `sample` (which returns seconds) at least `min_reps` times and
/// until the samples sum to `min_seconds` (at most `MAX_REPS` times);
/// returns the samples. Short operations thus get many samples, and a
/// median over them does not hinge on a moment of host noise.
pub fn repeat(min_reps: usize, min_seconds: f64, mut sample: impl FnMut() -> f64) -> Vec<f64> {
    let mut samples: Vec<f64> = Vec::new();
    while samples.len() < min_reps
        || (samples.iter().sum::<f64>() < min_seconds && samples.len() < MAX_REPS)
    {
        samples.push(sample());
    }
    samples
}

/// Median seconds of `f`, timed as [`repeat`] says.
pub fn median_seconds(min_reps: usize, min_seconds: f64, mut f: impl FnMut()) -> f64 {
    median(&repeat(min_reps, min_seconds, || {
        let t = std::time::Instant::now();
        f();
        t.elapsed().as_secs_f64()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}
