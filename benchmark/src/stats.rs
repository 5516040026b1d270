//! Order statistics and the small numeric helpers the report needs.

/// The `p`-quantile (`0 < p < 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p · n` samples at or below it.
/// Returns `None` for an empty slice.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie strictly beyond the `p`-quantile. The report
/// names a tail percentile only when this is at least ten.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match quantile(samples, p) {
        Some(q) => samples.iter().filter(|&&s| s > q).count(),
        None => 0,
    }
}

/// Geometric mean of the positive values (`None` if there are none).
pub fn geomean(values: &[f64]) -> Option<f64> {
    let pos: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if pos.is_empty() {
        return None;
    }
    Some((pos.iter().map(|v| v.ln()).sum::<f64>() / pos.len() as f64).exp())
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a over bytes: the benchmark's output fingerprint.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Order-independent digest of a set of output hashes: FNV-1a over the
/// sorted, deduplicated list.
pub fn set_digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    let mut v: Vec<u64> = hashes.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    fnv(&v.iter().flat_map(|h| h.to_le_bytes()).collect::<Vec<u8>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_has_ten_samples_beyond_it_at_a_thousand() {
        // The p99 the report prints needs >= 10 samples beyond it: that
        // holds from 1000 distinct samples on, and not below.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.99), 10);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(beyond(&short, 0.99) < 10);
    }

    #[test]
    fn geomean_skips_non_positive() {
        let g = geomean(&[1.0, 4.0, 0.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0]), None);
    }
}
