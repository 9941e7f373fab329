//! Small numeric helpers: percentiles with a sample-count rule, an
//! order-insensitive row digest, and a seeded generator.

/// A percentile and the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, refusing when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<Pct, String> {
    let n = samples.len();
    let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Ok(Pct {
        value: v[rank - 1],
        samples: n,
    })
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Quantile `q` of a bucketed histogram given as cumulative
/// `(upper_bound, count)` pairs, interpolated linearly inside the
/// bucket that holds the rank. `None` when the histogram is empty.
pub fn bucket_quantile(cumulative: &[(u64, u64)], q: f64) -> Option<f64> {
    let total = cumulative.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = q * total as f64;
    let (mut lo, mut below) = (0u64, 0u64);
    for &(hi, cum) in cumulative {
        if cum as f64 >= rank && cum > below {
            if hi == u64::MAX {
                return Some(lo as f64);
            }
            let frac = (rank - below as f64) / (cum - below) as f64;
            return Some(lo as f64 + frac.clamp(0.0, 1.0) * (hi - lo) as f64);
        }
        lo = hi;
        below = cum;
    }
    Some(lo as f64)
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-insensitive digest of a result set: the wrapping sum of each
/// row's hash, so the same multiset of rows gives the same digest in
/// any order.
pub fn rows_digest<R: AsRef<[String]>>(rows: &[R]) -> u64 {
    rows.iter().fold(0u64, |acc, row| {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for cell in row.as_ref() {
            h = h.rotate_left(7) ^ fnv(cell.as_bytes());
        }
        acc.wrapping_add(h)
    })
}

/// SplitMix64: the benchmark's own seeded stream, so request streams
/// depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_4c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 99.0).expect("1000 samples support p99");
        assert_eq!(p.samples, 1000);
        assert_eq!(p.value, 990.0);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 500.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        // 999 samples leave 9 beyond p99.
        let err = percentile(&v, 99.0).unwrap_err();
        assert!(err.contains("at least 10"), "{err}");
        assert!(percentile(&v[..199], 95.0).is_err());
        assert!(percentile(&v[..200], 95.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // 10 observations in (0, 100], 10 in (100, 200].
        let cum = [(100, 10), (200, 20), (u64::MAX, 20)];
        assert_eq!(bucket_quantile(&cum, 0.5), Some(100.0));
        assert_eq!(bucket_quantile(&cum, 0.75), Some(150.0));
        assert_eq!(bucket_quantile(&[(100, 0), (u64::MAX, 0)], 0.5), None);
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = vec![
            vec!["x".to_string(), "1".into()],
            vec!["y".into(), "2".into()],
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        let c = vec![
            vec!["x".to_string(), "2".into()],
            vec!["y".into(), "1".into()],
        ];
        assert_eq!(rows_digest(&a), rows_digest(&b));
        assert_ne!(rows_digest(&a), rows_digest(&c));
    }
}
