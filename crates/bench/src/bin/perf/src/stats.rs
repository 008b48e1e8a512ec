//! Order statistics, the Zipf sampler and the answer digest.

use rand::Rng;

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice by the
/// nearest-rank rule; `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered sample (mean of the two middle values for an
/// even count); `0.0` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Zipf-distributed ranks `0..n` with exponent 1: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n.max(1))
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a over the printed answer: the digest the correctness gate compares.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(64);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H_64 = 0.211; P(rank 63) = 0.0033.
        assert!((3800..4700).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > 2 * counts[2] && counts[2] > counts[20]);
        assert!(counts[63] > 0 && counts[63] < 200, "{}", counts[63]);
    }

    #[test]
    fn digest_tells_answers_apart() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"<a 1>"), digest(b"<a 2>"));
    }
}
