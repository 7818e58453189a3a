//! Exact statistics over kept samples, and the benchmark's own seeded
//! random stream (the program under test receives only generated
//! inputs, never the seed's stream).

/// One completed operation on the simulated clock, in nanoseconds. For a
/// paced (open-loop) client `start` is when the op was *due*, so time
/// spent queued behind a stalled predecessor counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub start: u64,
    pub end: u64,
}

impl Sample {
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }
}

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `sorted`, with
/// the number of samples strictly beyond it; `None` when fewer than
/// `min_beyond` samples lie beyond, because then the value is set by a
/// handful of outliers.
pub fn percentile(sorted: &[u64], p: f64, min_beyond: usize) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= min_beyond).then(|| (sorted[rank - 1], beyond))
}

pub fn mean(values: &[u64]) -> f64 {
    values.iter().map(|v| *v as f64).sum::<f64>() / values.len() as f64
}

/// Median of unsorted floats (mean of the middle two for an even count).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The first quartile of unsorted floats, by nearest rank.
pub fn lower_quartile(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[(values.len() - 1) / 4]
}

/// The distance between the first and third quartile as a share of the
/// median — the spread the driver computes, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)`. `None` under four
/// values or for a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let median = median_f64(&mut v);
    if v.len() < 4 || median == 0.0 {
        return None;
    }
    let quartile = |i: usize| {
        let at = i * (v.len() + 1);
        let j = (at / 4).clamp(1, v.len() - 1);
        let delta = (at - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median.abs())
}

/// The longest gap between successive acknowledgements over
/// `[from, from + horizon]`: the time clients went without service. The
/// gap that is open at `from` starts at the last ack before it, and a
/// gap still open at the horizon is closed there. `acks` is sorted.
pub fn longest_gap(acks: &[u64], from: u64, horizon: u64) -> u64 {
    let until = from + horizon;
    let first = acks.partition_point(|t| *t <= from);
    let mut prev = if first > 0 { acks[first - 1] } else { from };
    let mut longest = 0;
    for &t in &acks[first..] {
        if t > until {
            break;
        }
        longest = longest.max(t - prev);
        prev = t;
    }
    longest.max(until - prev.min(until))
}

/// SplitMix64: small, seedable, and stable across toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`, drawn by inverting the cumulative table.
#[derive(Debug)]
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|c| *c < u).min(self.0.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_what_lies_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0, MIN_BEYOND), Some((500, 500)));
        assert_eq!(percentile(&v, 99.0, MIN_BEYOND), Some((990, 10)));
        assert_eq!(percentile(&v, 100.0, 0), Some((1000, 0)));
    }

    #[test]
    fn percentile_is_withheld_without_ten_samples_beyond() {
        let v: Vec<u64> = (1..=999).collect();
        // rank ceil(989.01) = 990 leaves 9 beyond.
        assert_eq!(percentile(&v, 99.0, MIN_BEYOND), None);
        assert_eq!(percentile(&v, 99.0, 9), Some((990, 9)));
        assert_eq!(percentile(&[], 50.0, 0), None);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&v), Some(1.0));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartile_spread(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some(3.5 / 3.0));
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank_below() {
        assert_eq!(lower_quartile(&mut [4.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
        assert_eq!(lower_quartile(&mut [9.0, 7.0]), 7.0);
    }

    #[test]
    fn longest_gap_spans_the_crash_instant() {
        // Acks every 100 until 1000, silence, then from 1700 on.
        let mut acks: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        acks.extend((17..=30).map(|i| i * 100));
        // The crash at 1050 falls inside the gap that began at 1000.
        assert_eq!(longest_gap(&acks, 1050, 1500), 700);
        // A horizon that ends inside the silence closes the gap there.
        assert_eq!(longest_gap(&acks, 1050, 400), 450);
        // No ack at all: the whole horizon is an outage.
        assert_eq!(longest_gap(&[], 50, 400), 400);
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_per_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(32, 1.1);
        let mut rng = Rng::new(1, 1);
        let mut hits = [0usize; 32];
        for _ in 0..10_000 {
            hits[z.pick(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[31]);
    }
}
