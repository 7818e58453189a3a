//! Dependency-free log-bucketed latency histograms and a small metrics
//! registry (histograms + counters + gauges) with deterministic iteration.
//!
//! Bucketing is HdrHistogram-style: values below 16 get exact unit
//! buckets; above that, each power-of-two range is split into 16 linear
//! sub-buckets, bounding relative error at 1/16 (~6.25%) while keeping
//! the whole table at `16 + 60*16` fixed-size counters. `count`, `sum`
//! and `max` are exact. Percentiles return the *upper bound* of the
//! bucket containing the requested rank — a deterministic value a
//! sorted-vector oracle can reproduce exactly, which is what the seeded
//! property test checks (including across [`Hist::merge`]).

use std::collections::BTreeMap;

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16 linear sub-buckets per octave
const OCTAVES: usize = 60;
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// Index of the bucket covering `v`. Monotonic in `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (SUB + octave * SUB + sub).min(BUCKETS - 1)
}

/// The largest value mapping into bucket `i` (the percentile estimate).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let octave = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let msb = octave + SUB_BITS;
    let lower = (1u64 << msb) | (sub << (msb - SUB_BITS));
    lower + ((1u64 << (msb - SUB_BITS)) - 1)
}

/// A fixed-size log-bucketed histogram of `u64` observations (µs here,
/// but unit-agnostic).
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    buckets: Box<[u64; BUCKETS]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: Box::new([0; BUCKETS]),
        }
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Hist(n={} p50={} p95={} p99={} max={})",
            self.count,
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max
        )
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Bucketwise merge; equivalent to having recorded both streams into
    /// one histogram (exactly — the property test asserts this).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The upper bound of the bucket containing rank `ceil(p/100 · count)`
    /// (1-based). Returns 0 for an empty histogram. `p == 0` is the
    /// minimum-containing bucket; `p == 100` the maximum-containing one.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantizes `v` the way this histogram would report it: the upper
    /// bound of its bucket. Exposed so an oracle can predict percentiles.
    pub fn quantize(v: u64) -> u64 {
        bucket_upper(bucket_index(v))
    }
}

/// Point-in-time copy of the metrics registry
/// ([`Telemetry::metrics`](crate::Telemetry::metrics)).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub hists: BTreeMap<String, Hist>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
}

/// Named histograms, counters, and gauges. `BTreeMap`-keyed so snapshot
/// iteration order is deterministic.
#[derive(Default)]
pub(crate) struct Registry {
    hists: BTreeMap<String, Hist>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
}

impl Registry {
    pub fn observe(&mut self, family: &str, v: u64) {
        self.hists.entry_or_default(family).record(v);
    }

    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry_or_default(name) += n;
    }

    pub fn gauge(&mut self, name: &str, v: i64) {
        *self.gauges.entry_or_default(name) = v;
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            hists: self.hists.clone(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        }
    }
}

/// `entry(key.to_string()).or_default()` without allocating when the key
/// already exists.
trait EntryOrDefault<V> {
    fn entry_or_default(&mut self, key: &str) -> &mut V;
}

impl<V: Default> EntryOrDefault<V> for BTreeMap<String, V> {
    fn entry_or_default(&mut self, key: &str) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key.to_string(), V::default());
        }
        self.get_mut(key).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::default();
        for v in 0..16 {
            h.record(v);
        }
        for p in [1.0, 25.0, 50.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * 16.0f64).ceil().max(1.0) as u64;
            assert_eq!(h.percentile(p), rank - 1, "p{p}");
        }
        assert_eq!(h.max, 15);
        assert_eq!(h.sum, (0..16).sum::<u64>());
    }

    #[test]
    fn bucket_index_is_monotonic_and_upper_bound_tight() {
        let mut prev = 0;
        for v in (0..100_000u64).step_by(7) {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotonic at {v}");
            prev = i;
            assert!(bucket_upper(i) >= v, "upper bound below value at {v}");
            let rel_err = (bucket_upper(i) - v) as f64 / (v.max(1)) as f64;
            assert!(rel_err <= 1.0 / 16.0 + 1e-9, "error too large at {v}");
        }
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Hist::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.max, u64::MAX);
        assert!(h.percentile(50.0) > 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        let mut both = Hist::default();
        for v in [3u64, 99, 4096, 17, 1_000_000, 0, 8] {
            a.record(v);
            both.record(v);
        }
        for v in [250u64, 250, 13, 77_777] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
