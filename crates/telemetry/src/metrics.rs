//! Named counters and log₂ histograms.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Bucket index of `value` in a log₂ histogram: bucket 0 holds the
/// value 0 and bucket `i > 0` holds `[2^(i-1), 2^i)`.
pub fn histogram_bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `index` (see
/// [`histogram_bucket_index`]).
pub fn histogram_bucket_lo(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Histogram {
        count: u64,
        sum: u64,
        buckets: Vec<u64>,
    },
}

/// Live metric store behind the recorder's mutex. Critical sections
/// are a map lookup plus an integer update.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    metrics: BTreeMap<&'static str, Metric>,
}

impl Registry {
    pub(crate) fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.metrics.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(value) => *value = value.saturating_add(delta),
            _ => debug_assert!(false, "metric {name} is not a counter"),
        }
    }

    pub(crate) fn histogram_record(&mut self, name: &'static str, value: u64) {
        match self.metrics.entry(name).or_insert(Metric::Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; 65],
        }) {
            Metric::Histogram {
                count,
                sum,
                buckets,
            } => {
                *count += 1;
                *sum = sum.saturating_add(value);
                buckets[histogram_bucket_index(value)] += 1;
            }
            _ => debug_assert!(false, "metric {name} is not a histogram"),
        }
    }

    pub(crate) fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(value)) => Some(*value),
            _ => None,
        }
    }

    pub(crate) fn snapshot(&self, spans_recorded: u64, spans_dropped: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: Vec::new(),
            histograms: Vec::new(),
            spans_recorded,
            spans_dropped,
        };
        for (&name, metric) in &self.metrics {
            match metric {
                Metric::Counter(value) => snap.counters.push(CounterEntry {
                    name: name.to_string(),
                    value: *value,
                }),
                Metric::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let buckets = buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &n)| n > 0)
                        .map(|(i, &n)| HistogramBucket {
                            lo: histogram_bucket_lo(i),
                            count: n,
                        })
                        .collect();
                    snap.histograms.push(HistogramEntry {
                        name: name.to_string(),
                        count: *count,
                        sum: *sum,
                        buckets,
                    });
                }
            }
        }
        snap
    }
}

/// Serializable snapshot of every metric plus span accounting; folded
/// into the bench `--report` JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Log₂ histograms, sorted by name.
    pub histograms: Vec<HistogramEntry>,
    /// Spans successfully recorded.
    pub spans_recorded: u64,
    /// Spans lost to buffer overflow or lock contention.
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Value of a named counter in this snapshot, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name (e.g. `map.swaps_inserted`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram in a [`MetricsSnapshot`]. Only non-empty buckets are
/// listed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name (e.g. `compose.acceptance_permille`).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Occupied log₂ buckets in ascending order.
    pub buckets: Vec<HistogramBucket>,
}

/// One occupied bucket of a [`HistogramEntry`]: values in
/// `[lo, 2·lo)` (`lo = 0` holds exactly the value 0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Observations that landed in the bucket.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(histogram_bucket_index(0), 0);
        assert_eq!(histogram_bucket_index(1), 1);
        assert_eq!(histogram_bucket_index(2), 2);
        assert_eq!(histogram_bucket_index(3), 2);
        assert_eq!(histogram_bucket_index(4), 3);
        assert_eq!(histogram_bucket_index(7), 3);
        assert_eq!(histogram_bucket_index(8), 4);
        assert_eq!(histogram_bucket_index(1023), 10);
        assert_eq!(histogram_bucket_index(1024), 11);
        assert_eq!(histogram_bucket_index(u64::MAX), 64);
        for i in 1..=64 {
            let lo = histogram_bucket_lo(i);
            assert_eq!(histogram_bucket_index(lo), i);
            assert_eq!(histogram_bucket_index(lo - 1), i - 1);
        }
    }

    #[test]
    fn histogram_groups_values_into_buckets() {
        let mut reg = Registry::default();
        for v in [0, 1, 2, 3, 900, 1000] {
            reg.histogram_record("h", v);
        }
        let snap = reg.snapshot(0, 0);
        let h = &snap.histograms[0];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1906);
        let by_lo: Vec<(u64, u64)> = h.buckets.iter().map(|b| (b.lo, b.count)).collect();
        assert_eq!(by_lo, vec![(0, 1), (1, 1), (2, 2), (512, 2)]);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut reg = Registry::default();
        reg.counter_add("c", 41);
        reg.counter_add("c", 1);
        reg.histogram_record("h", 9);
        let snap = reg.snapshot(10, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("c"), Some(42));
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut reg = Registry::default();
        reg.counter_add("c", u64::MAX);
        reg.counter_add("c", 5);
        assert_eq!(reg.counter_value("c"), Some(u64::MAX));
    }
}
