//! The metrics registry: counters, gauges and fixed-boundary histograms.
//!
//! Everything in this module is built for the workspace's determinism
//! contract: the operations the registry exposes are **commutative**
//! (counter adds, gauge maxima, histogram records), so parallel tasks
//! recording into one registry produce the same final state regardless of
//! interleaving or thread count. Histogram values are integers (`u64`) —
//! typically nanoseconds, bytes or counts — so no floating-point summation
//! order can leak into a snapshot.

use std::collections::BTreeMap;

use kooza_json::{FromJson, Json, JsonError, ToJson};

/// A fixed-boundary histogram over `u64` values.
///
/// `bounds` are inclusive upper bounds of the first `bounds.len()`
/// buckets; one overflow bucket catches everything larger. Counts, sum,
/// min and max are all integers, so two histograms built from the same
/// multiset of values are identical however the records interleaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket upper bounds this histogram was created with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket boundaries differ — merging histograms of
    /// different shapes is a programming error, not a data condition.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different boundaries"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of recorded values, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Fraction of recorded values above `threshold`, from bucket counts.
    /// Exact when `threshold` is one of the bucket bounds; otherwise the
    /// whole straddling bucket counts as above. 0 when empty.
    pub fn fraction_above(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let cut = self.bounds.partition_point(|&b| b <= threshold);
        let above: u64 = self.counts[cut..].iter().sum();
        above as f64 / self.count as f64
    }
}

/// A point-in-time copy of one registry: sorted, comparable, mergeable.
///
/// Entries are sorted by metric name (the registry stores them that way),
/// so two snapshots of registries that saw the same events are `==` and
/// serialize to identical bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Merges two snapshots: counters add, gauges take the maximum,
    /// histograms merge bucket-wise. Commutative: `a.merge(&b) ==
    /// b.merge(&a)` (the property suite pins this).
    ///
    /// # Panics
    ///
    /// Panics if a histogram name appears in both with different bounds.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        fn merged<T: Clone>(
            a: &[(String, T)],
            b: &[(String, T)],
            mut combine: impl FnMut(&T, &T) -> T,
        ) -> Vec<(String, T)> {
            let mut out: BTreeMap<String, T> =
                a.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            for (k, v) in b {
                match out.get_mut(k) {
                    Some(existing) => *existing = combine(existing, v),
                    None => {
                        out.insert(k.clone(), v.clone());
                    }
                }
            }
            out.into_iter().collect()
        }
        MetricsSnapshot {
            counters: merged(&self.counters, &other.counters, |a, b| a + b),
            gauges: merged(&self.gauges, &other.gauges, |a, b| a.max(*b)),
            histograms: merged(&self.histograms, &other.histograms, |a, b| {
                let mut m = a.clone();
                m.merge_from(b);
                m
            }),
        }
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("bounds".into(), Json::Array(self.bounds.iter().map(|&b| Json::U64(b)).collect())),
            ("counts".into(), Json::Array(self.counts.iter().map(|&c| Json::U64(c)).collect())),
            ("count".into(), Json::U64(self.count)),
            ("sum".into(), Json::U64(self.sum)),
            ("min".into(), Json::U64(self.min)),
            ("max".into(), Json::U64(self.max)),
        ])
    }
}

impl FromJson for Histogram {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        let bounds = Vec::<u64>::from_json(value.field("bounds")?)?;
        let counts = Vec::<u64>::from_json(value.field("counts")?)?;
        if counts.len() != bounds.len() + 1 {
            return Err(JsonError::conversion(format!(
                "histogram with {} bounds needs {} counts, found {}",
                bounds.len(),
                bounds.len() + 1,
                counts.len()
            )));
        }
        let mut h = Histogram::new(&bounds);
        h.counts = counts;
        h.count = u64::from_json(value.field("count")?)?;
        h.sum = u64::from_json(value.field("sum")?)?;
        h.min = u64::from_json(value.field("min")?)?;
        h.max = u64::from_json(value.field("max")?)?;
        Ok(h)
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        let pairs = |v: &[(String, Json)]| Json::Object(v.to_vec());
        Json::Object(vec![
            (
                "counters".into(),
                pairs(&self.counters.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect::<Vec<_>>()),
            ),
            (
                "gauges".into(),
                pairs(&self.gauges.iter().map(|(k, v)| (k.clone(), Json::F64(*v))).collect::<Vec<_>>()),
            ),
            (
                "histograms".into(),
                pairs(
                    &self
                        .histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

impl FromJson for MetricsSnapshot {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        let object = |v: &Json, what: &str| -> kooza_json::Result<Vec<(String, Json)>> {
            v.as_object()
                .map(<[(String, Json)]>::to_vec)
                .ok_or_else(|| JsonError::conversion(format!("{what} must be an object")))
        };
        let mut snapshot = MetricsSnapshot::default();
        for (name, v) in object(value.field("counters")?, "counters")? {
            snapshot.counters.push((name, u64::from_json(&v)?));
        }
        for (name, v) in object(value.field("gauges")?, "gauges")? {
            snapshot.gauges.push((
                name,
                v.as_f64()
                    .ok_or_else(|| JsonError::conversion("gauge value must be a number"))?,
            ));
        }
        for (name, v) in object(value.field("histograms")?, "histograms")? {
            snapshot.histograms.push((name, Histogram::from_json(&v)?));
        }
        Ok(snapshot)
    }
}

/// The registry: a named collection of counters, gauges and histograms.
///
/// Names are stored sorted (`BTreeMap`), so snapshots and exports are
/// byte-stable whatever order the metrics were first touched in.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a counter, creating it at zero first if needed.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// The current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge. Not commutative — call only from one thread (the
    /// orchestration thread); parallel tasks should use
    /// [`MetricsRegistry::gauge_max`].
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raises a gauge to `value` if larger (a high-water mark). Safe to
    /// call from parallel tasks: max is commutative.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        if value > *g {
            *g = value;
        }
    }

    /// The current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one value into a histogram, creating it with `bounds` on
    /// first use (later calls ignore `bounds`).
    pub fn histogram_record(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.histogram_mut(name, bounds).record(value);
    }

    /// Get-or-create access to a histogram (for bulk recording without a
    /// name lookup per value).
    pub fn histogram_mut(&mut self, name: &str, bounds: &[u64]) -> &mut Histogram {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
    }

    /// A histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, h)| (k.clone(), h.clone())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("a", 2);
        reg.counter_add("a", 3);
        assert_eq!(reg.counter("a"), 5);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn gauges_set_and_max() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("g", 2.0);
        reg.gauge_max("g", 1.0);
        assert_eq!(reg.gauge("g"), Some(2.0));
        reg.gauge_max("g", 7.5);
        assert_eq!(reg.gauge("g"), Some(7.5));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 101 + 5000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5000);
        assert!((h.mean().unwrap() - h.sum() as f64 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_fraction_above_bounds_is_exact() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert!((h.fraction_above(10) - 4.0 / 6.0).abs() < 1e-12);
        assert!((h.fraction_above(100) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.fraction_above(1000), 1.0 / 6.0);
        assert_eq!(Histogram::new(&[10]).fraction_above(10), 0.0);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(500);
        let mut b = Histogram::new(&[10, 100]);
        b.record(50);
        a.merge_from(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    #[should_panic(expected = "different boundaries")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[10]);
        a.merge_from(&Histogram::new(&[20]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn snapshot_is_sorted_and_mergeable() {
        let mut a = MetricsRegistry::new();
        a.counter_add("z", 1);
        a.counter_add("a", 2);
        a.gauge_set("u", 0.5);
        a.histogram_record("h", &[10], 3);
        let sa = a.snapshot();
        assert_eq!(sa.counters[0].0, "a"); // sorted by name

        let mut b = MetricsRegistry::new();
        b.counter_add("z", 10);
        b.gauge_set("u", 0.25);
        b.histogram_record("h", &[10], 30);
        let sb = b.snapshot();

        let m = sa.merge(&sb);
        assert_eq!(m.counter("z"), Some(11));
        assert_eq!(m.counter("a"), Some(2));
        assert_eq!(m.gauge("u"), Some(0.5)); // max
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.counts(), &[1, 1]);
        // Commutative.
        assert_eq!(m, sb.merge(&sa));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("requests", 42);
        reg.gauge_set("util", 0.75);
        reg.histogram_record("lat", &[100, 1000], 250);
        let snap = reg.snapshot();
        let text = kooza_json::to_string(&snap.to_json());
        let back = MetricsSnapshot::from_json(&kooza_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}
