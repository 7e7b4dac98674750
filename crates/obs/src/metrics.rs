//! A lock-cheap metrics registry: counters, gauges and fixed-bucket
//! histograms with Prometheus-style text exposition and a JSON snapshot.
//!
//! All three metric kinds store `f64` values in `AtomicU64` bit patterns,
//! so recording never blocks on another writer: increments are a CAS loop
//! on the atomic, and the registry's maps are only write-locked the first
//! time a new `(name, labels)` series appears. Callers on a hot path can
//! hold on to the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles and
//! skip the map lookup entirely.
//!
//! Exposition is deterministic: series print in `BTreeMap` order (name,
//! then labels), histograms print cumulative `le` buckets plus `_sum` and
//! `_count` — the text format a future `vpart serve` can return verbatim
//! from `GET /metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::RwLock;

/// A metric series identifier: a name plus ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name (`snake_case`, `_total` suffix for counters by
    /// convention).
    pub name: String,
    /// Label pairs, in exposition order.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        Self {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// `name{k="v",...}` (no braces when unlabeled).
    fn render(&self) -> String {
        render_series(&self.name, &self.labels, &[])
    }
}

/// Renders `name{labels...,extra...}`; no braces when both are empty.
fn render_series(name: &str, labels: &[(String, String)], extra: &[(&str, String)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().map(|(k, v)| (*k, v.as_str())))
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

/// An `f64` stored in an `AtomicU64` bit pattern.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn get(&self) -> f64 {
        // ordering: Relaxed — a single self-contained cell; readers need
        // no happens-before edge with other memory, only the latest-ish
        // value of this one scalar.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        // ordering: Relaxed — gauge sets publish one scalar, nothing else.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Lock-free add via a CAS loop (exhaustively checked in
    /// `model_check` (the `model-check` feature): no update is ever lost under any
    /// interleaving).
    fn add(&self, delta: f64) {
        // ordering: Relaxed — the CAS loop's correctness comes from the
        // compare-exchange success/retry protocol itself, not from
        // fencing; no other memory is published alongside the value.
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A monotonically increasing series (use [`Counter::add`] with
/// non-negative deltas).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicF64>);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: f64) {
        self.0.add(delta);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// A set-to-current-value series.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicF64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// A fixed-bucket histogram. Buckets hold *non*-cumulative counts
/// internally; exposition renders the Prometheus cumulative `le` form. A
/// value lands in the first bucket whose upper bound is `>=` the value
/// (inclusive, like Prometheus `le`), or in the implicit `+Inf` bucket.
///
/// The total observation count is **derived from the bucket cells**, not
/// stored separately: an earlier revision kept a second `count` atomic
/// incremented after the bucket, and the `model_check` (the `model-check` feature) explorer
/// found interleavings where a snapshot read `count != Σ buckets` (the
/// reader ran between the two increments). Deriving the count from the
/// same single pass that reads the buckets makes `count == Σ buckets`
/// hold in every snapshot by construction, with no ordering requirements.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicF64,
}

/// One consistent read of a [`Histogram`]: every field is derived from a
/// single pass over the bucket cells, so `count` always equals the
/// `+Inf` cumulative entry. `sum` may trail in-flight observations — the
/// inherent slack of lock-free recording — but never includes a value
/// whose bucket increment this snapshot missed *and* vice versa beyond
/// that one in-flight observation per writer.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Cumulative `(upper_bound, count)` pairs ending with `(+Inf, total)`.
    pub cumulative: Vec<(f64, u64)>,
    /// Total observations (`Σ buckets`, i.e. the `+Inf` entry).
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicF64::default(),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        // ordering: Relaxed — each bucket is an independent monotonic
        // cell; snapshot consistency (count == Σ buckets) is structural
        // (count is derived from the bucket reads), not fencing-based.
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// A consistent one-pass read of the histogram (see
    /// [`HistogramSnapshot`] for its guarantees).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut acc = 0u64;
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        for (i, slot) in self.buckets.iter().enumerate() {
            // ordering: Relaxed — one read per cell; the derived count
            // uses these same reads, so no cross-cell ordering is needed.
            acc += slot.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            cumulative.push((bound, acc));
        }
        HistogramSnapshot {
            cumulative,
            count: acc,
            sum: self.sum.get(),
        }
    }

    /// Total observations (derived from the buckets).
    pub fn count(&self) -> u64 {
        self.snapshot().count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Cumulative `(upper_bound, count)` pairs ending with `(+Inf, total)`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        self.snapshot().cumulative
    }
}

/// Default wall-clock buckets (seconds) for solve/epoch timing histograms.
pub const WALL_SECONDS_BUCKETS: &[f64] = &[
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 300.0,
];

/// The metrics registry (see module docs).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<SeriesKey, Arc<AtomicF64>>>,
    gauges: RwLock<BTreeMap<SeriesKey, Arc<AtomicF64>>>,
    histograms: RwLock<BTreeMap<SeriesKey, Arc<Histogram>>>,
}

/// Looks `key` up under a read lock, inserting with `init` under the
/// write lock only on first use.
fn intern<V: Clone>(
    map: &RwLock<BTreeMap<SeriesKey, V>>,
    key: SeriesKey,
    init: impl FnOnce() -> V,
) -> V {
    if let Some(v) = map.read().expect("metrics lock").get(&key) {
        return v.clone();
    }
    map.write()
        .expect("metrics lock")
        .entry(key)
        .or_insert_with(init)
        .clone()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter series `name` (unlabeled).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(intern(
            &self.counters,
            SeriesKey::new(name, labels),
            Arc::default,
        ))
    }

    /// The gauge series `name` (unlabeled).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge series `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(intern(
            &self.gauges,
            SeriesKey::new(name, labels),
            Arc::default,
        ))
    }

    /// The histogram series `name` with `bounds` upper bucket bounds
    /// (exclusive of the implicit `+Inf`). Bounds are fixed at first use;
    /// later calls reuse the existing buckets.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        intern(&self.histograms, SeriesKey::new(name, &[]), || {
            Arc::new(Histogram::new(bounds))
        })
    }

    /// `(rendered series name, value)` of every counter, in exposition
    /// order.
    pub(crate) fn counter_values(&self) -> Vec<(String, f64)> {
        scalar_values(&self.counters)
    }

    /// `(rendered series name, value)` of every gauge, in exposition order.
    pub(crate) fn gauge_values(&self) -> Vec<(String, f64)> {
        scalar_values(&self.gauges)
    }

    /// `(rendered series name, one consistent read)` of every histogram,
    /// in exposition order.
    pub(crate) fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(k, h)| (k.render(), h.snapshot()))
            .collect()
    }

    /// Prometheus-style text exposition of every series, deterministically
    /// ordered.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_name.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_name = Some(name.to_string());
            }
        };
        for (key, v) in self.counters.read().expect("metrics lock").iter() {
            type_line(&mut out, &key.name, "counter");
            let _ = writeln!(out, "{} {}", key.render(), v.get());
        }
        for (key, v) in self.gauges.read().expect("metrics lock").iter() {
            type_line(&mut out, &key.name, "gauge");
            let _ = writeln!(out, "{} {}", key.render(), v.get());
        }
        for (key, h) in self.histograms.read().expect("metrics lock").iter() {
            type_line(&mut out, &key.name, "histogram");
            let bucket_name = format!("{}_bucket", key.name);
            // One snapshot per histogram so the rendered `_count` agrees
            // with the bucket lines even while observers race.
            let snap = h.snapshot();
            for (bound, cum) in &snap.cumulative {
                let le = if bound.is_infinite() {
                    "+Inf".to_string()
                } else {
                    format!("{bound}")
                };
                let _ = writeln!(
                    out,
                    "{} {cum}",
                    render_series(&bucket_name, &key.labels, &[("le", le)])
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                render_series(&format!("{}_sum", key.name), &key.labels, &[]),
                snap.sum
            );
            let _ = writeln!(
                out,
                "{} {}",
                render_series(&format!("{}_count", key.name), &key.labels, &[]),
                snap.count
            );
        }
        out
    }

    /// JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` with label-rendered series names as keys.
    pub fn snapshot_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let scalar_map = |values: Vec<(String, f64)>| {
            Value::Object(
                values
                    .into_iter()
                    .map(|(k, v)| (k, Value::Float(v)))
                    .collect(),
            )
        };
        let histograms = Value::Object(
            self.histogram_snapshots()
                .into_iter()
                .map(|(k, snap)| {
                    // One snapshot so "count" equals the +Inf bucket.
                    let buckets = Value::Array(
                        snap.cumulative
                            .into_iter()
                            .map(|(bound, cum)| {
                                serde_json::json!({
                                    "le": if bound.is_infinite() {
                                        Value::String("+Inf".into())
                                    } else {
                                        Value::Float(bound)
                                    },
                                    "count": cum,
                                })
                            })
                            .collect(),
                    );
                    (
                        k,
                        serde_json::json!({
                            "buckets": buckets,
                            "sum": snap.sum,
                            "count": snap.count,
                        }),
                    )
                })
                .collect(),
        );
        serde_json::json!({
            "counters": scalar_map(self.counter_values()),
            "gauges": scalar_map(self.gauge_values()),
            "histograms": histograms,
        })
    }
}

/// `(rendered series name, value)` of every series in a scalar map.
fn scalar_values(map: &RwLock<BTreeMap<SeriesKey, Arc<AtomicF64>>>) -> Vec<(String, f64)> {
    map.read()
        .expect("metrics lock")
        .iter()
        .map(|(k, v)| (k.render(), v.get()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // Half the threads reuse a cached handle, half look the
                    // series up per increment — both paths must be exact.
                    let c = reg.counter("hits_total");
                    for i in 0..per_thread {
                        if i % 2 == 0 {
                            c.inc();
                        } else {
                            reg.counter("hits_total").inc();
                        }
                    }
                });
            }
        });
        assert_eq!(
            reg.counter("hits_total").get(),
            (threads * per_thread) as f64
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 5.0]);
        // Exactly-on-bound observations land in that bucket (`le`
        // semantics); past the last bound lands in +Inf.
        for v in [0.5, 1.0, 1.5, 2.0, 5.0, 5.1] {
            h.observe(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum.len(), 4);
        assert_eq!(cum[0], (1.0, 2)); // 0.5, 1.0
        assert_eq!(cum[1], (2.0, 4)); // + 1.5, 2.0
        assert_eq!(cum[2], (5.0, 5)); // + 5.0
        assert_eq!(cum[3].1, 6); // + 5.1 in +Inf
        assert!(cum[3].0.is_infinite());
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 15.1).abs() < 1e-9);
    }

    #[test]
    fn exposition_format_golden() {
        let reg = Registry::new();
        reg.counter("sa_moves_total").add(120.0);
        reg.counter_with("sa_moves_total", &[("chain", "0")])
            .add(60.0);
        reg.gauge("sa_acceptance_ratio").set(0.25);
        reg.histogram("solve_wall_seconds", &[0.1, 1.0])
            .observe(0.5);
        let text = reg.render_prometheus();
        let expected = "\
# TYPE sa_moves_total counter
sa_moves_total 120
sa_moves_total{chain=\"0\"} 60
# TYPE sa_acceptance_ratio gauge
sa_acceptance_ratio 0.25
# TYPE solve_wall_seconds histogram
solve_wall_seconds_bucket{le=\"0.1\"} 0
solve_wall_seconds_bucket{le=\"1\"} 1
solve_wall_seconds_bucket{le=\"+Inf\"} 1
solve_wall_seconds_sum 0.5
solve_wall_seconds_count 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("c_total", &[("q", "say \"hi\"")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("c_total{q=\"say \\\"hi\\\"\"} 1"));
    }

    #[test]
    fn snapshot_json_carries_all_kinds() {
        let reg = Registry::new();
        reg.counter("a_total").add(2.0);
        reg.gauge("g").set(1.5);
        reg.histogram("h", &[1.0]).observe(0.5);
        let snap = reg.snapshot_json();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("a_total"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            snap.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
        let h = snap.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn histogram_snapshots_stay_consistent_under_concurrent_observes() {
        // Regression for the torn count/bucket race the model checker
        // surfaced (count used to be a separate atomic incremented after
        // the bucket cell): every snapshot taken while writers are mid-
        // flight must satisfy count == Σ buckets. The exhaustive proof
        // lives in model_check; this hammers the same invariant in-tier.
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 5.0]);
        let writers = 4;
        let per_writer = 5_000;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        h.observe(((w + i) % 7) as f64);
                    }
                });
            }
            for _ in 0..2_000 {
                let snap = h.snapshot();
                let bucket_sum = snap.cumulative.last().map(|(_, c)| *c).unwrap_or(0);
                assert_eq!(snap.count, bucket_sum, "torn snapshot: {snap:?}");
                assert!(snap.cumulative.windows(2).all(|x| x[0].1 <= x[1].1));
                assert!(snap.count <= (writers * per_writer) as u64);
            }
        });
        assert_eq!(h.count(), (writers * per_writer) as u64);
    }

    #[test]
    fn histograms_keep_first_bounds() {
        let reg = Registry::new();
        let h1 = reg.histogram("h", &[1.0, 2.0]);
        let h2 = reg.histogram("h", &[9.0]);
        h2.observe(1.5);
        assert_eq!(h1.cumulative()[1], (2.0, 1));
    }
}
