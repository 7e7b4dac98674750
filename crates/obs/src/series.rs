//! A fixed-capacity time-series ring over the metrics registry.
//!
//! [`TimeSeriesStore`] samples a [`Registry`] on
//! a **logical** clock — the epoch index for `vpart watch`, the pass index
//! for `vpart replay` — never the wall clock (the workspace `determinism`
//! lint bans wall-clock reads on the solver path, and logical ticks make
//! snapshots reproducible: the same trace of operations yields the same
//! bytes). Each sample captures every counter and gauge (histograms fold
//! in as `<name>_count` / `<name>_sum` counters); the store derives
//! per-tick counter rates and gauge deltas between consecutive samples,
//! and exports a JSON snapshot plus a Prometheus-style exposition of the
//! most recent window.
//!
//! The ring is bounded: once `capacity` samples are held, the oldest is
//! evicted (and counted in [`TimeSeriesStore::evicted`]), so a
//! long-running watch loop holds a sliding window, not an unbounded log.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use serde_json::Value;

use crate::metrics::Registry;

/// One logical-clock sample of the registry: every counter and gauge
/// value at a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// Logical timestamp (epoch index for watch, pass index for replay).
    pub tick: u64,
    /// Counter values by rendered series name (monotone non-decreasing).
    pub counters: BTreeMap<String, f64>,
    /// Gauge values by rendered series name.
    pub gauges: BTreeMap<String, f64>,
}

/// The fixed-capacity ring of samples (see module docs).
#[derive(Debug, Clone)]
pub struct TimeSeriesStore {
    capacity: usize,
    samples: VecDeque<SeriesSample>,
    evicted: u64,
}

impl TimeSeriesStore {
    /// A store holding at most `capacity` samples (clamped to ≥ 2 so
    /// rates and deltas are always derivable at the head).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(2),
            samples: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Maximum samples held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted by the ring bound over the store's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<&SeriesSample> {
        self.samples.back()
    }

    /// The samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SeriesSample> {
        self.samples.iter()
    }

    /// Captures the registry's counters and gauges at logical time
    /// `tick`. Histograms contribute `<name>_count` and `<name>_sum`
    /// counter series (both monotone). Ticks must be given in
    /// non-decreasing order; a sample at a tick already at the head
    /// replaces it (a re-sample within the same epoch).
    pub fn sample(&mut self, tick: u64, registry: &Registry) {
        let mut counters: BTreeMap<String, f64> = registry.counter_values().into_iter().collect();
        let gauges = registry.gauge_values().into_iter().collect();
        for (name, h) in registry.histogram_snapshots() {
            counters.insert(format!("{name}_count"), h.count as f64);
            counters.insert(format!("{name}_sum"), h.sum);
        }
        self.record(tick, counters, gauges);
    }

    /// Appends a pre-built sample (the reconstruction path: `vpart
    /// monitor` rebuilds a store from a recorded trace or a health
    /// snapshot instead of a live registry).
    pub fn record(
        &mut self,
        tick: u64,
        counters: BTreeMap<String, f64>,
        gauges: BTreeMap<String, f64>,
    ) {
        let sample = SeriesSample {
            tick,
            counters,
            gauges,
        };
        if self.samples.back().is_some_and(|s| s.tick == tick) {
            // Re-sample of the head tick: replace, don't duplicate.
            self.samples.pop_back();
        }
        self.samples.push_back(sample);
        while self.samples.len() > self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
    }

    /// The newest value of `metric` — gauges take precedence, then
    /// counters (including the derived histogram `_count`/`_sum` series).
    pub fn value(&self, metric: &str) -> Option<f64> {
        let s = self.samples.back()?;
        s.gauges
            .get(metric)
            .or_else(|| s.counters.get(metric))
            .copied()
    }

    /// The per-tick rate of counter `metric` at the head: `(vₙ − vₙ₋₁) /
    /// (tickₙ − tickₙ₋₁)`. `None` until two samples exist; a counter
    /// first seen at the head rates from an implicit 0.
    pub fn counter_rate(&self, metric: &str) -> Option<f64> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let (prev, cur) = (&self.samples[n - 2], &self.samples[n - 1]);
        let v = *cur.counters.get(metric)?;
        let base = prev.counters.get(metric).copied().unwrap_or(0.0);
        let dt = cur.tick.saturating_sub(prev.tick).max(1) as f64;
        Some((v - base) / dt)
    }

    /// The per-tick delta of gauge `metric` at the head. `None` until the
    /// gauge has appeared in two consecutive samples.
    pub fn gauge_delta(&self, metric: &str) -> Option<f64> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let (prev, cur) = (&self.samples[n - 2], &self.samples[n - 1]);
        Some(*cur.gauges.get(metric)? - *prev.gauges.get(metric)?)
    }

    /// All counter rates at the head sample, in series order.
    pub fn rates(&self) -> BTreeMap<String, f64> {
        let Some(cur) = self.samples.back() else {
            return BTreeMap::new();
        };
        cur.counters
            .keys()
            .filter_map(|k| self.counter_rate(k).map(|r| (k.clone(), r)))
            .collect()
    }

    /// Deterministic JSON snapshot of the whole ring: capacity, eviction
    /// count, and each sample with its derived rates and gauge deltas
    /// (computed against the in-ring predecessor; the oldest sample has
    /// none). Equal operation histories produce byte-identical snapshots.
    pub fn snapshot_json(&self) -> Value {
        let samples: Vec<Value> = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let num_map = |m: &BTreeMap<String, f64>| {
                    Value::Object(
                        m.iter()
                            .map(|(k, v)| (k.clone(), Value::Float(*v)))
                            .collect(),
                    )
                };
                let prev = i.checked_sub(1).map(|j| &self.samples[j]);
                let dt = prev
                    .map(|p| s.tick.saturating_sub(p.tick).max(1) as f64)
                    .unwrap_or(1.0);
                let rates: BTreeMap<String, f64> = match prev {
                    None => BTreeMap::new(),
                    Some(p) => s
                        .counters
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                (v - p.counters.get(k).copied().unwrap_or(0.0)) / dt,
                            )
                        })
                        .collect(),
                };
                let deltas: BTreeMap<String, f64> = match prev {
                    None => BTreeMap::new(),
                    Some(p) => s
                        .gauges
                        .iter()
                        .filter_map(|(k, v)| p.gauges.get(k).map(|pv| (k.clone(), v - pv)))
                        .collect(),
                };
                serde_json::json!({
                    "tick": s.tick,
                    "counters": num_map(&s.counters),
                    "gauges": num_map(&s.gauges),
                    "rates": num_map(&rates),
                    "deltas": num_map(&deltas),
                })
            })
            .collect();
        serde_json::json!({
            "capacity": self.capacity,
            "evicted": self.evicted,
            "samples": Value::Array(samples),
        })
    }

    /// Rebuilds a store from [`TimeSeriesStore::snapshot_json`] output
    /// (rates and deltas are re-derived, not trusted).
    pub fn from_snapshot_json(v: &Value) -> Result<Self, String> {
        let capacity = v
            .get("capacity")
            .and_then(Value::as_u64)
            .ok_or("snapshot has no \"capacity\"")? as usize;
        let mut store = Self::new(capacity);
        store.evicted = v.get("evicted").and_then(Value::as_u64).unwrap_or(0);
        let samples = v
            .get("samples")
            .and_then(Value::as_array)
            .ok_or("snapshot has no \"samples\" array")?;
        for (i, s) in samples.iter().enumerate() {
            let tick = s
                .get("tick")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("sample {i} has no \"tick\""))?;
            let scalar_map = |key: &str| -> BTreeMap<String, f64> {
                s.get(key)
                    .and_then(Value::as_object)
                    .map(|fields| {
                        fields
                            .iter()
                            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            store.record(tick, scalar_map("counters"), scalar_map("gauges"));
        }
        Ok(store)
    }

    /// Prometheus-style text exposition of the most recent `window`
    /// samples: each series prints one line per tick with a `tick` label,
    /// and counter rates print as derived `<name>_per_tick` gauges.
    /// Deterministically ordered (series name, then tick).
    pub fn render_window(&self, window: usize) -> String {
        let n = self.samples.len();
        let start = n.saturating_sub(window.max(1));
        let recent: Vec<&SeriesSample> = self.samples.iter().skip(start).collect();
        let mut out = String::new();
        if recent.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "# window ticks {}..{} ({} of {} samples, {} evicted)",
            recent[0].tick,
            recent[recent.len() - 1].tick,
            recent.len(),
            n,
            self.evicted
        );
        let mut counter_names: Vec<&str> = Vec::new();
        let mut gauge_names: Vec<&str> = Vec::new();
        for s in &recent {
            for k in s.counters.keys() {
                if !counter_names.contains(&k.as_str()) {
                    counter_names.push(k);
                }
            }
            for k in s.gauges.keys() {
                if !gauge_names.contains(&k.as_str()) {
                    gauge_names.push(k);
                }
            }
        }
        counter_names.sort_unstable();
        gauge_names.sort_unstable();
        for name in counter_names {
            let _ = writeln!(out, "# TYPE {name} counter");
            for s in &recent {
                if let Some(v) = s.counters.get(name) {
                    let _ = writeln!(out, "{name}{{tick=\"{}\"}} {v}", s.tick);
                }
            }
            let _ = writeln!(out, "# TYPE {name}_per_tick gauge");
            for pair in recent.windows(2) {
                if let Some(v) = pair[1].counters.get(name) {
                    let base = pair[0].counters.get(name).copied().unwrap_or(0.0);
                    let dt = pair[1].tick.saturating_sub(pair[0].tick).max(1) as f64;
                    let _ = writeln!(
                        out,
                        "{name}_per_tick{{tick=\"{}\"}} {}",
                        pair[1].tick,
                        (v - base) / dt
                    );
                }
            }
        }
        for name in gauge_names {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for s in &recent {
                if let Some(v) = s.gauges.get(name) {
                    let _ = writeln!(out, "{name}{{tick=\"{}\"}} {v}", s.tick);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(counter: f64, gauge: f64) -> Registry {
        let reg = Registry::new();
        reg.counter("ops_total").add(counter);
        reg.gauge("depth").set(gauge);
        reg
    }

    #[test]
    fn samples_capture_counters_gauges_and_histogram_folds() {
        let reg = reg_with(10.0, 2.5);
        reg.histogram("lat", &[1.0]).observe(0.5);
        let mut store = TimeSeriesStore::new(8);
        store.sample(0, &reg);
        let s = store.latest().expect("one sample");
        assert_eq!(s.counters.get("ops_total"), Some(&10.0));
        assert_eq!(s.counters.get("lat_count"), Some(&1.0));
        assert_eq!(s.counters.get("lat_sum"), Some(&0.5));
        assert_eq!(s.gauges.get("depth"), Some(&2.5));
        assert_eq!(store.value("depth"), Some(2.5));
    }

    /// The sample the registry's JSON snapshot yields, parsed back: the
    /// reference the direct read must reproduce.
    fn sample_via_json(registry: &Registry) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
        let snap = registry.snapshot_json();
        let scalar_map = |v: Option<&Value>| -> Vec<(String, f64)> {
            v.and_then(Value::as_object)
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        counters.extend(scalar_map(snap.get("counters")));
        gauges.extend(scalar_map(snap.get("gauges")));
        if let Some(hists) = snap.get("histograms").and_then(Value::as_object) {
            for (name, h) in hists {
                if let Some(count) = h.get("count").and_then(Value::as_f64) {
                    counters.insert(format!("{name}_count"), count);
                }
                if let Some(sum) = h.get("sum").and_then(Value::as_f64) {
                    counters.insert(format!("{name}_sum"), sum);
                }
            }
        }
        (counters, gauges)
    }

    #[test]
    fn direct_sample_matches_the_json_snapshot_route() {
        let reg = reg_with(10.0, 2.5);
        reg.counter_with("moves_total", &[("chain", "1")]).add(3.0);
        reg.counter_with("moves_total", &[("chain", "0")]).add(4.0);
        reg.gauge_with("depth", &[("site", "2")]).set(-1.5);
        let h = reg.histogram("lat", &[0.1, 1.0]);
        for v in [0.05, 0.5, 7.0] {
            h.observe(v);
        }
        // A counter named like a histogram fold: the fold overwrites it
        // on both routes.
        reg.counter("lat_count").add(99.0);
        let mut store = TimeSeriesStore::new(4);
        store.sample(3, &reg);
        let s = store.latest().expect("one sample");
        let (counters, gauges) = sample_via_json(&reg);
        assert_eq!(s.counters, counters);
        assert_eq!(s.gauges, gauges);
        assert_eq!(s.counters.get("lat_count"), Some(&3.0));
        assert_eq!(s.counters.get("moves_total{chain=\"0\"}"), Some(&4.0));
        assert_eq!(s.gauges.get("depth{site=\"2\"}"), Some(&-1.5));
    }

    #[test]
    fn rates_and_deltas_derive_from_consecutive_ticks() {
        let reg = reg_with(10.0, 1.0);
        let mut store = TimeSeriesStore::new(8);
        store.sample(0, &reg);
        assert_eq!(store.counter_rate("ops_total"), None, "one sample, no rate");
        reg.counter("ops_total").add(6.0);
        reg.gauge("depth").set(4.0);
        store.sample(2, &reg);
        // Δv = 6 over Δtick = 2.
        assert_eq!(store.counter_rate("ops_total"), Some(3.0));
        assert_eq!(store.gauge_delta("depth"), Some(3.0));
        assert_eq!(store.rates().get("ops_total"), Some(&3.0));
    }

    #[test]
    fn ring_wraps_and_counts_evictions() {
        let reg = Registry::new();
        let mut store = TimeSeriesStore::new(3);
        for t in 0..10 {
            reg.counter("ops_total").inc();
            store.sample(t, &reg);
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.evicted(), 7);
        let ticks: Vec<u64> = store.samples().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![7, 8, 9]);
        // Rates still derive at the head after wrapping.
        assert_eq!(store.counter_rate("ops_total"), Some(1.0));
    }

    #[test]
    fn resampling_the_head_tick_replaces_it() {
        let reg = reg_with(1.0, 0.0);
        let mut store = TimeSeriesStore::new(4);
        store.sample(0, &reg);
        reg.counter("ops_total").add(1.0);
        store.sample(0, &reg);
        assert_eq!(store.len(), 1);
        assert_eq!(store.value("ops_total"), Some(2.0));
    }

    #[test]
    fn snapshot_is_deterministic_and_round_trips() {
        let run = || {
            let reg = Registry::new();
            let mut store = TimeSeriesStore::new(4);
            for t in 0..6u64 {
                reg.counter("ops_total").add(t as f64);
                reg.gauge("depth").set(t as f64 * 0.5);
                store.sample(t, &reg);
            }
            store
        };
        let (a, b) = (run(), run());
        let (ja, jb) = (
            serde_json::to_string(&a.snapshot_json()).expect("snapshot serializes"),
            serde_json::to_string(&b.snapshot_json()).expect("snapshot serializes"),
        );
        assert_eq!(ja, jb, "equal histories must snapshot byte-identically");

        let back = TimeSeriesStore::from_snapshot_json(&a.snapshot_json()).expect("round-trips");
        assert_eq!(
            serde_json::to_string(&back.snapshot_json()).expect("snapshot serializes"),
            ja,
            "snapshot → store → snapshot must be lossless"
        );
    }

    #[test]
    fn window_exposition_renders_rates() {
        let reg = Registry::new();
        let mut store = TimeSeriesStore::new(8);
        for t in 0..3u64 {
            reg.counter("ops_total").add(2.0);
            reg.gauge("depth").set(t as f64);
            store.sample(t, &reg);
        }
        let text = store.render_window(2);
        assert!(text.contains("# window ticks 1..2"), "{text}");
        assert!(text.contains("ops_total{tick=\"2\"} 6"), "{text}");
        assert!(text.contains("ops_total_per_tick{tick=\"2\"} 2"), "{text}");
        assert!(text.contains("depth{tick=\"1\"} 1"), "{text}");
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        for bad in [
            "{}",
            r#"{"capacity": 4}"#,
            r#"{"capacity": 4, "samples": [{"counters": {}}]}"#,
        ] {
            let v: Value = serde_json::from_str(bad).expect("test JSON parses");
            assert!(TimeSeriesStore::from_snapshot_json(&v).is_err(), "{bad}");
        }
    }
}
