//! # vpart_obs — offline-discipline observability
//!
//! A self-contained metrics + tracing layer for the vpart stack, built to
//! the same `vendor/`-shim philosophy as the rest of the workspace: no
//! network crates, no global state, no background threads. It provides:
//!
//! * a lock-cheap [`metrics`] registry (counters, gauges, fixed-bucket
//!   histograms) with Prometheus-style text exposition and a JSON
//!   snapshot — the substrate for a future `vpart serve` `GET /metrics`;
//! * structured span/event [`trace`]-ing with a JSONL sink carrying nested
//!   timings and key=value fields (`vpart solve|watch --trace-out`);
//! * an [`inspect`] summarizer that renders a recorded trace as per-chain
//!   convergence tables and epoch timelines (`vpart inspect`);
//! * a live health layer: a logical-clock [`series`] ring sampling the
//!   registry, an [`alerts`] rules engine with hysteresis driving a
//!   firing→resolved state machine, and a [`flight`] crash recorder that
//!   dumps the last-N records on faults and panics (`vpart monitor`,
//!   `vpart watch --health-out`).
//!
//! The entry point is the [`Obs`] handle. Observability is **off by
//! default**: [`Obs::disabled`] (also `Obs::default()`) carries no
//! allocation and every call on it early-returns after one `Option`
//! check, so instrumented hot paths cost < 5% even when compiled in.
//! [`Obs::enabled`] turns on recording; the handle is `Clone` and all
//! clones share one registry and one trace buffer, so it threads freely
//! through solver configs and across worker threads.
//!
//! ```
//! use vpart_obs::Obs;
//!
//! let obs = Obs::enabled();
//! let solve = obs.span_begin("solve", &[("restarts", 2u64.into())]);
//! for seed in 0..2u64 {
//!     let chain = obs.under(&solve);          // nested: parent = solve
//!     let span = chain.span_begin("chain", &[("seed", seed.into())]);
//!     chain.counter_add("sa_moves_total", 100.0);
//!     chain.span_end(span, &[("objective6", 1.5f64.into())]);
//! }
//! obs.span_end(solve, &[]);
//! assert!(obs.metrics_prometheus().contains("sa_moves_total 200"));
//! // 3 span records (plus one `.begin` event per span opened with fields).
//! let trace = obs.trace_json_lines();
//! assert_eq!(trace.lines().filter(|l| l.contains("\"type\":\"span\"")).count(), 3);
//! ```

pub mod alerts;
pub mod flight;
pub mod inspect;
pub mod metrics;
#[cfg(feature = "model-check")]
pub mod model_check;
pub mod series;
pub(crate) mod sync;
pub mod trace;

pub use alerts::{
    builtin_rules, rules_from_json, AlertEngine, AlertKind, AlertRule, AlertTransition,
    HealthMonitor, HealthSnapshot, Severity, DEFAULT_HEALTH_CAPACITY,
};
pub use flight::DEFAULT_FLIGHT_CAPACITY;
pub use inspect::{AlertEvent, IngestRow, TraceSummary};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, WALL_SECONDS_BUCKETS};
pub use series::{SeriesSample, TimeSeriesStore};
pub use trace::{FieldValue, Record, Span};

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    start: Instant,
    registry: Registry,
    trace: Mutex<Vec<Record>>,
    next_id: AtomicU64,
    /// Armed flight-recorder ring (None until [`Obs::arm_flight`]).
    flight: Mutex<Option<flight::FlightRing>>,
}

/// The observability handle (see crate docs). Cheap to clone; a disabled
/// handle is a `None` and every operation on it is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
    /// Default parent span id for spans/events begun through this handle.
    parent: u64,
}

impl Obs {
    /// A no-op handle: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording handle with a fresh registry and trace buffer.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                registry: Registry::new(),
                trace: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                flight: Mutex::new(None),
            })),
            parent: 0,
        }
    }

    /// Whether this handle records anything. Hot paths batching locally
    /// can skip their accumulation entirely when this is `false`.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared metrics registry, when enabled. Use this to cache
    /// [`Counter`]/[`Gauge`] handles outside a loop.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Microseconds since this handle (or its root clone) was enabled.
    fn now_us(inner: &Inner) -> u64 {
        inner.start.elapsed().as_micros() as u64
    }

    // ----- metrics sugar -------------------------------------------------

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name).add(delta);
        }
    }

    /// Adds 1 to counter `name`.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1.0);
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name).set(v);
        }
    }

    /// Records `v` into histogram `name` (bounds fixed at first use).
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.histogram(name, bounds).observe(v);
        }
    }

    /// Records a wall-clock duration (seconds) into histogram `name` with
    /// the standard [`WALL_SECONDS_BUCKETS`].
    pub fn observe_wall(&self, name: &str, seconds: f64) {
        self.observe(name, WALL_SECONDS_BUCKETS, seconds);
    }

    // ----- tracing -------------------------------------------------------

    /// Opens a span named `name` under this handle's parent. On a disabled
    /// handle the returned [`Span`] is inert (id 0, no allocation beyond
    /// the empty name).
    pub fn span_begin(&self, name: &str, fields: &[(&str, FieldValue)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                id: 0,
                parent: 0,
                name: String::new(),
                start_us: 0,
            };
        };
        // ordering: Relaxed — ids only need to be unique, not ordered
        // with any other memory; fetch_add is atomic regardless.
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent: self.parent,
            name: name.to_string(),
            start_us: Self::now_us(inner),
        };
        if !fields.is_empty() {
            // Opening fields become an event so they are visible even if
            // the span never ends (e.g. a timed-out chain).
            self.record(Record::Event {
                parent: id,
                name: format!("{name}.begin"),
                at_us: span.start_us,
                fields: own_fields(fields),
            });
        }
        span
    }

    /// Closes `span`, attaching `fields` and writing its record.
    pub fn span_end(&self, span: Span, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        if span.id == 0 {
            return; // span from a disabled handle
        }
        let end_us = Self::now_us(inner);
        self.record(Record::Span {
            id: span.id,
            parent: span.parent,
            name: span.name,
            start_us: span.start_us,
            dur_us: end_us.saturating_sub(span.start_us),
            fields: own_fields(fields),
        });
    }

    /// Emits an instantaneous event under this handle's parent.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        self.record(Record::Event {
            parent: self.parent,
            name: name.to_string(),
            at_us: Self::now_us(inner),
            fields: own_fields(fields),
        });
    }

    /// Microseconds since this handle was enabled (0 when disabled). Pair
    /// with [`Obs::event_at`] to capture a cheap POD timestamp in a hot
    /// loop and defer record construction (allocations, the trace lock)
    /// until after the loop.
    pub fn timestamp_us(&self) -> u64 {
        self.inner.as_deref().map(Self::now_us).unwrap_or(0)
    }

    /// Emits an event stamped with a caller-captured `at_us` (from
    /// [`Obs::timestamp_us`]) instead of the current time.
    pub fn event_at(&self, name: &str, at_us: u64, fields: &[(&str, FieldValue)]) {
        let Some(_) = &self.inner else { return };
        self.record(Record::Event {
            parent: self.parent,
            name: name.to_string(),
            at_us,
            fields: own_fields(fields),
        });
    }

    /// A clone of this handle whose spans/events default to nesting under
    /// `span`. This is how parent ids cross crate boundaries without
    /// threading them through solver configs.
    pub fn under(&self, span: &Span) -> Self {
        Self {
            inner: self.inner.clone(),
            parent: if self.inner.is_some() { span.id } else { 0 },
        }
    }

    fn record(&self, record: Record) {
        if let Some(inner) = &self.inner {
            // Feed the black box first: the ring stores serialized lines
            // so a crash dump is pure IO. Only pay for serialization when
            // a ring is actually armed.
            if let Ok(mut flight) = inner.flight.lock() {
                if let Some(ring) = flight.as_mut() {
                    ring.push(record.to_json_line());
                }
            }
            inner.trace.lock().expect("trace lock").push(record);
        }
    }

    // ----- flight recorder -----------------------------------------------

    /// Arms the crash flight recorder: from now on the last `capacity`
    /// records are mirrored into an in-memory ring, dumped into `dir` as
    /// `flight_<point>.jsonl` by [`Obs::dump_flight`] or the panic hook.
    /// Returns `false` on a disabled handle (nothing armed).
    pub fn arm_flight(&self, dir: &Path, capacity: usize) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if let Ok(mut flight) = inner.flight.lock() {
            *flight = Some(flight::FlightRing::new(dir, capacity));
            true
        } else {
            false
        }
    }

    /// Whether a flight ring is currently armed.
    pub fn flight_armed(&self) -> bool {
        self.inner
            .as_deref()
            .and_then(|i| i.flight.lock().ok().map(|f| f.is_some()))
            .unwrap_or(false)
    }

    /// Dumps the armed ring as `flight_<point>.jsonl`, returning the
    /// written path. `None` when disabled, unarmed, or on IO failure —
    /// the dump is best-effort by design: it runs on crash paths where a
    /// secondary failure must not mask the original error.
    pub fn dump_flight(&self, point: &str) -> Option<std::path::PathBuf> {
        let inner = self.inner.as_deref()?;
        let at_us = Self::now_us(inner);
        let flight = inner.flight.lock().ok()?;
        flight.as_ref()?.dump(point, at_us).ok()
    }

    /// Installs a process-wide panic hook that dumps the armed ring as
    /// `flight_panic.jsonl` before delegating to the previously installed
    /// hook. No-op on a disabled handle. Install once, after arming.
    pub fn install_flight_panic_hook(&self) {
        if !self.is_enabled() {
            return;
        }
        let obs = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = obs.dump_flight("panic");
            prev(info);
        }));
    }

    // ----- export --------------------------------------------------------

    /// The recorded trace as JSONL text (one record per line, possibly
    /// empty).
    pub fn trace_json_lines(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let records = inner.trace.lock().expect("trace lock");
        let mut out = String::new();
        for r in records.iter() {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes the trace JSONL to `path`.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.trace_json_lines())
    }

    /// Prometheus-style text exposition of the metrics registry (empty on
    /// a disabled handle).
    pub fn metrics_prometheus(&self) -> String {
        self.inner
            .as_deref()
            .map(|i| i.registry.render_prometheus())
            .unwrap_or_default()
    }

    /// JSON snapshot of the metrics registry (`null` on a disabled
    /// handle).
    pub fn metrics_json(&self) -> serde_json::Value {
        self.inner
            .as_deref()
            .map(|i| i.registry.snapshot_json())
            .unwrap_or(serde_json::Value::Null)
    }

    /// Writes the Prometheus exposition to `path`.
    pub fn write_metrics(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_prometheus())
    }
}

fn own_fields(fields: &[(&str, FieldValue)]) -> Vec<(String, FieldValue)> {
    fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter_inc("c_total");
        obs.gauge_set("g", 1.0);
        obs.observe_wall("w", 0.1);
        let span = obs.span_begin("s", &[("k", 1u64.into())]);
        assert_eq!(span.id(), 0);
        obs.event("e", &[]);
        obs.span_end(span, &[]);
        assert_eq!(obs.trace_json_lines(), "");
        assert_eq!(obs.metrics_prometheus(), "");
        assert_eq!(obs.metrics_json(), serde_json::Value::Null);
    }

    #[test]
    fn clones_share_registry_and_trace() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        obs.counter_inc("shared_total");
        clone.counter_inc("shared_total");
        assert!(obs.metrics_prometheus().contains("shared_total 2"));

        let parent = obs.span_begin("outer", &[]);
        let nested = obs.under(&parent);
        let child = nested.span_begin("inner", &[]);
        nested.span_end(child, &[]);
        obs.span_end(parent, &[]);
        let lines: Vec<serde_json::Value> = obs
            .trace_json_lines()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        // Inner serializes first (ends first) and points at outer's id.
        assert_eq!(lines[0].get("name").and_then(|n| n.as_str()), Some("inner"));
        assert_eq!(
            lines[0].get("parent").and_then(|p| p.as_u64()),
            lines[1].get("id").and_then(|i| i.as_u64()),
        );
    }

    #[test]
    fn span_begin_fields_survive_unfinished_spans() {
        let obs = Obs::enabled();
        let _leaked = obs.span_begin("chain", &[("seed", 9u64.into())]);
        // The span never ends, but the begin event preserves its fields.
        let text = obs.trace_json_lines();
        let v: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("chain.begin"));
        assert_eq!(
            v.get("fields")
                .and_then(|f| f.get("seed"))
                .and_then(|s| s.as_u64()),
            Some(9)
        );
    }
}
