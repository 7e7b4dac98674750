//! Trace inspection: turns a recorded JSONL trace back into an
//! operator-facing summary (`vpart inspect <trace.jsonl>`).
//!
//! The summarizer understands the span names the instrumented layers
//! emit — `ingest` (statements, shapes and templates of a SQL input),
//! `sa_solve`/`sa_chain` (per-chain convergence), `qp_solve` (branch &
//! bound work), `watch_epoch` (online timeline) and `migrate_batched` /
//! `rollback_migration` (bytes moved) — and degrades gracefully: unknown
//! records still count toward the totals, and sections with no matching
//! spans are omitted.

use std::fmt::Write as _;

use serde_json::Value;

/// One `sa_chain` span, flattened.
#[derive(Debug, Clone, Default)]
pub struct ChainRow {
    /// Chain seed.
    pub seed: u64,
    /// Temperature levels run.
    pub levels: u64,
    /// Proposed moves.
    pub iterations: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Rejected moves.
    pub rejected: u64,
    /// Full accumulator rebuilds (drift guard + polish adoptions).
    pub resyncs: u64,
    /// Final objective (6) value.
    pub objective6: f64,
    /// Mean absolute accepted delta.
    pub mean_abs_delta: f64,
    /// Chain hit the portfolio probe cut-off.
    pub cut_off: bool,
    /// Chain hit the time limit.
    pub timed_out: bool,
    /// Chain produced the winning partitioning.
    pub winner: bool,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

impl ChainRow {
    /// Acceptance ratio over proposed moves (0 when no moves ran).
    pub fn acceptance(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.accepted as f64 / self.iterations as f64
        }
    }
}

/// One `watch_epoch` span, flattened.
#[derive(Debug, Clone, Default)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Drift score against the incumbent.
    pub drift_score: f64,
    /// Margin to the trigger threshold (score − threshold).
    pub margin: f64,
    /// Whether the epoch triggered a re-solve.
    pub triggered: bool,
    /// Whether the watcher was in degraded mode at the end of the epoch.
    pub degraded: bool,
    /// Bytes moved by the epoch's migration (0 when none).
    pub migration_bytes: f64,
    /// Distinct attributes in the tracker snapshot.
    pub snapshot_attrs: u64,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

/// One `alert` event (a firing/resolved edge recorded by the alert
/// engine), flattened. The field set mirrors
/// [`AlertTransition`](crate::alerts::AlertTransition) exactly, so a
/// timeline rebuilt from a recorded trace is bit-identical to the one in
/// a live health snapshot.
#[derive(Debug, Clone, Default)]
pub struct AlertEvent {
    /// Microseconds since the trace started.
    pub at_us: u64,
    /// Logical tick (epoch/pass index) of the edge.
    pub tick: u64,
    /// Rule name.
    pub rule: String,
    /// `"firing"` or `"resolved"`.
    pub state: String,
    /// Rule severity (`"warning"` / `"critical"`).
    pub severity: String,
    /// Metric value (or rate) observed at the edge.
    pub value: f64,
}

impl AlertEvent {
    /// The edge as a JSON object in the health-snapshot transition shape
    /// (`tick`, `rule`, `state`, `severity`, `value` — no `at_us`).
    pub fn to_transition_json(&self) -> Value {
        serde_json::json!({
            "tick": self.tick,
            "rule": self.rule.clone(),
            "state": self.state.clone(),
            "severity": self.severity.clone(),
            "value": Value::Float(self.value),
        })
    }
}

/// One `qp_solve` span, flattened.
#[derive(Debug, Clone, Default)]
pub struct QpRow {
    /// Branch & bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots across all LP relaxations.
    pub lp_pivots: u64,
    /// Pivots of the root LP relaxation.
    pub root_pivots: u64,
    /// Pivots of child LPs warm-started from their parent's basis.
    pub warm_pivots: u64,
    /// Wall time inside LP solves, in milliseconds.
    pub lp_ms: f64,
    /// Whether the solve proved optimality.
    pub exact: bool,
    /// Final objective (6) value.
    pub objective6: f64,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

/// One `ingest` span (a SQL log or statistics dump turned into an
/// instance), flattened.
#[derive(Debug, Clone, Default)]
pub struct IngestRow {
    /// Statements seen in the input.
    pub statements: u64,
    /// Distinct statement shapes the parser ran on.
    pub shapes: u64,
    /// Transaction templates built.
    pub templates: u64,
    /// Size of the input text in bytes.
    pub log_bytes: u64,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
}

/// A parsed and aggregated trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total records in the file.
    pub records: usize,
    /// Span records.
    pub spans: usize,
    /// Event records.
    pub events: usize,
    /// Per-chain convergence rows, in seed order.
    pub chains: Vec<ChainRow>,
    /// Online epoch rows, in epoch order.
    pub epochs: Vec<EpochRow>,
    /// Alert firing/resolved edges, in trace order.
    pub alerts: Vec<AlertEvent>,
    /// QP solve rows, in trace order.
    pub qp: Vec<QpRow>,
    /// Ingestion rows, in trace order.
    pub ingests: Vec<IngestRow>,
    /// Total bytes moved across `migrate_batched` and `rollback_migration`
    /// spans.
    pub migration_bytes: f64,
}

fn u(fields: &Value, key: &str) -> u64 {
    fields.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn f(fields: &Value, key: &str) -> f64 {
    fields.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn b(fields: &Value, key: &str) -> bool {
    fields.get(key).and_then(|v| v.as_bool()).unwrap_or(false)
}

impl TraceSummary {
    /// Parses a JSONL trace. Fails with a line-numbered message on the
    /// first malformed line; blank lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut summary = Self::default();
        let mut winner_seed: Option<u64> = None;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", lineno + 1))?;
            summary.records += 1;
            let kind = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
            match kind {
                "span" => summary.spans += 1,
                "event" => summary.events += 1,
                other => {
                    return Err(format!(
                        "line {}: unknown record type {other:?}",
                        lineno + 1
                    ))
                }
            }
            let name = v.get("name").and_then(|n| n.as_str()).unwrap_or("");
            let fields = v.get("fields").cloned().unwrap_or(Value::Null);
            if kind != "span" {
                if name == "alert" {
                    let s = |key: &str| {
                        fields
                            .get(key)
                            .and_then(|v| v.as_str())
                            .unwrap_or("")
                            .to_string()
                    };
                    summary.alerts.push(AlertEvent {
                        at_us: u(&v, "at_us"),
                        tick: u(&fields, "tick"),
                        rule: s("rule"),
                        state: s("state"),
                        severity: s("severity"),
                        value: f(&fields, "value"),
                    });
                }
                continue;
            }
            let wall_ms = u(&v, "dur_us") as f64 / 1000.0;
            match name {
                "sa_chain" => summary.chains.push(ChainRow {
                    seed: u(&fields, "seed"),
                    levels: u(&fields, "levels"),
                    iterations: u(&fields, "iterations"),
                    accepted: u(&fields, "accepted"),
                    rejected: u(&fields, "rejected"),
                    resyncs: u(&fields, "resyncs"),
                    objective6: f(&fields, "objective6"),
                    mean_abs_delta: f(&fields, "mean_abs_delta"),
                    cut_off: b(&fields, "cut_off"),
                    timed_out: b(&fields, "timed_out"),
                    winner: false,
                    wall_ms,
                }),
                "sa_solve" if fields.get("winner_seed").is_some() => {
                    winner_seed = Some(u(&fields, "winner_seed"));
                }
                "watch_epoch" => summary.epochs.push(EpochRow {
                    epoch: u(&fields, "epoch"),
                    drift_score: f(&fields, "drift_score"),
                    margin: f(&fields, "margin"),
                    triggered: b(&fields, "triggered"),
                    degraded: b(&fields, "degraded"),
                    migration_bytes: f(&fields, "migration_bytes"),
                    snapshot_attrs: u(&fields, "snapshot_attrs"),
                    wall_ms,
                }),
                "qp_solve" => summary.qp.push(QpRow {
                    nodes: u(&fields, "nodes"),
                    lp_pivots: u(&fields, "lp_pivots"),
                    root_pivots: u(&fields, "root_pivots"),
                    warm_pivots: u(&fields, "warm_pivots"),
                    lp_ms: f(&fields, "lp_s") * 1000.0,
                    exact: b(&fields, "exact"),
                    objective6: f(&fields, "objective6"),
                    wall_ms,
                }),
                "ingest" => summary.ingests.push(IngestRow {
                    statements: u(&fields, "statements"),
                    shapes: u(&fields, "shapes"),
                    templates: u(&fields, "templates"),
                    log_bytes: u(&fields, "log_bytes"),
                    wall_ms,
                }),
                // Each call reports the bytes it committed (or re-installed,
                // for rollbacks).
                "migrate_batched" | "rollback_migration" => {
                    summary.migration_bytes += f(&fields, "bytes_this_run");
                }
                _ => {}
            }
        }
        if let Some(seed) = winner_seed {
            for chain in &mut summary.chains {
                chain.winner = chain.seed == seed;
            }
        }
        summary.chains.sort_by_key(|c| c.seed);
        summary.epochs.sort_by_key(|e| e.epoch);
        Ok(summary)
    }

    /// Rules whose most recent alert edge in the trace is `firing`, in
    /// first-seen order.
    pub fn firing_rules(&self) -> Vec<&str> {
        let mut order: Vec<&str> = Vec::new();
        for a in &self.alerts {
            if !order.contains(&a.rule.as_str()) {
                order.push(&a.rule);
            }
        }
        order.retain(|rule| {
            self.alerts
                .iter()
                .rev()
                .find(|a| a.rule == *rule)
                .is_some_and(|a| a.state == "firing")
        });
        order
    }

    /// Renders the operator-facing text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} records ({} spans, {} events)",
            self.records, self.spans, self.events
        );
        for i in &self.ingests {
            let _ = writeln!(
                out,
                "ingest: {} statements as {} statement shapes -> {} templates, \
                 {} input bytes, wall_ms={:.1}",
                i.statements, i.shapes, i.templates, i.log_bytes, i.wall_ms
            );
        }
        if !self.chains.is_empty() {
            let _ = writeln!(out, "\nper-chain convergence");
            let _ = writeln!(
                out,
                "{:>12} {:>7} {:>9} {:>9} {:>9} {:>6} {:>8} {:>14} {:>9}  flags",
                "seed",
                "levels",
                "moves",
                "accepted",
                "rejected",
                "acc%",
                "resyncs",
                "objective6",
                "wall_ms"
            );
            for c in &self.chains {
                let mut flags = Vec::new();
                if c.winner {
                    flags.push("winner");
                }
                if c.cut_off {
                    flags.push("cut_off");
                }
                if c.timed_out {
                    flags.push("timed_out");
                }
                let _ = writeln!(
                    out,
                    "{:>12} {:>7} {:>9} {:>9} {:>9} {:>5.1}% {:>8} {:>14.3} {:>9.1}  {}",
                    c.seed,
                    c.levels,
                    c.iterations,
                    c.accepted,
                    c.rejected,
                    100.0 * c.acceptance(),
                    c.resyncs,
                    c.objective6,
                    c.wall_ms,
                    flags.join(","),
                );
            }
        }
        if !self.epochs.is_empty() {
            let _ = writeln!(out, "\nepoch timeline");
            let _ = writeln!(
                out,
                "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>15} {:>14}",
                "epoch",
                "wall_ms",
                "drift",
                "margin",
                "trigger",
                "degraded",
                "migrated_bytes",
                "snapshot_attrs"
            );
            for e in &self.epochs {
                let _ = writeln!(
                    out,
                    "{:>5} {:>9.1} {:>9.4} {:>+9.4} {:>9} {:>9} {:>15.0} {:>14}",
                    e.epoch,
                    e.wall_ms,
                    e.drift_score,
                    e.margin,
                    if e.triggered { "yes" } else { "no" },
                    if e.degraded { "yes" } else { "no" },
                    e.migration_bytes,
                    e.snapshot_attrs,
                );
            }
            let _ = writeln!(
                out,
                "total migrated: {:.0} bytes over {} epochs ({} triggered, {} degraded)",
                self.migration_bytes,
                self.epochs.len(),
                self.epochs.iter().filter(|e| e.triggered).count(),
                self.epochs.iter().filter(|e| e.degraded).count(),
            );
        }
        if !self.alerts.is_empty() {
            let _ = writeln!(out, "\nalert timeline");
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>9}  {:<28} {:>12}",
                "tick", "state", "severity", "rule", "value"
            );
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "{:>6} {:>10} {:>9}  {:<28} {:>12.4}",
                    a.tick, a.state, a.severity, a.rule, a.value,
                );
            }
            let firing: Vec<&str> = self.firing_rules();
            if firing.is_empty() {
                let _ = writeln!(out, "all alerts resolved at end of trace");
            } else {
                let _ = writeln!(out, "still firing: {}", firing.join(", "));
            }
        }
        for q in &self.qp {
            let _ = writeln!(
                out,
                "\nqp solve: {} branch nodes, {} lp pivots ({} root, {} warm), lp_ms={:.1}, \
                 exact={}, objective6={:.3}, wall_ms={:.1}",
                q.nodes,
                q.lp_pivots,
                q.root_pivots,
                q.warm_pivots,
                q.lp_ms,
                q.exact,
                q.objective6,
                q.wall_ms
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn round_trips_a_recorded_trace() {
        let obs = Obs::enabled();
        let solve = obs.span_begin("sa_solve", &[]);
        for seed in [3u64, 1u64] {
            let scoped = obs.under(&solve);
            let chain = scoped.span_begin("sa_chain", &[("seed", seed.into())]);
            scoped.span_end(
                chain,
                &[
                    ("seed", seed.into()),
                    ("levels", 4u64.into()),
                    ("iterations", 100u64.into()),
                    ("accepted", 25u64.into()),
                    ("rejected", 75u64.into()),
                    ("resyncs", 1u64.into()),
                    ("objective6", 42.5f64.into()),
                    ("cut_off", (seed == 3).into()),
                    ("timed_out", false.into()),
                ],
            );
        }
        obs.span_end(solve, &[("winner_seed", 1u64.into())]);

        let summary = TraceSummary::from_jsonl(&obs.trace_json_lines()).unwrap();
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.chains.len(), 2);
        // Sorted by seed; winner resolved from the sa_solve span.
        assert_eq!(summary.chains[0].seed, 1);
        assert!(summary.chains[0].winner);
        assert!(!summary.chains[1].winner);
        assert!(summary.chains[1].cut_off);
        assert!((summary.chains[0].acceptance() - 0.25).abs() < 1e-12);

        let text = summary.render();
        assert!(text.contains("per-chain convergence"));
        assert!(text.contains("winner"));
        assert!(text.contains("cut_off"));
    }

    #[test]
    fn summarizes_epochs_and_migrations() {
        let obs = Obs::enabled();
        let epoch = obs.span_begin("watch_epoch", &[]);
        let scoped = obs.under(&epoch);
        let mig = scoped.span_begin("migrate_batched", &[]);
        scoped.span_end(mig, &[("bytes_this_run", 2048.0f64.into())]);
        obs.span_end(
            epoch,
            &[
                ("epoch", 0u64.into()),
                ("drift_score", 0.3f64.into()),
                ("margin", 0.05f64.into()),
                ("triggered", true.into()),
                ("migration_bytes", 2048.0f64.into()),
                ("snapshot_attrs", 12u64.into()),
            ],
        );
        let summary = TraceSummary::from_jsonl(&obs.trace_json_lines()).unwrap();
        assert_eq!(summary.epochs.len(), 1);
        assert!(summary.epochs[0].triggered);
        assert_eq!(summary.migration_bytes, 2048.0);
        assert!(summary.render().contains("epoch timeline"));
    }

    #[test]
    fn parses_alert_events_into_a_timeline() {
        let obs = Obs::enabled();
        obs.event(
            "alert",
            &[
                ("tick", 3u64.into()),
                ("rule", "watch-degraded".into()),
                ("state", "firing".into()),
                ("severity", "critical".into()),
                ("value", 1.0f64.into()),
            ],
        );
        obs.event("checkpoint", &[("k", 1u64.into())]);
        obs.event(
            "alert",
            &[
                ("tick", 7u64.into()),
                ("rule", "watch-degraded".into()),
                ("state", "resolved".into()),
                ("severity", "critical".into()),
                ("value", 0.0f64.into()),
            ],
        );
        let summary = TraceSummary::from_jsonl(&obs.trace_json_lines()).unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.alerts.len(), 2);
        assert_eq!(summary.alerts[0].tick, 3);
        assert_eq!(summary.alerts[0].state, "firing");
        assert_eq!(summary.alerts[1].state, "resolved");
        assert!(summary.firing_rules().is_empty());
        let text = summary.render();
        assert!(text.contains("alert timeline"), "{text}");
        assert!(text.contains("watch-degraded"), "{text}");
        assert!(text.contains("all alerts resolved"), "{text}");

        // The transition shape matches the live snapshot exactly.
        let json = serde_json::to_string(&summary.alerts[0].to_transition_json()).unwrap();
        assert_eq!(
            json,
            "{\"tick\":3,\"rule\":\"watch-degraded\",\"state\":\"firing\",\"severity\":\"critical\",\"value\":1}"
        );
    }

    #[test]
    fn rejects_malformed_lines_with_position() {
        let err = TraceSummary::from_jsonl("{\"type\":\"span\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = TraceSummary::from_jsonl("{\"type\":\"mystery\"}\n").unwrap_err();
        assert!(err.contains("unknown record type"), "{err}");
    }

    #[test]
    fn empty_trace_summarizes_cleanly() {
        let summary = TraceSummary::from_jsonl("\n\n").unwrap();
        assert_eq!(summary.records, 0);
        assert!(summary.render().starts_with("trace: 0 records"));
    }
}
