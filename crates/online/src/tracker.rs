//! Streaming workload tracking: per-template observations under decay.
//!
//! The paper solves a one-shot problem from a frozen workload; a live
//! deployment sees a *stream* of transaction executions whose mix drifts.
//! [`OnlineWorkload`] accumulates that stream as per-template execution
//! counts under a configurable forgetting policy and materializes a fresh
//! [`Instance`] snapshot on demand, which any solver in `vpart_core`
//! accepts unchanged.
//!
//! # Templates
//!
//! A *template* is one transaction shape: its statements' read/write
//! attribute sets, per-table row counts and per-execution multiplicities —
//! everything about a [`vpart_model::Transaction`] except how often it
//! runs. Templates are registered from any [`Instance`] over the same
//! schema ([`OnlineWorkload::observe_instance`]), which is how the
//! `vpart_ingest` flattening pipeline feeds the tracker: ingest a log
//! chunk or a statistics dump with any frontend, then observe the result.
//! Matching is structural, so the same statements ingested from different
//! chunks (with different frequencies) land on the same template, and
//! genuinely new transaction shapes register as new templates. Template
//! indices are append-only and stable across snapshots, so a
//! [`Partitioning`](vpart_model::Partitioning) solved on one snapshot maps
//! onto the next by transaction id.
//!
//! Raw execution streams — e.g. `vpart_engine::ReplayStream::executions`
//! — feed the tracker through [`OnlineWorkload::observe_executions`].
//!
//! # Snapshots
//!
//! A snapshot's structure — query names, kinds, attribute sets, row
//! counts, transactions, and the incidence an [`Instance`] derives from
//! them — changes only when a template registers; between registrations
//! only the frequencies move. The tracker therefore keeps a *skeleton*
//! instance, built once through [`Workload::builder`] after each
//! registration (lazily, at the next snapshot), and
//! [`OnlineWorkload::snapshot`] copies it with the epoch's frequencies
//! written in place ([`Instance::with_frequencies`]). Each frequency is
//! `effective weight × per-execution multiplicity`, the same expression
//! the builder was given, and passes the builder's check, so the result
//! equals a full rebuild; an epoch formats no query names and runs no
//! builder pass.
//!
//! # Forgetting
//!
//! [`DecayMode::Exponential`] keeps an exponentially-decayed running sum:
//! closing an epoch multiplies history by `factor` before the next epoch
//! accumulates. Cheap (O(templates) state), smooth, but old traffic never
//! fully disappears. [`DecayMode::Window`] keeps the last `epochs` closed
//! epochs verbatim: exact cut-off and bounded memory of the past, at
//! O(templates × epochs) state and a stepwise response. Use exponential
//! decay for steady drift-following, windows when stale traffic must stop
//! influencing the partitioner after a hard deadline.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;
use vpart_model::workload::QuerySpec;
use vpart_model::{Instance, Query, Schema, TxnId, Workload};

use crate::OnlineError;

/// Forgetting policy for closed epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayMode {
    /// Exponential decay: closing an epoch multiplies accumulated history
    /// by `factor ∈ [0, 1)` before adding the epoch's counts.
    Exponential {
        /// Per-epoch retention factor.
        factor: f64,
    },
    /// Sliding window: only the last `epochs` closed epochs (plus the open
    /// one) contribute.
    Window {
        /// Number of closed epochs kept.
        epochs: usize,
    },
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Forgetting policy.
    pub decay: DecayMode,
    /// Frequency floor for templates whose effective weight decayed to
    /// (near) zero. Snapshots keep every registered template — indices
    /// must stay stable — so dead templates are pinned at this tiny
    /// weight instead of being dropped.
    pub min_weight: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            decay: DecayMode::Exponential { factor: 0.5 },
            min_weight: 1e-6,
        }
    }
}

impl TrackerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), OnlineError> {
        match self.decay {
            DecayMode::Exponential { factor } => {
                if !(0.0..1.0).contains(&factor) {
                    return Err(OnlineError::BadConfig(format!(
                        "decay factor must be in [0,1), got {factor}"
                    )));
                }
            }
            DecayMode::Window { epochs } => {
                if epochs == 0 {
                    return Err(OnlineError::BadConfig(
                        "window must keep at least one epoch".into(),
                    ));
                }
            }
        }
        if !(self.min_weight > 0.0) || !self.min_weight.is_finite() {
            return Err(OnlineError::BadConfig(format!(
                "min_weight must be positive and finite, got {}",
                self.min_weight
            )));
        }
        Ok(())
    }
}

/// Structural identity of one query within a template: kind, attribute
/// set, per-table row counts, and per-execution multiplicity (frequency
/// relative to the template weight) — everything except absolute rate.
type QuerySig = (bool, Vec<u32>, Vec<(u32, u64)>, u64);

/// Structural identity of a whole template.
type TemplateSig = Vec<QuerySig>;

/// One registered transaction shape.
#[derive(Debug, Clone)]
struct Template {
    name: String,
    /// The template's queries with `frequency` = per-execution
    /// multiplicity (the source query's frequency divided by the template
    /// weight).
    queries: Vec<Query>,
}

/// The weight convention shared with `vpart_ingest`: a transaction
/// template's weight is its largest per-query frequency (ingestion builds
/// per-statement frequencies as `weight × multiplicity` with the dominant
/// statement at multiplicity 1).
fn template_weight(workload: &Workload, t: TxnId) -> f64 {
    workload
        .txn(t)
        .queries
        .iter()
        .map(|&q| workload.query(q).frequency)
        .fold(0.0f64, f64::max)
}

fn signature(workload: &Workload, t: TxnId, weight: f64) -> TemplateSig {
    workload
        .txn(t)
        .queries
        .iter()
        .map(|&qid| {
            let q = workload.query(qid);
            (
                q.kind.is_write(),
                q.attrs.iter().map(|a| a.0).collect(),
                q.table_rows
                    .iter()
                    .map(|&(tb, n)| (tb.0, n.to_bits()))
                    .collect(),
                (q.frequency / weight).to_bits(),
            )
        })
        .collect()
}

/// Streaming per-template workload accumulator (see module docs).
#[derive(Debug, Clone)]
pub struct OnlineWorkload {
    name: String,
    schema: Schema,
    config: TrackerConfig,
    templates: Vec<Template>,
    index: HashMap<TemplateSig, usize>,
    name_uses: HashMap<String, usize>,
    /// Counts observed in the open epoch.
    current: Vec<f64>,
    /// Exponentially decayed history ([`DecayMode::Exponential`]).
    decayed: Vec<f64>,
    /// Closed epochs, oldest first ([`DecayMode::Window`]).
    window: VecDeque<Vec<f64>>,
    epoch: u64,
    /// The snapshot structure at unit template weight (see the module
    /// docs), reset by every registration; `None` when the template set
    /// does not build.
    skeleton: OnceLock<Option<Instance>>,
}

impl OnlineWorkload {
    /// An empty tracker over `schema`. Templates register on first
    /// observation.
    pub fn new<S: Into<String>>(
        name: S,
        schema: Schema,
        config: TrackerConfig,
    ) -> Result<Self, OnlineError> {
        config.validate()?;
        Ok(Self {
            name: name.into(),
            schema,
            config,
            templates: Vec::new(),
            index: HashMap::new(),
            name_uses: HashMap::new(),
            current: Vec::new(),
            decayed: Vec::new(),
            window: VecDeque::new(),
            epoch: 0,
            skeleton: OnceLock::new(),
        })
    }

    /// A tracker pre-registered with `instance`'s templates (no weight is
    /// observed yet). Template index `i` corresponds to `TxnId(i)` of the
    /// instance, so an existing partitioning maps over directly.
    pub fn from_instance(instance: &Instance, config: TrackerConfig) -> Result<Self, OnlineError> {
        let mut tracker = Self::new(instance.name(), instance.schema().clone(), config)?;
        for t in 0..instance.n_txns() {
            tracker.register(instance.workload(), TxnId::from_index(t));
        }
        Ok(tracker)
    }

    /// Registers (or finds) the template for transaction `t` of
    /// `workload`; returns its index.
    fn register(&mut self, workload: &Workload, t: TxnId) -> usize {
        let weight = template_weight(workload, t).max(f64::MIN_POSITIVE);
        let sig = signature(workload, t, weight);
        if let Some(&i) = self.index.get(&sig) {
            return i;
        }
        let base = workload.txn(t).name.clone();
        let uses = self.name_uses.entry(base.clone()).or_insert(0);
        *uses += 1;
        let name = if *uses == 1 {
            base
        } else {
            format!("{base}~{uses}")
        };
        let queries = workload
            .txn(t)
            .queries
            .iter()
            .map(|&qid| {
                let mut q = workload.query(qid).clone();
                q.frequency /= weight;
                q
            })
            .collect();
        let i = self.templates.len();
        self.templates.push(Template { name, queries });
        self.index.insert(sig, i);
        self.current.push(0.0);
        self.decayed.push(0.0);
        for epoch in &mut self.window {
            epoch.push(0.0);
        }
        self.skeleton = OnceLock::new();
        self.debug_check_index_stability();
        i
    }

    /// `debug-invariants` self-check: template indices are append-only
    /// and every parallel array tracks them. Violations here would
    /// silently remap transaction ids between snapshots, detaching a
    /// deployed partitioning from the workload it was solved for.
    /// Compiles to nothing without the feature.
    #[cfg(feature = "debug-invariants")]
    fn debug_check_index_stability(&self) {
        let n = self.templates.len();
        assert_eq!(
            self.current.len(),
            n,
            "current[] out of step with templates"
        );
        assert_eq!(
            self.decayed.len(),
            n,
            "decayed[] out of step with templates"
        );
        assert_eq!(
            self.index.len(),
            n,
            "signature index out of step with templates"
        );
        for epoch in &self.window {
            assert_eq!(epoch.len(), n, "window epoch out of step with templates");
        }
        let mut seen = vec![false; n];
        for &i in self.index.values() {
            assert!(i < n, "signature index points past the template table");
            assert!(!seen[i], "two signatures map to template {i}");
            seen[i] = true;
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn debug_check_index_stability(&self) {}

    /// Observes `count` executions of template `template` in the open
    /// epoch.
    pub fn observe(&mut self, template: usize, count: f64) -> Result<(), OnlineError> {
        if template >= self.templates.len() {
            return Err(OnlineError::UnknownTemplate { template });
        }
        if !(count >= 0.0) || !count.is_finite() {
            return Err(OnlineError::BadConfig(format!(
                "observation count must be finite and non-negative, got {count}"
            )));
        }
        self.current[template] += count;
        Ok(())
    }

    /// Observes a raw execution stream (e.g. `ReplayStream::executions`
    /// from the engine): each entry is one execution of the template with
    /// that transaction id.
    pub fn observe_executions(&mut self, executions: &[TxnId]) -> Result<(), OnlineError> {
        for &t in executions {
            self.observe(t.index(), 1.0)?;
        }
        Ok(())
    }

    /// Observes every transaction template of `instance` at its workload
    /// weight. This is the `vpart_ingest` feeding path: ingest a log chunk
    /// or statistics dump (any frontend — the shared flattening pipeline
    /// produces the instance) and pass the result here. New transaction
    /// shapes register as new templates; known shapes accumulate. Returns
    /// the total weight observed.
    pub fn observe_instance(&mut self, instance: &Instance) -> Result<f64, OnlineError> {
        if *instance.schema() != self.schema {
            return Err(OnlineError::SchemaMismatch);
        }
        let mut total = 0.0;
        for t in 0..instance.n_txns() {
            let txn = TxnId::from_index(t);
            let weight = template_weight(instance.workload(), txn);
            let i = self.register(instance.workload(), txn);
            self.current[i] += weight;
            total += weight;
        }
        Ok(total)
    }

    /// Observes a replayed execution stream (`ReplayStream::executions`
    /// from `vpart_engine`) whose transaction ids refer to `instance` —
    /// the watch loop's engine-speed feeding path.
    ///
    /// One engine execution of transaction `t` runs every query at its
    /// workload frequency, which is `weight_t` tracker units (one unit =
    /// one run of the dominant statement). Each entry therefore adds the
    /// template's weight, so a stream containing every transaction once
    /// accumulates exactly what [`observe_instance`] would — replay-fed
    /// and log-fed trackers agree. New shapes register as new templates.
    /// Returns the total weight observed.
    ///
    /// [`observe_instance`]: Self::observe_instance
    pub fn observe_replay(
        &mut self,
        instance: &Instance,
        executions: &[TxnId],
    ) -> Result<f64, OnlineError> {
        if *instance.schema() != self.schema {
            return Err(OnlineError::SchemaMismatch);
        }
        let mut total = 0.0;
        for &txn in executions {
            if txn.index() >= instance.n_txns() {
                return Err(OnlineError::UnknownTemplate {
                    template: txn.index(),
                });
            }
            let weight = template_weight(instance.workload(), txn);
            let i = self.register(instance.workload(), txn);
            self.current[i] += weight;
            total += weight;
        }
        Ok(total)
    }

    /// Closes the open epoch: commits its counts under the forgetting
    /// policy and starts a new one. Returns the new epoch number.
    pub fn advance_epoch(&mut self) -> u64 {
        match self.config.decay {
            DecayMode::Exponential { factor } => {
                for (d, c) in self.decayed.iter_mut().zip(&mut self.current) {
                    *d = *d * factor + *c;
                    *c = 0.0;
                }
            }
            DecayMode::Window { epochs } => {
                self.window.push_back(std::mem::replace(
                    &mut self.current,
                    vec![0.0; self.templates.len()],
                ));
                while self.window.len() > epochs {
                    self.window.pop_front();
                }
            }
        }
        self.epoch += 1;
        self.debug_check_index_stability();
        self.epoch
    }

    /// Effective per-template weights right now: committed history under
    /// the forgetting policy plus the open epoch.
    pub fn effective_weights(&self) -> Vec<f64> {
        let mut eff = match self.config.decay {
            DecayMode::Exponential { factor } => self
                .decayed
                .iter()
                .map(|&d| d * factor)
                .collect::<Vec<f64>>(),
            DecayMode::Window { .. } => {
                let mut sums = vec![0.0; self.templates.len()];
                for epoch in &self.window {
                    for (s, &w) in sums.iter_mut().zip(epoch) {
                        *s += w;
                    }
                }
                sums
            }
        };
        for (e, &c) in eff.iter_mut().zip(&self.current) {
            *e += c;
        }
        eff
    }

    /// Materializes the current mix as a fresh [`Instance`]. Every
    /// registered template appears (index `i` = `TxnId(i)`), with query
    /// frequencies `effective_weight × per-execution multiplicity`;
    /// templates whose weight decayed below
    /// [`TrackerConfig::min_weight`] are pinned at that floor. The
    /// frequencies are written into a copy of the cached skeleton (see
    /// the module docs).
    pub fn snapshot(&self) -> Result<Instance, OnlineError> {
        if self.templates.is_empty() {
            return Err(OnlineError::NoTraffic);
        }
        let weights = self.effective_weights();
        let floor = self.config.min_weight;
        let name = format!("{}@e{}", self.name, self.epoch);
        let skeleton = self
            .skeleton
            .get_or_init(|| self.build(String::new(), |_| 1.0).ok());
        let Some(skeleton) = skeleton else {
            // The structure itself does not build: the builder run at
            // this epoch's weights reports exactly the error it meets.
            return self.build(name, |i| weights[i].max(floor));
        };
        let frequencies = self.templates.iter().zip(&weights).flat_map(|(tpl, &w)| {
            let weight = w.max(floor);
            tpl.queries.iter().map(move |q| weight * q.frequency)
        });
        Ok(skeleton.with_frequencies(name, frequencies)?)
    }

    /// Builds the mix with template `i` at `weight(i)` through
    /// [`Workload::builder`].
    fn build(&self, name: String, weight: impl Fn(usize) -> f64) -> Result<Instance, OnlineError> {
        let mut wb = Workload::builder(&self.schema);
        for (i, tpl) in self.templates.iter().enumerate() {
            let weight = weight(i);
            let mut qids = Vec::with_capacity(tpl.queries.len());
            for (j, q) in tpl.queries.iter().enumerate() {
                let mut spec = if q.kind.is_write() {
                    QuerySpec::write(format!("{}.q{j}", tpl.name))
                } else {
                    QuerySpec::read(format!("{}.q{j}", tpl.name))
                };
                spec = spec.access(&q.attrs).frequency(weight * q.frequency);
                for &(tb, n) in &q.table_rows {
                    spec = spec.rows(tb, n);
                }
                qids.push(wb.add_query(spec)?);
            }
            wb.transaction(&tpl.name, &qids)?;
        }
        Ok(Instance::new(name, self.schema.clone(), wb.build()?)?)
    }

    /// Number of registered templates.
    pub fn n_templates(&self) -> usize {
        self.templates.len()
    }

    /// Name of template `i`.
    pub fn template_name(&self, i: usize) -> &str {
        &self.templates[i].name
    }

    /// The open epoch's number (starts at 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The schema observations must match.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::{AttrId, TableId};

    fn schema() -> Schema {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        sb.build().unwrap()
    }

    fn instance(read_freq: f64, write_freq: f64) -> Instance {
        let schema = schema();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(
                QuerySpec::read("r")
                    .access(&[AttrId(0)])
                    .frequency(read_freq),
            )
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("w")
                    .access(&[AttrId(1)])
                    .frequency(write_freq)
                    .rows(TableId(0), 3.0),
            )
            .unwrap();
        wb.transaction("reader", &[q0]).unwrap();
        wb.transaction("writer", &[q1]).unwrap();
        Instance::new("t", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn snapshot_reproduces_an_observed_instance() {
        let ins = instance(10.0, 4.0);
        let mut tr = OnlineWorkload::from_instance(&ins, TrackerConfig::default()).unwrap();
        tr.observe_instance(&ins).unwrap();
        let snap = tr.snapshot().unwrap();
        assert_eq!(snap.n_txns(), 2);
        assert_eq!(
            snap.workload().query(vpart_model::QueryId(0)).frequency,
            10.0
        );
        assert_eq!(
            snap.workload().query(vpart_model::QueryId(1)).frequency,
            4.0
        );
        // Row counts and access sets survive the round trip.
        assert_eq!(
            snap.workload()
                .query(vpart_model::QueryId(1))
                .rows_for_table(TableId(0)),
            3.0
        );
    }

    /// A snapshot rebuilt from scratch through `Workload::builder`, with a
    /// formatted name per query: the reference the skeleton copy must
    /// equal.
    fn rebuilt_snapshot(tr: &OnlineWorkload) -> Result<Instance, OnlineError> {
        if tr.templates.is_empty() {
            return Err(OnlineError::NoTraffic);
        }
        let weights = tr.effective_weights();
        let mut wb = Workload::builder(&tr.schema);
        for (i, tpl) in tr.templates.iter().enumerate() {
            let weight = weights[i].max(tr.config.min_weight);
            let mut qids = Vec::new();
            for (j, q) in tpl.queries.iter().enumerate() {
                let name = format!("{}.q{j}", tpl.name);
                let mut spec = if q.kind.is_write() {
                    QuerySpec::write(name)
                } else {
                    QuerySpec::read(name)
                };
                spec = spec.access(&q.attrs).frequency(weight * q.frequency);
                for &(tb, n) in &q.table_rows {
                    spec = spec.rows(tb, n);
                }
                qids.push(wb.add_query(spec)?);
            }
            wb.transaction(&tpl.name, &qids)?;
        }
        let name = format!("{}@e{}", tr.name, tr.epoch);
        Ok(Instance::new(name, tr.schema.clone(), wb.build()?)?)
    }

    /// A transaction shape per `k`: its read attribute set, write row
    /// count and statement multiplicity all vary, so new `k` register new
    /// templates.
    fn shape(k: usize, scale: f64) -> Instance {
        let schema = schema();
        let mut wb = Workload::builder(&schema);
        let read = if k.is_multiple_of(2) {
            vec![AttrId(0)]
        } else {
            vec![AttrId(0), AttrId(1)]
        };
        let q0 = wb
            .add_query(QuerySpec::read("r").access(&read).frequency(3.0 * scale))
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("w")
                    .access(&[AttrId(1)])
                    .frequency(scale * (1.0 + k as f64 / 7.0))
                    .rows(TableId(0), 1.0 + k as f64),
            )
            .unwrap();
        wb.transaction("t", &[q0, q1]).unwrap();
        Instance::new("s", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn snapshots_equal_a_builder_rebuild() {
        for decay in [
            DecayMode::Exponential { factor: 0.5 },
            DecayMode::Exponential { factor: 0.0 },
            DecayMode::Window { epochs: 1 },
            DecayMode::Window { epochs: 3 },
        ] {
            for min_weight in [1e-6, 2.5] {
                let cfg = TrackerConfig { decay, min_weight };
                let mut tr = OnlineWorkload::from_instance(&instance(10.0, 4.0), cfg).unwrap();
                assert_eq!(
                    tr.snapshot(),
                    rebuilt_snapshot(&tr),
                    "{decay:?} before traffic"
                );
                for round in 0..24usize {
                    // New shapes register every few rounds, mid-stream.
                    tr.observe_instance(&shape(round / 4, 0.1 + round as f64))
                        .unwrap();
                    tr.observe(round % tr.n_templates(), 0.7 * round as f64)
                        .unwrap();
                    assert_eq!(
                        tr.snapshot(),
                        rebuilt_snapshot(&tr),
                        "{decay:?} round {round}"
                    );
                    if round % 3 == 2 {
                        tr.advance_epoch();
                        // Templates with no traffic this epoch sit at the
                        // floor (window and factor-0 modes forget them).
                        assert_eq!(
                            tr.snapshot(),
                            rebuilt_snapshot(&tr),
                            "{decay:?} epoch close"
                        );
                    }
                }
                assert!(tr.n_templates() >= 8, "shapes registered mid-stream");
            }
        }
    }

    #[test]
    fn overflowing_weights_are_invalid_frequencies() {
        let mut tr =
            OnlineWorkload::from_instance(&instance(1.0, 1.0), TrackerConfig::default()).unwrap();
        tr.snapshot().unwrap();
        tr.observe(1, f64::MAX).unwrap();
        tr.observe(1, f64::MAX).unwrap();
        let snap = tr.snapshot();
        assert!(
            matches!(
                &snap,
                Err(OnlineError::Model(vpart_model::ModelError::InvalidFrequency { query, frequency }))
                    if query == "writer.q0" && *frequency == f64::INFINITY
            ),
            "{snap:?}"
        );
        assert_eq!(snap, rebuilt_snapshot(&tr));
    }

    #[test]
    fn structural_matching_merges_chunks_with_different_rates() {
        let mut tr = OnlineWorkload::new("s", schema(), TrackerConfig::default()).unwrap();
        tr.observe_instance(&instance(10.0, 4.0)).unwrap();
        tr.observe_instance(&instance(2.0, 40.0)).unwrap();
        assert_eq!(tr.n_templates(), 2, "same shapes, different rates");
        let w = tr.effective_weights();
        assert_eq!(w, vec![12.0, 44.0]);
    }

    #[test]
    fn exponential_decay_follows_the_drift() {
        let cfg = TrackerConfig {
            decay: DecayMode::Exponential { factor: 0.5 },
            ..TrackerConfig::default()
        };
        let mut tr = OnlineWorkload::new("d", schema(), cfg).unwrap();
        tr.observe_instance(&instance(100.0, 1.0)).unwrap();
        tr.advance_epoch();
        tr.observe_instance(&instance(1.0, 100.0)).unwrap();
        let w = tr.effective_weights();
        // Reader: 100×0.5 + 1 = 51; writer: 1×0.5 + 100 = 100.5.
        assert_eq!(w, vec![51.0, 100.5]);
        tr.advance_epoch();
        let w = tr.effective_weights();
        assert_eq!(w, vec![25.5, 50.25], "history keeps decaying");
    }

    #[test]
    fn window_decay_forgets_exactly() {
        let cfg = TrackerConfig {
            decay: DecayMode::Window { epochs: 2 },
            ..TrackerConfig::default()
        };
        let mut tr = OnlineWorkload::new("w", schema(), cfg).unwrap();
        for (r, w) in [(10.0f64, 0.0f64), (20.0, 1.0), (30.0, 2.0)] {
            tr.observe_instance(&instance(r.max(1e-9), w.max(1e-9)))
                .unwrap();
            tr.advance_epoch();
        }
        let w = tr.effective_weights();
        // Only the last two epochs remain: 20+30 and 1+2.
        assert!((w[0] - 50.0).abs() < 1e-6);
        assert!((w[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn dead_templates_are_floored_not_dropped() {
        let cfg = TrackerConfig {
            decay: DecayMode::Window { epochs: 1 },
            min_weight: 1e-3,
        };
        let mut tr = OnlineWorkload::new("f", schema(), cfg).unwrap();
        tr.observe_instance(&instance(5.0, 5.0)).unwrap();
        tr.advance_epoch();
        tr.advance_epoch(); // the only observed epoch falls out
        let snap = tr.snapshot().unwrap();
        assert_eq!(snap.n_txns(), 2, "indices stay stable");
        assert_eq!(
            snap.workload().query(vpart_model::QueryId(0)).frequency,
            1e-3
        );
    }

    #[test]
    fn execution_streams_feed_by_transaction_id() {
        let ins = instance(1.0, 1.0);
        let mut tr = OnlineWorkload::from_instance(&ins, TrackerConfig::default()).unwrap();
        tr.observe_executions(&[TxnId(0), TxnId(0), TxnId(1)])
            .unwrap();
        assert_eq!(tr.effective_weights(), vec![2.0, 1.0]);
        assert!(matches!(
            tr.observe(99, 1.0),
            Err(OnlineError::UnknownTemplate { template: 99 })
        ));
    }

    #[test]
    fn replay_streams_feed_at_template_weight() {
        let ins = instance(10.0, 4.0);
        let mut tr = OnlineWorkload::from_instance(&ins, TrackerConfig::default()).unwrap();
        // Two executions of the reader (weight 10), one of the writer (4).
        let total = tr
            .observe_replay(&ins, &[TxnId(0), TxnId(1), TxnId(0)])
            .unwrap();
        assert_eq!(total, 24.0);
        assert_eq!(tr.effective_weights(), vec![20.0, 4.0]);
        // A stream with every transaction exactly once matches
        // observe_instance — replay-fed and log-fed trackers agree.
        let mut by_stream = OnlineWorkload::from_instance(&ins, TrackerConfig::default()).unwrap();
        by_stream
            .observe_replay(&ins, &[TxnId(0), TxnId(1)])
            .unwrap();
        let mut by_log = OnlineWorkload::from_instance(&ins, TrackerConfig::default()).unwrap();
        by_log.observe_instance(&ins).unwrap();
        assert_eq!(by_stream.effective_weights(), by_log.effective_weights());
        // Out-of-range ids and foreign schemas are rejected.
        assert!(matches!(
            tr.observe_replay(&ins, &[TxnId(7)]),
            Err(OnlineError::UnknownTemplate { template: 7 })
        ));
    }

    /// With `debug-invariants` on, heavy registration/epoch churn under
    /// both decay modes keeps passing the index-stability self-check
    /// (which runs on every registration and epoch close).
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn index_stability_self_check_survives_churn() {
        for decay in [
            DecayMode::Exponential { factor: 0.7 },
            DecayMode::Window { epochs: 3 },
        ] {
            let cfg = TrackerConfig {
                decay,
                ..TrackerConfig::default()
            };
            let mut tr = OnlineWorkload::new("churn", schema(), cfg).unwrap();
            for round in 0..50usize {
                tr.observe_instance(&instance(1.0 + round as f64, 2.0))
                    .unwrap();
                if round % 4 == 0 {
                    tr.advance_epoch();
                }
            }
            assert_eq!(tr.n_templates(), 2, "structural merge stays stable");
            tr.snapshot().unwrap();
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut other = Schema::builder();
        other.table("X", &[("x", 1.0)]).unwrap();
        let other = other.build().unwrap();
        let mut tr = OnlineWorkload::new("m", other, TrackerConfig::default()).unwrap();
        assert!(matches!(
            tr.observe_instance(&instance(1.0, 1.0)),
            Err(OnlineError::SchemaMismatch)
        ));
    }

    #[test]
    fn empty_tracker_has_no_snapshot() {
        let tr = OnlineWorkload::new("e", schema(), TrackerConfig::default()).unwrap();
        assert!(matches!(tr.snapshot(), Err(OnlineError::NoTraffic)));
    }

    #[test]
    fn bad_configs_are_rejected() {
        for cfg in [
            TrackerConfig {
                decay: DecayMode::Exponential { factor: 1.0 },
                ..TrackerConfig::default()
            },
            TrackerConfig {
                decay: DecayMode::Window { epochs: 0 },
                ..TrackerConfig::default()
            },
            TrackerConfig {
                min_weight: 0.0,
                ..TrackerConfig::default()
            },
        ] {
            assert!(OnlineWorkload::new("x", schema(), cfg).is_err());
        }
    }
}
