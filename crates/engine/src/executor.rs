//! Deployment, journaled migration and stream execution with byte-exact
//! metering.

use crate::faults::{FaultInjector, FP_MIGRATION_BATCH, FP_MIGRATION_ROLLBACK};
use crate::journal::{JournalRecord, MigrationJournal};
use crate::storage::{Fragment, Site};
use std::fmt;
use vpart_model::{
    AttrId, BatchedMigrationPlan, Instance, MigrationOp, Partitioning, SiteId, TableId, TxnId,
};
use vpart_obs::Obs;

/// Errors raised by the execution engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The partitioning failed validation against the instance.
    Model(vpart_model::ModelError),
    /// A read query needed an attribute absent from its executing site —
    /// the deployment would break single-sitedness.
    NotSingleSited {
        /// The transaction whose read broke.
        txn: TxnId,
        /// The missing attribute.
        attr: AttrId,
        /// The executing site.
        site: SiteId,
    },
    /// A migration plan does not start from this deployment's state (its
    /// `from` layout or row count differs).
    MigrationMismatch {
        /// What the plan disagrees with the deployment about.
        what: &'static str,
    },
    /// A migration plan is internally inconsistent: applying its changes
    /// to `from` does not produce `to`.
    CorruptPlan {
        /// Which invariant broke.
        what: &'static str,
    },
    /// A replay stream or configuration is unusable (empty stream,
    /// out-of-range transaction ids, …).
    InvalidReplay {
        /// What was wrong with the replay request.
        what: &'static str,
    },
    /// A deterministic fault-injection arm fired at a named fail point
    /// (a simulated crash/abort; see [`crate::faults`]).
    Injected {
        /// The fail point that fired.
        point: String,
    },
    /// A migration journal failed validation: damaged encoding, checksum
    /// mismatch, impossible record sequence, or a fingerprint that does
    /// not match the plan being recovered.
    CorruptJournal {
        /// What was wrong, naming the offending line where applicable.
        what: String,
    },
    /// A fault-injection spec string could not be parsed.
    InvalidFault {
        /// What was wrong with the spec.
        what: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "invalid deployment: {e}"),
            Self::NotSingleSited { txn, attr, site } => {
                write!(f, "read of {attr} by {txn} not satisfiable on site {site}")
            }
            Self::MigrationMismatch { what } => {
                write!(f, "migration plan does not match this deployment: {what}")
            }
            Self::CorruptPlan { what } => {
                write!(f, "migration plan is inconsistent: {what}")
            }
            Self::InvalidReplay { what } => {
                write!(f, "invalid replay request: {what}")
            }
            Self::Injected { point } => {
                write!(f, "injected fault at {point}")
            }
            Self::CorruptJournal { what } => {
                write!(f, "migration journal is corrupt: {what}")
            }
            Self::InvalidFault { what } => {
                write!(f, "invalid fault spec: {what}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<vpart_model::ModelError> for EngineError {
    fn from(e: vpart_model::ModelError) -> Self {
        Self::Model(e)
    }
}

/// Per-site byte meters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteMetrics {
    /// Bytes read by storage access methods.
    pub bytes_read: f64,
    /// Bytes written by storage access methods.
    pub bytes_written: f64,
}

impl SiteMetrics {
    /// Total storage work (`read + write`) on this site — the engine-side
    /// analogue of the cost model's per-site work (equation (5)).
    pub fn work(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }
}

/// Result of executing a stream of transaction executions.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Per-site meters.
    pub per_site: Vec<SiteMetrics>,
    /// Bytes shipped between sites by write replication.
    pub transfer_bytes: f64,
    /// Transaction executions processed.
    pub executions: usize,
    /// Executions that ran entirely on their home site (no replica
    /// traffic) — these need no undo/redo log in an H-store-like system.
    pub single_sited_executions: usize,
    /// Individual queries executed.
    pub queries_executed: usize,
    /// Physical rows touched (reads + writes).
    pub rows_touched: usize,
    /// Checksum over read payloads (forces real data movement; also a
    /// cheap reproducibility probe).
    pub checksum: u64,
}

impl ExecutionReport {
    /// Aggregated meters across sites.
    pub fn totals(&self) -> SiteMetrics {
        let mut t = SiteMetrics::default();
        for s in &self.per_site {
            t.bytes_read += s.bytes_read;
            t.bytes_written += s.bytes_written;
        }
        t
    }

    /// The engine-side analogue of objective (4): `A_R + A_W + p·B` from
    /// *measured* bytes.
    pub fn measured_objective4(&self, p: f64) -> f64 {
        let t = self.totals();
        t.bytes_read + t.bytes_written + p * self.transfer_bytes
    }

    /// Measured per-site work.
    pub fn site_work(&self) -> Vec<f64> {
        self.per_site.iter().map(SiteMetrics::work).collect()
    }

    /// Fraction of executions that stayed single-sited.
    pub fn single_sited_ratio(&self) -> f64 {
        if self.executions == 0 {
            return 1.0;
        }
        self.single_sited_executions as f64 / self.executions as f64
    }
}

/// Result of running (part of) a [`BatchedMigrationPlan`] through the
/// write-ahead journal: forward progress, rollback progress, and the
/// durable byte meter derived from commit records (never double-counted
/// across crashes and resumes).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedMigrationReport {
    /// Durable metered bytes: `Σ` over the journal's commit records —
    /// forward installs for a migration, re-installs for a rollback.
    /// Identical across any crash/resume schedule of the same plan.
    pub bytes_moved: f64,
    /// Bytes shipped by batches committed in *this* call.
    pub bytes_this_run: f64,
    /// Batches committed (or undone, for rollbacks) in this call.
    pub batches_applied: usize,
    /// The batch boundary the deployment now sits at (committed − undone).
    pub boundary: usize,
    /// Total batches in the plan.
    pub batches_total: usize,
    /// Attribute replicas installed in this call.
    pub installs: usize,
    /// Attribute replicas dropped in this call.
    pub drops: usize,
    /// Transactions re-homed in this call.
    pub txns_rerouted: usize,
    /// The plan's peak transient dual-resident bytes (worst extra storage
    /// at any boundary, priced by the cost model's widths).
    pub peak_transient_bytes: f64,
    /// True when this call continued a journal with prior progress.
    pub resumed: bool,
    /// True when the migration reached `plan.to` (forward) …
    pub completed: bool,
    /// … or `plan.from` again (rollback).
    pub rolled_back: bool,
}

/// A partitioning physically deployed onto sites.
#[derive(Debug, Clone)]
pub struct Deployment<'a> {
    instance: &'a Instance,
    partitioning: Partitioning,
    sites: Vec<Site>,
    rows_per_fragment: usize,
    obs: Obs,
}

impl<'a> Deployment<'a> {
    /// Validates `partitioning` and materializes one fragment per
    /// `(site, table)` pair with `rows_per_fragment` rows each.
    pub fn new(
        instance: &'a Instance,
        partitioning: &Partitioning,
        rows_per_fragment: usize,
    ) -> Result<Self, EngineError> {
        partitioning.validate(instance, false)?;
        let n_tables = instance.n_tables();
        let mut sites = Vec::with_capacity(partitioning.n_sites());
        for s in 0..partitioning.n_sites() {
            let site_id = SiteId::from_index(s);
            let mut site = Site::new(site_id, n_tables);
            for t in 0..n_tables {
                let table = vpart_model::TableId::from_index(t);
                let attrs: Vec<AttrId> = instance
                    .schema()
                    .table_attrs(table)
                    .map(AttrId::from_index)
                    .filter(|&a| partitioning.has_attr(a, site_id))
                    .collect();
                if !attrs.is_empty() {
                    let width: f64 = attrs.iter().map(|&a| instance.schema().width(a)).sum();
                    site.fragments[t] =
                        Some(Fragment::new(table, attrs, width, rows_per_fragment.max(1)));
                }
            }
            sites.push(site);
        }
        Ok(Self {
            instance,
            partitioning: partitioning.clone(),
            sites,
            rows_per_fragment: rows_per_fragment.max(1),
            obs: Obs::disabled(),
        })
    }

    /// Attaches an observability sink: [`migrate_batches`] and
    /// [`rollback_migration`] then record a `migrate_batched` /
    /// `rollback_migration` span, one event per batch and the
    /// `engine_*_total` meter counters (migration bytes, batches,
    /// installs, drops, re-routes). Off by default.
    ///
    /// [`migrate_batches`]: Self::migrate_batches
    /// [`rollback_migration`]: Self::rollback_migration
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The deployed partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The uniform per-fragment row count this deployment materializes.
    pub fn rows_per_fragment(&self) -> usize {
        self.rows_per_fragment
    }

    /// The sites (for storage inspection).
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Total physically materialized bytes across sites.
    pub fn stored_bytes(&self) -> usize {
        self.sites.iter().map(Site::stored_bytes).sum()
    }

    /// Runs a [`BatchedMigrationPlan`] to completion through a write-ahead
    /// `journal`: each batch is journaled (`BatchBegin`), applied to
    /// storage, then committed (`BatchCommit` with its metered bytes).
    /// Passing a journal with prior progress *resumes* from its boundary —
    /// already-committed batches are never re-applied and never re-counted,
    /// so `bytes_moved` is identical across any crash/resume schedule.
    ///
    /// This is the engine's only migration path. Installs meter
    /// `w_a × rows` from the engine's own schema widths and row count, the
    /// expression [`MigrationPlan::between`](vpart_model::MigrationPlan::between)
    /// prices, so a plan built with this deployment's `rows_per_fragment`
    /// measures exactly its estimate. A plan batched with an infinite
    /// budget runs as one batch: the atomic case.
    ///
    /// `faults` may arm the [`FP_MIGRATION_BATCH`] fail point, which fires
    /// *after* a batch's ops hit storage but *before* its commit is
    /// journaled — the worst-case crash window. After an
    /// [`EngineError::Injected`] abort this deployment is mid-batch and
    /// must be discarded; [`Deployment::recover`] rebuilds a clean one at
    /// the journal's boundary.
    pub fn migrate_batched(
        &mut self,
        plan: &BatchedMigrationPlan,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
    ) -> Result<BatchedMigrationReport, EngineError> {
        self.migrate_batches(plan, journal, faults, usize::MAX)
    }

    /// [`migrate_batched`](Self::migrate_batched), but commits at most
    /// `max_batches` batches in this call (rate limiting: a control loop
    /// can interleave batches with foreground work). The migration is
    /// `Complete` only once a call commits the final batch.
    pub fn migrate_batches(
        &mut self,
        plan: &BatchedMigrationPlan,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
        max_batches: usize,
    ) -> Result<BatchedMigrationReport, EngineError> {
        let fingerprint = plan.fingerprint();
        let span = self.obs.span_begin(
            "migrate_batched",
            &[
                ("batches", plan.n_batches().into()),
                ("fingerprint", fingerprint.into()),
                ("rows_per_fragment", self.rows_per_fragment.into()),
            ],
        );
        let resumed = !journal.is_empty();
        if resumed {
            self.check_journal_matches(plan, journal, fingerprint)?;
            let st = journal.state();
            if st.rolling_back || st.rolled_back {
                return Err(EngineError::MigrationMismatch {
                    what: "journal records a rollback; resume with rollback_migration",
                });
            }
            if st.complete {
                return Ok(self.batched_report(plan, journal, 0.0, 0, 0, 0, 0));
            }
        } else {
            if plan.plan.from != self.partitioning {
                return Err(EngineError::MigrationMismatch {
                    what: "plan.from is not the deployed partitioning",
                });
            }
            if plan.plan.rows_per_fragment.max(1) != self.rows_per_fragment {
                return Err(EngineError::MigrationMismatch {
                    what: "plan rows_per_fragment differs from the deployment's",
                });
            }
            plan.plan.to.validate(self.instance, false)?;
            if plan.boundary(plan.n_batches()) != plan.plan.to {
                return Err(EngineError::CorruptPlan {
                    what: "batches do not produce plan.to",
                });
            }
            journal.append(JournalRecord::Start {
                fingerprint,
                batches: plan.n_batches(),
                rows_per_fragment: self.rows_per_fragment,
            })?;
        }

        let start = journal.state().boundary();
        let mut bytes_this_run = 0.0f64;
        let mut applied = 0usize;
        let mut installs = 0usize;
        let mut drops = 0usize;
        let mut moves = 0usize;
        let mut touched = Vec::new();
        for (k, batch) in plan.batches.iter().enumerate().skip(start) {
            if applied >= max_batches {
                break;
            }
            journal.append(JournalRecord::BatchBegin { batch: k })?;
            let mut batch_bytes = 0.0f64;
            for op in &batch.ops {
                let (b, i, d, m) = self.apply_op(op, true, &mut touched);
                batch_bytes += b;
                installs += i;
                drops += d;
                moves += m;
            }
            self.rebuild_touched(&mut touched);
            if self.obs.is_enabled() {
                self.obs.event(
                    "migration_batch.applied",
                    &[("batch", k.into()), ("bytes", batch_bytes.into())],
                );
            }
            // The crash window: ops applied, commit not yet durable. A
            // fault here aborts mid-batch; recovery re-applies batch k
            // from the journal's boundary and the meter (commit records
            // only) never double-counts it. The flight recorder dumps its
            // ring before the error propagates, so the black box carries
            // the crashing batch's span context.
            if let Err(e) = faults.fail(FP_MIGRATION_BATCH) {
                let _ = self.obs.dump_flight(FP_MIGRATION_BATCH);
                return Err(e);
            }
            journal.append(JournalRecord::BatchCommit {
                batch: k,
                bytes: batch_bytes,
            })?;
            bytes_this_run += batch_bytes;
            applied += 1;
            #[cfg(feature = "debug-invariants")]
            {
                // The durable meter must equal the plan's estimate for the
                // committed prefix exactly — bit-identical f64 sums.
                let expect: f64 = plan.batches[..=k].iter().map(|b| b.bytes).sum();
                assert_eq!(
                    journal.state().bytes_committed,
                    expect,
                    "journaled bytes diverge from the plan estimate at batch {k}"
                );
                assert_eq!(self.partitioning, plan.boundary(k + 1));
            }
            self.debug_check_storage_bookkeeping();
        }

        let st = journal.state();
        if st.boundary() == plan.n_batches() && !st.complete {
            if self.partitioning != plan.plan.to {
                return Err(EngineError::CorruptPlan {
                    what: "applying all batches did not reach plan.to",
                });
            }
            journal.append(JournalRecord::Complete {
                bytes_moved: st.bytes_committed,
            })?;
        }

        let report = self.batched_report(
            plan,
            journal,
            bytes_this_run,
            applied,
            installs,
            drops,
            moves,
        );
        let report = BatchedMigrationReport { resumed, ..report };
        if self.obs.is_enabled() {
            if report.completed {
                self.obs.counter_inc("engine_migrations_total");
            }
            self.obs
                .counter_add("engine_migration_bytes_total", bytes_this_run);
            self.obs
                .counter_add("engine_migration_batches_total", applied as f64);
            self.obs
                .counter_add("engine_fragment_installs_total", installs as f64);
            self.obs
                .counter_add("engine_fragment_drops_total", drops as f64);
            self.obs
                .counter_add("engine_txns_rerouted_total", moves as f64);
            self.obs.span_end(
                span,
                &[
                    ("bytes_this_run", bytes_this_run.into()),
                    ("batches_applied", applied.into()),
                    ("boundary", report.boundary.into()),
                    ("completed", (report.completed as usize).into()),
                ],
            );
        }
        Ok(report)
    }

    /// Rolls a journaled migration back to `plan.from`: committed batches
    /// are undone in reverse order (re-homings reversed, installed
    /// replicas dropped, dropped replicas re-installed and re-metered),
    /// each undo journaled write-ahead like forward batches. A journal
    /// already mid-rollback resumes it; a crash between undo batches
    /// (the [`FP_MIGRATION_ROLLBACK`] fail point) is recoverable the same
    /// way as a forward crash.
    pub fn rollback_migration(
        &mut self,
        plan: &BatchedMigrationPlan,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
    ) -> Result<BatchedMigrationReport, EngineError> {
        let fingerprint = plan.fingerprint();
        let span = self.obs.span_begin(
            "rollback_migration",
            &[
                ("batches", plan.n_batches().into()),
                ("fingerprint", fingerprint.into()),
            ],
        );
        if journal.is_empty() {
            return Err(EngineError::MigrationMismatch {
                what: "rollback without a started migration",
            });
        }
        self.check_journal_matches(plan, journal, fingerprint)?;
        let st = journal.state();
        if st.complete {
            return Err(EngineError::MigrationMismatch {
                what: "cannot roll back a completed migration",
            });
        }
        if st.rolled_back {
            return Ok(self.batched_report(plan, journal, 0.0, 0, 0, 0, 0));
        }
        let resumed = st.rolling_back;
        if !st.rolling_back {
            journal.append(JournalRecord::RollbackBegin)?;
        }

        let mut bytes_this_run = 0.0f64;
        let mut applied = 0usize;
        let mut installs = 0usize;
        let mut drops = 0usize;
        let mut moves = 0usize;
        let mut touched = Vec::new();
        while journal.state().boundary() > 0 {
            let k = journal.state().boundary() - 1;
            journal.append(JournalRecord::UndoBegin { batch: k })?;
            let mut undo_bytes = 0.0f64;
            for op in plan.batches[k].ops.iter().rev() {
                let (b, i, d, m) = self.apply_op(op, false, &mut touched);
                undo_bytes += b;
                installs += i;
                drops += d;
                moves += m;
            }
            self.rebuild_touched(&mut touched);
            if self.obs.is_enabled() {
                self.obs.event(
                    "migration_batch.undone",
                    &[("batch", k.into()), ("bytes", undo_bytes.into())],
                );
            }
            if let Err(e) = faults.fail(FP_MIGRATION_ROLLBACK) {
                let _ = self.obs.dump_flight(FP_MIGRATION_ROLLBACK);
                return Err(e);
            }
            journal.append(JournalRecord::UndoCommit {
                batch: k,
                bytes: undo_bytes,
            })?;
            bytes_this_run += undo_bytes;
            applied += 1;
            #[cfg(feature = "debug-invariants")]
            assert_eq!(self.partitioning, plan.boundary(k));
            self.debug_check_storage_bookkeeping();
        }
        if self.partitioning != plan.plan.from {
            return Err(EngineError::CorruptPlan {
                what: "undoing all batches did not reach plan.from",
            });
        }
        journal.append(JournalRecord::RolledBack)?;

        let report = self.batched_report(
            plan,
            journal,
            bytes_this_run,
            applied,
            installs,
            drops,
            moves,
        );
        let report = BatchedMigrationReport { resumed, ..report };
        if self.obs.is_enabled() {
            self.obs.counter_inc("engine_migration_rollbacks_total");
            self.obs
                .counter_add("engine_migration_bytes_total", bytes_this_run);
            self.obs.span_end(
                span,
                &[
                    ("bytes_this_run", bytes_this_run.into()),
                    ("batches_undone", applied.into()),
                ],
            );
        }
        Ok(report)
    }

    /// Rebuilds a deployment at a crashed migration's durable boundary:
    /// the journal's committed batches (minus committed undos) applied to
    /// `plan.from`. Fragment materialization is deterministic, so the
    /// recovered fragment payloads are bit-identical to a deployment that
    /// reached the same boundary without crashing. Continue with
    /// [`migrate_batched`](Self::migrate_batched) (forward) or
    /// [`rollback_migration`](Self::rollback_migration).
    pub fn recover(
        instance: &'a Instance,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
    ) -> Result<Self, EngineError> {
        if let Some(fp) = journal.fingerprint() {
            if fp != plan.fingerprint() {
                return Err(EngineError::CorruptJournal {
                    what: "journal fingerprint does not match the plan".to_string(),
                });
            }
        } else if !journal.is_empty() {
            return Err(EngineError::CorruptJournal {
                what: "journal has records but no Start".to_string(),
            });
        }
        let boundary = journal.state().boundary();
        if boundary > plan.n_batches() {
            return Err(EngineError::CorruptJournal {
                what: "journal commits more batches than the plan holds".to_string(),
            });
        }
        Self::new(
            instance,
            &plan.boundary(boundary),
            plan.plan.rows_per_fragment,
        )
    }

    /// A 64-bit fingerprint of the full deployment state: the logical
    /// partitioning plus every fragment's attrs, row count and raw
    /// physical payload. Two deployments with equal fingerprints hold
    /// bit-identical storage — the equality the fault-sweep harness
    /// asserts between crashed-and-recovered and uninterrupted runs.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15_u64;
        let put = |h: &mut u64, v: u64| {
            let mut z = *h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *h = z ^ (z >> 31);
        };
        put(&mut h, self.partitioning.n_sites() as u64);
        for t in (0..self.instance.n_txns()).map(TxnId::from_index) {
            put(&mut h, self.partitioning.site_of(t).index() as u64);
        }
        for site in &self.sites {
            for frag in site.fragments.iter().flatten() {
                put(&mut h, frag.table.index() as u64);
                put(&mut h, frag.attrs.len() as u64);
                for a in &frag.attrs {
                    put(&mut h, a.index() as u64);
                }
                put(&mut h, frag.rows as u64);
                for &b in frag.payload() {
                    put(&mut h, b as u64);
                }
            }
        }
        h
    }

    /// Applies one micro-op (or its inverse) to the logical partitioning,
    /// noting the `(site, table)` fragment it changes in `touched`, and
    /// returns `(metered bytes, installs, drops, moves)`. Data-shipping
    /// ops — forward installs, undo re-installs — meter `w_a × rows`, the
    /// exact expression the plan priced. Storage catches up once per batch
    /// in [`rebuild_touched`](Self::rebuild_touched).
    fn apply_op(
        &mut self,
        op: &MigrationOp,
        forward: bool,
        touched: &mut Vec<(SiteId, TableId)>,
    ) -> (f64, usize, usize, usize) {
        let schema = self.instance.schema();
        match *op {
            MigrationOp::Install { attr, site, .. } => {
                touched.push((site, schema.table_of(attr)));
                if forward {
                    self.partitioning.add_replica(attr, site);
                    (schema.width(attr) * self.rows_per_fragment as f64, 1, 0, 0)
                } else {
                    self.partitioning.remove_replica(attr, site);
                    (0.0, 0, 1, 0)
                }
            }
            MigrationOp::Drop { attr, site } => {
                touched.push((site, schema.table_of(attr)));
                if forward {
                    self.partitioning.remove_replica(attr, site);
                    (0.0, 0, 1, 0)
                } else {
                    self.partitioning.add_replica(attr, site);
                    (schema.width(attr) * self.rows_per_fragment as f64, 1, 0, 0)
                }
            }
            MigrationOp::MoveTxn { txn, from, to } => {
                self.partitioning
                    .move_txn(txn, if forward { to } else { from });
                (0.0, 0, 0, 1)
            }
        }
    }

    /// Rebuilds each fragment a batch touched once, from the logical
    /// partitioning the whole batch produced, and empties `touched`. A
    /// fragment depends only on the attributes placed on it, so its
    /// payload is the one an op-by-op rebuild would leave.
    fn rebuild_touched(&mut self, touched: &mut Vec<(SiteId, TableId)>) {
        touched.sort_unstable();
        touched.dedup();
        for &(site, table) in touched.iter() {
            self.rebuild_fragment(site, table);
        }
        touched.clear();
    }

    /// Re-derives the `(site, table)` fragment from the current logical
    /// partitioning. `Fragment::new` fills deterministically, so recovery
    /// reaches bit-identical payloads however many times a batch replays.
    fn rebuild_fragment(&mut self, site: SiteId, table: TableId) {
        let schema = self.instance.schema();
        let attrs: Vec<AttrId> = schema
            .table_attrs(table)
            .map(AttrId::from_index)
            .filter(|&a| self.partitioning.has_attr(a, site))
            .collect();
        self.sites[site.index()].fragments[table.index()] = if attrs.is_empty() {
            None
        } else {
            let width: f64 = attrs.iter().map(|&a| schema.width(a)).sum();
            Some(Fragment::new(table, attrs, width, self.rows_per_fragment))
        };
    }

    /// Shared resume-path validation: the journal must belong to `plan`
    /// and the deployment must sit exactly at its durable boundary.
    fn check_journal_matches(
        &self,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
        fingerprint: u64,
    ) -> Result<(), EngineError> {
        match journal.fingerprint() {
            Some(fp) if fp == fingerprint => {}
            Some(_) => {
                return Err(EngineError::CorruptJournal {
                    what: "journal fingerprint does not match the plan".to_string(),
                })
            }
            None => {
                return Err(EngineError::CorruptJournal {
                    what: "journal has records but no Start".to_string(),
                })
            }
        }
        let boundary = journal.state().boundary();
        if boundary > plan.n_batches() {
            return Err(EngineError::CorruptJournal {
                what: "journal commits more batches than the plan holds".to_string(),
            });
        }
        if self.partitioning != plan.boundary(boundary) {
            return Err(EngineError::MigrationMismatch {
                what: "deployment is not at the journal's batch boundary (recover() first)",
            });
        }
        Ok(())
    }

    /// Assembles a report from the journal's durable state.
    #[allow(clippy::too_many_arguments)]
    fn batched_report(
        &self,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
        bytes_this_run: f64,
        batches_applied: usize,
        installs: usize,
        drops: usize,
        txns_rerouted: usize,
    ) -> BatchedMigrationReport {
        let st = journal.state();
        BatchedMigrationReport {
            bytes_moved: if st.rolling_back || st.rolled_back {
                st.bytes_undone
            } else {
                st.bytes_committed
            },
            bytes_this_run,
            batches_applied,
            boundary: st.boundary(),
            batches_total: plan.n_batches(),
            installs,
            drops,
            txns_rerouted,
            peak_transient_bytes: plan.peak_transient_bytes,
            resumed: true,
            completed: st.complete,
            rolled_back: st.rolled_back,
        }
    }

    /// `debug-invariants` self-check: after a migration, the physical
    /// fragments must agree exactly with the logical partitioning —
    /// every `(site, table)` fraction holds precisely the attributes
    /// `y` places there, with the matching width and row count, and no
    /// empty fragments linger. Compiles to nothing without the feature.
    #[cfg(feature = "debug-invariants")]
    fn debug_check_storage_bookkeeping(&self) {
        let schema = self.instance.schema();
        for site in &self.sites {
            for t in 0..self.instance.n_tables() {
                let table = vpart_model::TableId::from_index(t);
                let expected: Vec<AttrId> = schema
                    .table_attrs(table)
                    .map(AttrId::from_index)
                    .filter(|&a| self.partitioning.has_attr(a, site.id))
                    .collect();
                match &site.fragments[t] {
                    None => assert!(
                        expected.is_empty(),
                        "site {:?} table {:?}: partitioning places {:?} but no fragment exists",
                        site.id,
                        table,
                        expected
                    ),
                    Some(f) => {
                        assert!(
                            !f.attrs.is_empty(),
                            "site {:?} table {:?}: empty fragment not pruned",
                            site.id,
                            table
                        );
                        assert_eq!(
                            f.attrs, expected,
                            "site {:?} table {:?}: fragment attrs diverge from partitioning",
                            site.id, table
                        );
                        let width: f64 = expected.iter().map(|&a| schema.width(a)).sum();
                        assert!(
                            (f.width - width).abs() <= 1e-9 * (1.0 + width),
                            "site {:?} table {:?}: fragment width {} != schema width {width}",
                            site.id,
                            table,
                            f.width
                        );
                        assert_eq!(
                            f.rows, self.rows_per_fragment,
                            "site {:?} table {:?}: fragment row count drifted",
                            site.id, table
                        );
                    }
                }
            }
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn debug_check_storage_bookkeeping(&self) {}

    /// Executes `executions` in order, metering bytes per the H-store-like
    /// semantics:
    ///
    /// * reads fetch the executing site's whole fraction rows of every
    ///   touched table (row-store quantum),
    /// * writes update the fraction rows of touched tables on **every**
    ///   replica site (the paper's all-attribute write accounting),
    /// * updated (α) attributes are shipped to every replica site other
    ///   than the executing one.
    pub fn execute(&mut self, executions: &[TxnId]) -> Result<ExecutionReport, EngineError> {
        let mut per_site = vec![SiteMetrics::default(); self.sites.len()];
        let mut transfer = 0.0f64;
        let mut single_sited = 0usize;
        let mut queries = 0usize;
        let mut rows_touched = 0usize;
        let mut checksum = 0u64;

        for (exec_idx, &txn) in executions.iter().enumerate() {
            let home = self.partitioning.site_of(txn);
            let mut execution_transferred = false;
            for &qid in &self.instance.workload().txn(txn).queries {
                let q = self.instance.workload().query(qid);
                queries += 1;
                let reps = q.frequency.round().max(1.0) as usize;
                for rep in 0..reps {
                    let row_base = exec_idx.wrapping_mul(31).wrapping_add(rep * 7);
                    if q.kind.is_write() {
                        for &(table, n) in &q.table_rows {
                            let n_phys = n.round().max(1.0) as usize;
                            for (si, site) in self.sites.iter_mut().enumerate() {
                                if let Some(frag) = site.fragment_mut(table) {
                                    per_site[si].bytes_written += frag.width * n;
                                    for r in 0..n_phys {
                                        frag.write_row(row_base + r, (exec_idx % 251) as u8);
                                        rows_touched += 1;
                                    }
                                }
                            }
                        }
                        for &a in &q.attrs {
                            let n = q.rows_for_table(self.instance.schema().table_of(a));
                            let w = self.instance.schema().width(a);
                            for s in self.partitioning.attr_sites(a) {
                                if s != home {
                                    transfer += w * n;
                                    execution_transferred = true;
                                }
                            }
                        }
                    } else {
                        // Single-sitedness: every read attribute must be
                        // present on the home site.
                        for &a in &q.attrs {
                            if !self.partitioning.has_attr(a, home) {
                                return Err(EngineError::NotSingleSited {
                                    txn,
                                    attr: a,
                                    site: home,
                                });
                            }
                        }
                        for &(table, n) in &q.table_rows {
                            let n_phys = n.round().max(1.0) as usize;
                            let site = &self.sites[home.index()];
                            if let Some(frag) = site.fragment(table) {
                                per_site[home.index()].bytes_read += frag.width * n;
                                for r in 0..n_phys {
                                    let row = frag.read_row(row_base + r);
                                    checksum = checksum
                                        .wrapping_mul(1099511628211)
                                        .wrapping_add(row[0] as u64);
                                    rows_touched += 1;
                                }
                            }
                        }
                    }
                }
            }
            if !execution_transferred {
                single_sited += 1;
            }
        }

        Ok(ExecutionReport {
            per_site,
            transfer_bytes: transfer,
            executions: executions.len(),
            single_sited_executions: single_sited,
            queries_executed: queries,
            rows_touched,
            checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{MigrationPlan, Schema, Workload};

    /// R{a(4), b(8)}: T0 reads a (1 row); T1 writes b (2 rows).
    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]))
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("q1")
                    .access(&[AttrId(1)])
                    .rows(vpart_model::TableId(0), 2.0),
            )
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("eng", schema, wb.build().unwrap()).unwrap()
    }

    /// Runs `plan` to completion through a fresh journal, batched at
    /// `budget` install bytes per batch. An infinite budget applies the
    /// plan atomically, as one batch.
    fn migrate(
        dep: &mut Deployment<'_>,
        ins: &Instance,
        plan: &MigrationPlan,
        budget: f64,
    ) -> Result<BatchedMigrationReport, EngineError> {
        let batched = plan.batched(ins, budget)?;
        dep.migrate_batched(
            &batched,
            &mut MigrationJournal::new(),
            &mut FaultInjector::disabled(),
        )
    }

    #[test]
    fn single_site_execution_meters_by_hand() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let mut dep = Deployment::new(&ins, &part, 16).unwrap();
        let report = dep.execute(&[TxnId(0), TxnId(1)]).unwrap();
        // Read: whole fraction (a+b = 12 bytes) × 1 row.
        let t = report.totals();
        assert_eq!(t.bytes_read, 12.0);
        // Write: fraction width 12 × 2 rows on the single replica.
        assert_eq!(t.bytes_written, 24.0);
        assert_eq!(report.transfer_bytes, 0.0);
        assert_eq!(report.single_sited_executions, 2);
        assert_eq!(report.measured_objective4(8.0), 36.0);
        assert!(report.rows_touched >= 3);
    }

    #[test]
    fn replication_generates_transfer() {
        let ins = instance();
        let mut part = Partitioning::single_site(&ins, 2).unwrap();
        part.add_replica(AttrId(1), SiteId(1)); // b replicated; T1 home = s0
        let mut dep = Deployment::new(&ins, &part, 8).unwrap();
        let report = dep.execute(&[TxnId(0), TxnId(1)]).unwrap();
        // Transfer: b (8 bytes) × 2 rows to the remote replica.
        assert_eq!(report.transfer_bytes, 16.0);
        // Writes hit both fragments: site0 fraction 12 × 2 + site1 (b only,
        // width 8) × 2.
        let t = report.totals();
        assert_eq!(t.bytes_written, 24.0 + 16.0);
        assert_eq!(report.single_sited_executions, 1);
        assert!(report.single_sited_ratio() < 1.0);
    }

    #[test]
    fn rejects_non_single_sited_deployment() {
        let ins = instance();
        // T0 on site 1, but `a` only on site 0 → invalid at deploy time.
        let mut y = vpart_model::BitMatrix::new(2, 2);
        y.set(0, 0);
        y.set(1, 0);
        let part = Partitioning::from_parts(2, vec![SiteId(1), SiteId(0)], y).unwrap();
        assert!(matches!(
            Deployment::new(&ins, &part, 4),
            Err(EngineError::Model(_))
        ));
    }

    #[test]
    fn deterministic_checksum() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let executions = [TxnId(0), TxnId(1), TxnId(0), TxnId(1)];
        let r1 = Deployment::new(&ins, &part, 16)
            .unwrap()
            .execute(&executions)
            .unwrap();
        let r2 = Deployment::new(&ins, &part, 16)
            .unwrap()
            .execute(&executions)
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn apply_migration_moves_and_meters_exactly() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        // Replicate b to site 1 and re-home T1 there.
        let mut to = from.clone();
        to.add_replica(AttrId(1), SiteId(1));
        to.move_txn(TxnId(1), SiteId(1));
        let plan = MigrationPlan::between(&ins, &from, &to, 16).unwrap();
        assert_eq!(plan.estimated_bytes(), 8.0 * 16.0);

        let mut dep = Deployment::new(&ins, &from, 16).unwrap();
        let before = dep.stored_bytes();
        let report = migrate(&mut dep, &ins, &plan, f64::INFINITY).unwrap();
        assert!(report.completed);
        assert_eq!(report.bytes_moved, plan.estimated_bytes());
        assert_eq!(report.installs, 1);
        assert_eq!(report.drops, 0);
        assert_eq!(report.txns_rerouted, 1);
        assert_eq!(dep.partitioning(), &to);
        assert!(dep.stored_bytes() > before, "the replica is materialized");
        // The migrated deployment still executes.
        dep.execute(&[TxnId(0), TxnId(1)]).unwrap();
    }

    #[test]
    fn apply_migration_drops_shrink_fragments() {
        let ins = instance();
        let mut from = Partitioning::single_site(&ins, 2).unwrap();
        from.add_replica(AttrId(1), SiteId(1));
        let to = Partitioning::single_site(&ins, 2).unwrap();
        let plan = MigrationPlan::between(&ins, &from, &to, 8).unwrap();
        assert_eq!(plan.estimated_bytes(), 0.0, "drops ship nothing");
        let mut dep = Deployment::new(&ins, &from, 8).unwrap();
        let before = dep.stored_bytes();
        let report = migrate(&mut dep, &ins, &plan, f64::INFINITY).unwrap();
        assert_eq!(report.bytes_moved, 0.0);
        assert_eq!(report.drops, 1);
        assert!(dep.stored_bytes() < before, "the replica is deleted");
        assert!(dep.sites()[1].fragment(vpart_model::TableId(0)).is_none());
    }

    /// With `debug-invariants` on, a chain of migrations keeps the
    /// physical fragments in lockstep with the logical partitioning —
    /// the self-check runs after every committed batch.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn migration_chain_passes_the_bookkeeping_self_check() {
        let ins = instance();
        let base = Partitioning::single_site(&ins, 2).unwrap();
        let mut dep = Deployment::new(&ins, &base, 8).unwrap();
        let mut layouts = vec![base.clone()];
        let mut grown = base.clone();
        grown.add_replica(AttrId(1), SiteId(1));
        layouts.push(grown.clone());
        grown.move_txn(TxnId(1), SiteId(1));
        layouts.push(grown);
        layouts.push(base); // and all the way back
        for pair in layouts.windows(2) {
            let plan = MigrationPlan::between(&ins, &pair[0], &pair[1], 8).unwrap();
            migrate(&mut dep, &ins, &plan, f64::INFINITY).unwrap();
            assert_eq!(dep.partitioning(), &pair[1]);
        }
    }

    #[test]
    fn apply_migration_rejects_mismatched_and_corrupt_plans() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        let mut to = from.clone();
        to.add_replica(AttrId(0), SiteId(1));
        let plan = MigrationPlan::between(&ins, &from, &to, 16).unwrap();

        // Wrong starting layout.
        let mut dep = Deployment::new(&ins, &to, 16).unwrap();
        assert!(matches!(
            migrate(&mut dep, &ins, &plan, f64::INFINITY),
            Err(EngineError::MigrationMismatch { .. })
        ));
        // Wrong row count.
        let mut dep = Deployment::new(&ins, &from, 32).unwrap();
        assert!(matches!(
            migrate(&mut dep, &ins, &plan, f64::INFINITY),
            Err(EngineError::MigrationMismatch { .. })
        ));
        // Tampered batches no longer produce `to`.
        let mut bad = plan.batched(&ins, f64::INFINITY).unwrap();
        bad.batches.clear();
        let mut dep = Deployment::new(&ins, &from, 16).unwrap();
        let pristine = dep.state_fingerprint();
        let mut journal = MigrationJournal::new();
        assert!(matches!(
            dep.migrate_batched(&bad, &mut journal, &mut FaultInjector::disabled()),
            Err(EngineError::CorruptPlan { .. })
        ));
        // Rejected plans leave the deployment and the journal untouched.
        assert_eq!(dep.partitioning(), &from);
        assert_eq!(dep.state_fingerprint(), pristine);
        assert!(journal.is_empty());
    }

    #[test]
    fn stored_bytes_scale_with_replication() {
        let ins = instance();
        let single = Partitioning::single_site(&ins, 2).unwrap();
        let dep1 = Deployment::new(&ins, &single, 100).unwrap();
        let mut replicated = single.clone();
        replicated.add_replica(AttrId(0), SiteId(1));
        replicated.add_replica(AttrId(1), SiteId(1));
        let dep2 = Deployment::new(&ins, &replicated, 100).unwrap();
        assert!(dep2.stored_bytes() > dep1.stored_bytes());
    }

    /// Everything relocates from site 0 to site 1 — a migration the
    /// batcher must split across several batches at a small budget.
    fn relocation_pair(ins: &Instance) -> (Partitioning, Partitioning) {
        let from = Partitioning::single_site(ins, 2).unwrap();
        let mut to = from.clone();
        to.add_replica(AttrId(0), SiteId(1));
        to.add_replica(AttrId(1), SiteId(1));
        to.move_txn(TxnId(0), SiteId(1));
        to.move_txn(TxnId(1), SiteId(1));
        to.remove_replica(AttrId(0), SiteId(0));
        to.remove_replica(AttrId(1), SiteId(0));
        (from, to)
    }

    fn relocation_plan(ins: &Instance) -> vpart_model::BatchedMigrationPlan {
        let (from, to) = relocation_pair(ins);
        MigrationPlan::between(ins, &from, &to, 16)
            .unwrap()
            .batched(ins, 64.0)
            .unwrap()
    }

    /// Many batches reach the storage one atomic batch does, which is the
    /// storage of a deployment built at `plan.to`.
    #[test]
    fn batched_migration_matches_atomic_apply() {
        let ins = instance();
        let (from, to) = relocation_pair(&ins);
        let plan = MigrationPlan::between(&ins, &from, &to, 16).unwrap();
        let batched = plan.batched(&ins, 64.0).unwrap();
        assert!(batched.n_batches() >= 2, "budget should split the plan");

        let mut atomic = Deployment::new(&ins, &from, 16).unwrap();
        let atomic_report = migrate(&mut atomic, &ins, &plan, f64::INFINITY).unwrap();
        assert_eq!(atomic_report.batches_total, 1);

        let mut dep = Deployment::new(&ins, &from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let report = dep
            .migrate_batched(&batched, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(report.completed && !report.resumed);
        assert_eq!(report.boundary, batched.n_batches());
        assert_eq!(report.bytes_moved, atomic_report.bytes_moved);
        assert_eq!(report.bytes_moved, plan.estimated_bytes());
        assert_eq!(dep.partitioning(), &to);
        let fresh = Deployment::new(&ins, &to, 16).unwrap().state_fingerprint();
        assert_eq!(dep.state_fingerprint(), atomic.state_fingerprint());
        assert_eq!(
            dep.state_fingerprint(),
            fresh,
            "a migrated deployment must hold the storage of one built at plan.to"
        );
    }

    /// Crash at every batch boundary (the window after ops hit storage
    /// but before the commit is durable), recover from the journal and
    /// resume: state and byte meter end bit-identical to a run that
    /// never crashed.
    #[test]
    fn crash_at_every_boundary_recovers_bit_identically() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let n = plan.n_batches();

        let mut clean = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut clean_journal = MigrationJournal::new();
        clean
            .migrate_batched(&plan, &mut clean_journal, &mut FaultInjector::disabled())
            .unwrap();
        let clean_fp = clean.state_fingerprint();
        let clean_bytes = clean_journal.state().bytes_committed;

        for k in 1..=n {
            let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
            let mut journal = MigrationJournal::new();
            let mut faults = FaultInjector::new(1);
            faults
                .arm_spec(&format!("migration.batch:nth={k}"))
                .unwrap();
            let err = dep
                .migrate_batched(&plan, &mut journal, &mut faults)
                .unwrap_err();
            assert!(matches!(err, EngineError::Injected { .. }));
            assert_eq!(
                journal.state().boundary(),
                k - 1,
                "commit k never became durable"
            );

            // The journal survives as text; the crashed deployment does not.
            let journal_text = journal.to_jsonl();
            let mut journal = MigrationJournal::from_jsonl(&journal_text).unwrap();
            let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
            let report = dep
                .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
                .unwrap();
            assert!(report.resumed && report.completed);
            assert_eq!(dep.state_fingerprint(), clean_fp, "crash at batch {k}");
            assert_eq!(journal.state().bytes_committed, clean_bytes);
            assert_eq!(report.bytes_moved, clean_bytes, "meter never double-counts");
        }
    }

    /// Storage catches up once per batch, before the fault point: a crash
    /// after forward batch `k` (or after undoing batch `k`) leaves exactly
    /// the fragments a fresh deployment of that boundary materializes.
    #[test]
    fn storage_at_every_fault_point_matches_a_fresh_boundary_deployment() {
        let ins = instance();
        let (from, to) = relocation_pair(&ins);
        let plan = MigrationPlan::between(&ins, &from, &to, 16)
            .unwrap()
            .batched(&ins, 1.0)
            .unwrap();
        let n = plan.n_batches();
        assert!(n >= 2);
        let fresh = |k: usize| {
            Deployment::new(&ins, &plan.boundary(k), 16)
                .unwrap()
                .state_fingerprint()
        };
        for k in 1..=n {
            let mut dep = Deployment::new(&ins, &from, 16).unwrap();
            let mut journal = MigrationJournal::new();
            let mut faults = FaultInjector::new(1);
            faults
                .arm_spec(&format!("migration.batch:nth={k}"))
                .unwrap();
            dep.migrate_batched(&plan, &mut journal, &mut faults)
                .unwrap_err();
            assert_eq!(dep.state_fingerprint(), fresh(k), "forward batch {k}");
        }
        for j in 1..=n {
            let mut dep = Deployment::new(&ins, &from, 16).unwrap();
            let mut journal = MigrationJournal::new();
            let mut faults = FaultInjector::new(1);
            faults
                .arm_spec(&format!("migration.rollback:nth={j}"))
                .unwrap();
            dep.migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
                .unwrap();
            // A completed journal cannot roll back; replay it up to the
            // last commit instead.
            let mut open = MigrationJournal::new();
            for rec in &journal.records()[..journal.records().len() - 1] {
                open.append(*rec).unwrap();
            }
            dep.rollback_migration(&plan, &mut open, &mut faults)
                .unwrap_err();
            assert_eq!(dep.state_fingerprint(), fresh(n - j), "undo {j}");
        }
    }

    #[test]
    fn rollback_after_crash_restores_the_source_exactly() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let pristine_fp = Deployment::new(&ins, &plan.plan.from, 16)
            .unwrap()
            .state_fingerprint();

        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let mut faults = FaultInjector::new(2);
        faults.arm_spec("migration.batch:nth=2").unwrap();
        dep.migrate_batched(&plan, &mut journal, &mut faults)
            .unwrap_err();

        let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
        let report = dep
            .rollback_migration(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(report.rolled_back);
        assert_eq!(dep.partitioning(), &plan.plan.from);
        assert_eq!(dep.state_fingerprint(), pristine_fp);
        // A rolled-back journal is terminal for both directions.
        assert!(dep
            .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
            .is_err());
        let again = dep
            .rollback_migration(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert_eq!(again.batches_applied, 0, "rollback is idempotent");
    }

    /// A crash during rollback resumes the rollback the same way.
    #[test]
    fn rollback_crash_resumes_to_source() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let mut faults = FaultInjector::new(3);
        faults
            .arm_spec(&format!("migration.batch:nth={}", plan.n_batches()))
            .unwrap();
        faults.arm_spec("migration.rollback:nth=1").unwrap();
        dep.migrate_batched(&plan, &mut journal, &mut faults)
            .unwrap_err();

        let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
        dep.rollback_migration(&plan, &mut journal, &mut faults)
            .unwrap_err();

        let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
        let report = dep
            .rollback_migration(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(report.rolled_back && report.resumed);
        assert_eq!(dep.partitioning(), &plan.plan.from);
    }

    #[test]
    fn rate_limited_batches_step_to_completion() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let mut faults = FaultInjector::disabled();
        let mut steps = 0usize;
        let mut total = 0.0f64;
        loop {
            let r = dep
                .migrate_batches(&plan, &mut journal, &mut faults, 1)
                .unwrap();
            total += r.bytes_this_run;
            steps += 1;
            if r.completed {
                break;
            }
            assert_eq!(r.boundary, steps, "one batch per call");
        }
        assert_eq!(steps, plan.n_batches());
        assert_eq!(total, plan.estimated_bytes());
        assert_eq!(dep.partitioning(), &plan.plan.to);
        // Re-running a complete migration is a observable no-op.
        let again = dep
            .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(again.completed && again.resumed);
        assert_eq!(again.batches_applied, 0);
        assert_eq!(again.bytes_this_run, 0.0);
    }

    #[test]
    fn journal_from_another_plan_is_rejected() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        dep.migrate_batches(&plan, &mut journal, &mut FaultInjector::disabled(), 1)
            .unwrap();

        // Same endpoints, different budget ⇒ different fingerprint.
        let other = plan.plan.clone().batched(&ins, 1e9).unwrap();
        assert_ne!(other.fingerprint(), plan.fingerprint());
        assert!(matches!(
            dep.migrate_batched(&other, &mut journal, &mut FaultInjector::disabled()),
            Err(EngineError::CorruptJournal { .. })
        ));
        assert!(matches!(
            Deployment::recover(&ins, &other, &journal),
            Err(EngineError::CorruptJournal { .. })
        ));
        // A deployment that drifted off the journal's boundary must be
        // rebuilt with recover() before resuming.
        let mut stale = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let stale_err = stale
            .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap_err();
        assert!(matches!(stale_err, EngineError::MigrationMismatch { .. }));
    }
}
