//! Deployment and journaled migration with byte-exact metering.

use crate::faults::{FaultInjector, FP_MIGRATION_BATCH, FP_MIGRATION_ROLLBACK};
use crate::journal::{JournalRecord, MigrationJournal};
use crate::replay::mix;
use crate::storage::Store;
use std::fmt;
use vpart_model::{
    BatchedMigrationPlan, Instance, MigrationOp, Partitioning, SiteId, TableId, TxnId,
};
use vpart_obs::Obs;

/// Errors raised by the execution engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The partitioning failed validation against the instance.
    Model(vpart_model::ModelError),
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

/// What one call of a migration walk did.
#[derive(Debug, Default)]
struct Tally {
    /// Bytes committed (or undone) in this call.
    bytes: f64,
    /// Batches committed (or undone) in this call.
    batches: usize,
    installs: usize,
    drops: usize,
    moves: usize,
    /// The `(site, table)` fractions the current batch changed.
    touched: Vec<(SiteId, TableId)>,
}

/// Assembles a report from the journal's durable state and this call's
/// tally.
fn report(
    plan: &BatchedMigrationPlan,
    journal: &MigrationJournal,
    tally: &Tally,
    resumed: bool,
) -> BatchedMigrationReport {
    let st = journal.state();
    BatchedMigrationReport {
        bytes_moved: if st.rolling_back || st.rolled_back {
            st.bytes_undone
        } else {
            st.bytes_committed
        },
        bytes_this_run: tally.bytes,
        batches_applied: tally.batches,
        boundary: st.boundary(),
        batches_total: plan.n_batches(),
        installs: tally.installs,
        drops: tally.drops,
        txns_rerouted: tally.moves,
        peak_transient_bytes: plan.peak_transient_bytes,
        resumed,
        completed: st.complete,
        rolled_back: st.rolled_back,
    }
}

/// The batch boundary `journal` has durably reached, once it is shown to
/// belong to the plan with `fingerprint`.
fn durable_boundary(
    plan: &BatchedMigrationPlan,
    journal: &MigrationJournal,
    fingerprint: u64,
) -> Result<usize, EngineError> {
    let corrupt = |what: &str| EngineError::CorruptJournal {
        what: what.to_string(),
    };
    match journal.fingerprint() {
        Some(fp) if fp != fingerprint => {
            return Err(corrupt("journal fingerprint does not match the plan"))
        }
        None if !journal.is_empty() => return Err(corrupt("journal has records but no Start")),
        _ => {}
    }
    let boundary = journal.state().boundary();
    if boundary > plan.n_batches() {
        return Err(corrupt("journal commits more batches than the plan holds"));
    }
    Ok(boundary)
}

/// A partitioning deployed as row-major storage that journaled
/// migrations move between layouts.
///
/// Its storage is a one-shard [`ReplayDeployment`](crate::ReplayDeployment)
/// store: the fraction of every `(site, table)` pair the partitioning
/// fills, at physical widths. Metering a workload is replay's job; a
/// deployment meters the bytes its migrations ship.
#[derive(Debug, Clone)]
pub struct Deployment<'a> {
    instance: &'a Instance,
    partitioning: Partitioning,
    store: Store,
    obs: Obs,
}

impl<'a> Deployment<'a> {
    /// Validates `partitioning` and materializes one fraction per
    /// `(site, table)` pair with `rows_per_fragment` rows each.
    pub fn new(
        instance: &'a Instance,
        partitioning: &Partitioning,
        rows_per_fragment: usize,
    ) -> Result<Self, EngineError> {
        partitioning.validate(instance, false)?;
        Ok(Self {
            instance,
            partitioning: partitioning.clone(),
            store: Store::new(instance.schema(), partitioning, rows_per_fragment, 1),
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
        self.store.rows_per_table
    }

    /// Total physically materialized bytes across sites.
    pub fn stored_bytes(&self) -> usize {
        self.store.stored_bytes()
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
                ("rows_per_fragment", self.rows_per_fragment().into()),
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
                return Ok(report(plan, journal, &Tally::default(), true));
            }
        } else {
            if plan.plan.from != self.partitioning {
                return Err(EngineError::MigrationMismatch {
                    what: "plan.from is not the deployed partitioning",
                });
            }
            if plan.plan.rows_per_fragment.max(1) != self.rows_per_fragment() {
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
                rows_per_fragment: self.rows_per_fragment(),
            })?;
        }

        let mut tally = Tally::default();
        for k in journal.state().boundary()..plan.n_batches() {
            if tally.batches >= max_batches {
                break;
            }
            self.run_batch(plan, k, true, journal, faults, &mut tally)?;
            // The durable meter must equal the plan's estimate for the
            // committed prefix exactly — bit-identical f64 sums.
            #[cfg(feature = "debug-invariants")]
            assert_eq!(
                journal.state().bytes_committed,
                plan.batches[..=k].iter().map(|b| b.bytes).sum::<f64>(),
                "journaled bytes diverge from the plan estimate at batch {k}"
            );
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

        let report = report(plan, journal, &tally, resumed);
        if self.obs.is_enabled() {
            if report.completed {
                self.obs.counter_inc("engine_migrations_total");
            }
            self.obs
                .counter_add("engine_migration_bytes_total", tally.bytes);
            self.obs
                .counter_add("engine_migration_batches_total", tally.batches as f64);
            self.obs
                .counter_add("engine_fragment_installs_total", tally.installs as f64);
            self.obs
                .counter_add("engine_fragment_drops_total", tally.drops as f64);
            self.obs
                .counter_add("engine_txns_rerouted_total", tally.moves as f64);
            self.obs.span_end(
                span,
                &[
                    ("bytes_this_run", tally.bytes.into()),
                    ("batches_applied", tally.batches.into()),
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
            return Ok(report(plan, journal, &Tally::default(), true));
        }
        let resumed = st.rolling_back;
        if !st.rolling_back {
            journal.append(JournalRecord::RollbackBegin)?;
        }

        let mut tally = Tally::default();
        while let Some(k) = journal.state().boundary().checked_sub(1) {
            self.run_batch(plan, k, false, journal, faults, &mut tally)?;
        }
        if self.partitioning != plan.plan.from {
            return Err(EngineError::CorruptPlan {
                what: "undoing all batches did not reach plan.from",
            });
        }
        journal.append(JournalRecord::RolledBack)?;

        let report = report(plan, journal, &tally, resumed);
        if self.obs.is_enabled() {
            self.obs.counter_inc("engine_migration_rollbacks_total");
            self.obs
                .counter_add("engine_migration_bytes_total", tally.bytes);
            self.obs.span_end(
                span,
                &[
                    ("bytes_this_run", tally.bytes.into()),
                    ("batches_undone", tally.batches.into()),
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
        let boundary = durable_boundary(plan, journal, plan.fingerprint())?;
        Self::new(
            instance,
            &plan.boundary(boundary),
            plan.plan.rows_per_fragment,
        )
    }

    /// A 64-bit fingerprint of the full deployment state: the logical
    /// partitioning plus every fraction's site, attrs, rows and raw
    /// physical payload. Two deployments with equal fingerprints hold
    /// bit-identical storage — the equality the fault-sweep harness
    /// asserts between crashed-and-recovered and uninterrupted runs.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = mix(self.partitioning.n_sites() as u64);
        for t in (0..self.instance.n_txns()).map(TxnId::from_index) {
            h = mix(h ^ self.partitioning.site_of(t).index() as u64);
        }
        self.store.fingerprint(&mut h);
        h
    }

    /// Runs batch `k` of `plan` through the journal: its begin record,
    /// its ops (or their inverses, in reverse order) on the logical
    /// partitioning, one storage rebuild per touched `(site, table)`
    /// fraction, then its commit record with the metered bytes.
    ///
    /// The fault point fires between storage and commit — the crash
    /// window. A fault there aborts mid-batch; recovery re-applies batch
    /// `k` from the journal's boundary and the meter (commit records
    /// only) never double-counts it. The flight recorder dumps its ring
    /// before the error propagates, so the black box carries the crashing
    /// batch's span context.
    fn run_batch(
        &mut self,
        plan: &BatchedMigrationPlan,
        k: usize,
        forward: bool,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
        tally: &mut Tally,
    ) -> Result<(), EngineError> {
        let (event, point) = if forward {
            journal.append(JournalRecord::BatchBegin { batch: k })?;
            ("migration_batch.applied", FP_MIGRATION_BATCH)
        } else {
            journal.append(JournalRecord::UndoBegin { batch: k })?;
            ("migration_batch.undone", FP_MIGRATION_ROLLBACK)
        };
        let mut bytes = 0.0f64;
        let mut apply = |op| bytes += self.apply_op(op, forward, tally);
        let ops = &plan.batches[k].ops;
        if forward {
            ops.iter().for_each(&mut apply);
        } else {
            ops.iter().rev().for_each(&mut apply);
        }
        // Storage catches up once per batch: a fraction depends only on
        // the attributes placed on it, and its fill is deterministic, so
        // its payload is the one an op-by-op rebuild would leave.
        tally.touched.sort_unstable();
        tally.touched.dedup();
        for (site, table) in tally.touched.drain(..) {
            self.store
                .rebuild(self.instance.schema(), &self.partitioning, site, table);
        }
        if self.obs.is_enabled() {
            self.obs
                .event(event, &[("batch", k.into()), ("bytes", bytes.into())]);
        }
        if let Err(e) = faults.fail(point) {
            let _ = self.obs.dump_flight(point);
            return Err(e);
        }
        journal.append(if forward {
            JournalRecord::BatchCommit { batch: k, bytes }
        } else {
            JournalRecord::UndoCommit { batch: k, bytes }
        })?;
        tally.bytes += bytes;
        tally.batches += 1;
        #[cfg(feature = "debug-invariants")]
        assert_eq!(self.partitioning, plan.boundary(journal.state().boundary()));
        self.debug_check_storage_bookkeeping();
        Ok(())
    }

    /// Applies one micro-op (or its inverse) to the logical partitioning,
    /// counting it and the `(site, table)` fraction it changes in `tally`,
    /// and returns its metered bytes. Data-shipping
    /// ops — forward installs, undo re-installs — meter `w_a × rows`, the
    /// exact expression the plan priced.
    fn apply_op(&mut self, op: &MigrationOp, forward: bool, tally: &mut Tally) -> f64 {
        let schema = self.instance.schema();
        let (attr, site, install) = match *op {
            MigrationOp::Install { attr, site, .. } => (attr, site, forward),
            MigrationOp::Drop { attr, site } => (attr, site, !forward),
            MigrationOp::MoveTxn { txn, from, to } => {
                self.partitioning
                    .move_txn(txn, if forward { to } else { from });
                tally.moves += 1;
                return 0.0;
            }
        };
        tally.touched.push((site, schema.table_of(attr)));
        if install {
            self.partitioning.add_replica(attr, site);
            tally.installs += 1;
            schema.width(attr) * self.rows_per_fragment() as f64
        } else {
            self.partitioning.remove_replica(attr, site);
            tally.drops += 1;
            0.0
        }
    }

    /// Shared resume-path validation: the journal must belong to `plan`
    /// and the deployment must sit exactly at its durable boundary.
    fn check_journal_matches(
        &self,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
        fingerprint: u64,
    ) -> Result<(), EngineError> {
        let boundary = durable_boundary(plan, journal, fingerprint)?;
        if self.partitioning != plan.boundary(boundary) {
            return Err(EngineError::MigrationMismatch {
                what: "deployment is not at the journal's batch boundary (recover() first)",
            });
        }
        Ok(())
    }

    /// `debug-invariants` self-check: after a migration batch, the
    /// physical fractions must agree exactly with the logical
    /// partitioning — every `(site, table)` fraction holds precisely the
    /// attributes `y` places there, with the row width and row count a
    /// fresh build gives it, and no empty fractions linger. Compiles to
    /// nothing without the feature.
    #[cfg(feature = "debug-invariants")]
    fn debug_check_storage_bookkeeping(&self) {
        let schema = self.instance.schema();
        let fresh = Store::new(schema, &self.partitioning, self.rows_per_fragment(), 1);
        let shape = |f: &Option<crate::RowSegment>| {
            f.as_ref().map(|f| (f.attrs.clone(), f.rows, f.row_width()))
        };
        let sites = (self.store.shards.iter().zip(&fresh.shards))
            .flat_map(|(held, placed)| held.sites.iter().zip(&placed.sites));
        for (s, (held, placed)) in sites.enumerate() {
            let tables = held.fragments.iter().zip(&placed.fragments);
            for (t, (held, placed)) in tables.enumerate() {
                assert_eq!(
                    shape(held),
                    shape(placed),
                    "site {s} table {t}: fraction (attrs, rows, row width) diverges from the partitioning"
                );
            }
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn debug_check_storage_bookkeeping(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{AttrId, MigrationPlan, Schema, Workload};

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
        let fresh = Deployment::new(&ins, &to, 16).unwrap();
        assert_eq!(dep.state_fingerprint(), fresh.state_fingerprint());
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
        let fresh = Deployment::new(&ins, &to, 8).unwrap();
        assert_eq!(dep.state_fingerprint(), fresh.state_fingerprint());
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
