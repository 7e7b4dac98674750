//! The adaptive control loop: observe → detect → re-solve → migrate.
//!
//! [`Watcher`] glues the subsystem together, one epoch at a time:
//!
//! ```text
//!             feed observations (ingest chunks / traces / counts)
//!                                   │
//!  ┌────────────────────────────────▼─────────────────────────────────┐
//!  │ tracker: OnlineWorkload (decay / window)                         │
//!  └────────────────────────────────┬─────────────────────────────────┘
//!                           snapshot() Instance
//!                                   │
//!             drift::assess_drift(incumbent | snapshot)
//!                │ score ≤ threshold          │ score > threshold
//!                ▼                            ▼
//!           keep incumbent        warm re-solve (SA from incumbent)
//!                                             │
//!                          migrate::plan_migration(old → new)
//!                                             │
//!               MigrationPlan::batched → Deployment::migrate_batched
//!                          (journaled, bytes metered)
//! ```
//!
//! The first epoch with traffic bootstraps the incumbent with a cold
//! multi-start solve; every later epoch pays only the drift assessment
//! unless the score crosses the threshold. All steps are deterministic
//! for a fixed configuration and observation sequence.

use crate::drift::{assess_drift, DriftConfig};
use crate::migrate::plan_migration;
use crate::tracker::OnlineWorkload;
use crate::OnlineError;
use std::time::{Duration, Instant};
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::CostConfig;
use vpart_engine::{Deployment, FaultInjector, MigrationJournal, FP_WATCH_RESOLVE};
use vpart_model::{MigrationPlan, Partitioning};
use vpart_obs::{HealthMonitor, Obs};

/// Watch-loop configuration.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Number of sites to partition over.
    pub sites: usize,
    /// Cost model configuration.
    pub cost: CostConfig,
    /// Drift detector settings.
    pub drift: DriftConfig,
    /// Base RNG seed for the solves.
    pub seed: u64,
    /// Rows materialized per fragment when applying migrations (the
    /// `Deployment` parameter; plan estimates use the same value).
    pub rows_per_fragment: usize,
    /// Restarts of the cold bootstrap solve (epoch 0).
    pub cold_restarts: usize,
    /// OS threads for the bootstrap solve.
    pub threads: usize,
    /// Hysteresis band: the drift detector must trigger this many
    /// *consecutive* epochs before a re-solve runs (1 = react instantly).
    /// Damps oscillating workloads that hover around the threshold.
    pub hysteresis: usize,
    /// Drift-aware amortization gate: when positive, a triggered re-solve
    /// only migrates if the plan's byte cost is amortized by the
    /// objective-(6) savings within this many epochs
    /// (`plan bytes ≤ amortize_epochs × (incumbent − new cost)`).
    /// Zero disables the gate.
    pub amortize_epochs: usize,
    /// Consecutive failed migration attempts tolerated before the watcher
    /// enters degraded mode (serving the incumbent, no more attempts
    /// until drift recedes). Failed attempts back off exponentially
    /// (1, 2, 4, … epochs, capped at 16) before retrying.
    pub max_retries: usize,
    /// Byte budget per migration batch; migrations run through a
    /// journaled [`Deployment::migrate_batched`]. Non-finite (the
    /// default) ⇒ one batch.
    pub migration_batch_bytes: f64,
    /// Fault injection for the watch loop (the [`FP_WATCH_RESOLVE`]
    /// point, plus the engine's migration points). Moved into the
    /// watcher at construction so trigger state persists across epochs.
    pub faults: FaultInjector,
    /// Observability sink. Off by default ([`Obs::disabled`]); when
    /// enabled every epoch records a `watch_epoch` span (drift score,
    /// threshold margin, migration bytes, snapshot size), its step spans
    /// (`tracker_snapshot`, `assess_drift`, `plan_migration`,
    /// `batch_plan`), the nested solver and engine spans, the `watch_*`
    /// counter/gauge family and the `epoch_wall_seconds` /
    /// `warm_resolve_wall_seconds` histograms.
    pub obs: Obs,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            sites: 2,
            cost: CostConfig::default(),
            drift: DriftConfig::default(),
            seed: 0xC0FFEE,
            rows_per_fragment: 64,
            cold_restarts: 4,
            threads: 4,
            hysteresis: 1,
            amortize_epochs: 0,
            max_retries: 3,
            migration_batch_bytes: f64::INFINITY,
            faults: FaultInjector::disabled(),
            obs: Obs::disabled(),
        }
    }
}

impl WatchConfig {
    /// The warm re-solve configuration: a single fast chain annealed from
    /// `incumbent`. Inherits this config's observability sink.
    pub fn warm_sa(&self, incumbent: Partitioning) -> SaConfig {
        let mut sa = SaConfig::fast_deterministic(self.seed).warm_started(incumbent);
        sa.obs = self.obs.clone();
        sa
    }

    /// The cold bootstrap configuration: classic multi-start. Inherits
    /// this config's observability sink.
    pub fn cold_sa(&self) -> SaConfig {
        let mut sa =
            SaConfig::fast_deterministic(self.seed).multi_start(self.cold_restarts, self.threads);
        sa.obs = self.obs.clone();
        sa
    }
}

/// The drift-aware amortization decision: a plan is vetoed when its byte
/// cost exceeds what `amortize_epochs` epochs of projected objective-(6)
/// savings would pay back. Zero epochs disables the gate; negative
/// savings pay for nothing, so any byte-moving plan is vetoed then.
fn amortization_vetoes(amortize_epochs: usize, plan_bytes: f64, savings_per_epoch: f64) -> bool {
    amortize_epochs > 0 && plan_bytes > amortize_epochs as f64 * savings_per_epoch.max(0.0)
}

/// Re-solve statistics of one epoch.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Objective (6) of the new layout on the epoch snapshot.
    pub objective6: f64,
    /// Annealing chains run (1 for a warm re-solve).
    pub restarts: usize,
    /// True for the epoch-0 cold bootstrap, false for warm re-solves.
    pub cold: bool,
}

/// Migration statistics of one epoch.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// The executed plan.
    pub plan: MigrationPlan,
    /// Plan-estimated bytes to ship.
    pub estimated_bytes: f64,
    /// Engine-metered bytes actually shipped by the batched migration.
    pub measured_bytes: f64,
    /// `measured_bytes == estimated_bytes`, exactly (the engine meter
    /// re-derives the same accounting; any difference is a bug).
    pub meter_matches: bool,
    /// Batches the journaled migration committed.
    pub batches: usize,
    /// Peak dual-resident bytes across batch boundaries.
    pub peak_transient_bytes: f64,
}

/// One epoch's full report.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The epoch that was closed (tracker numbering).
    pub epoch: u64,
    /// Caller-supplied label (e.g. the phase file).
    pub label: String,
    /// Snapshot size: transaction templates tracked.
    pub templates: usize,
    /// Objective (6) of the incumbent on this epoch's snapshot.
    pub incumbent_cost: f64,
    /// The drift detector's fresh bound (= incumbent cost at bootstrap).
    pub bound: f64,
    /// Relative drift score.
    pub drift_score: f64,
    /// Whether the detector triggered a re-solve.
    pub triggered: bool,
    /// Solve statistics when one ran (bootstrap or warm).
    pub resolve: Option<ResolveOutcome>,
    /// Migration statistics when a plan was applied.
    pub migration: Option<MigrationOutcome>,
    /// Wall-clock time of the whole epoch (snapshot → drift → re-solve →
    /// migration).
    pub elapsed: Duration,
    /// Snapshot size: distinct attributes in the epoch's snapshot
    /// instance (with [`EpochOutcome::templates`], the tracker state
    /// size).
    pub snapshot_attrs: usize,
    /// Why a triggered epoch did *not* migrate (hysteresis, retry
    /// backoff, amortization gate, degraded mode, or a failed attempt).
    pub veto: Option<String>,
    /// Consecutive failed migration attempts so far.
    pub failures: usize,
    /// Epochs left in the retry backoff window (0 ⇒ not backing off).
    pub backoff_remaining: u64,
    /// True once the watcher gave up migrating (`failures >
    /// max_retries`) and is serving the incumbent until drift recedes.
    pub degraded: bool,
}

/// The adaptive repartitioning controller (see module docs).
#[derive(Debug, Clone)]
pub struct Watcher {
    tracker: OnlineWorkload,
    config: WatchConfig,
    incumbent: Option<Partitioning>,
    faults: FaultInjector,
    /// Consecutive triggered epochs (the hysteresis streak).
    streak: usize,
    /// Consecutive failed migration attempts.
    failures: usize,
    /// Epochs left before the next attempt is allowed.
    backoff: u64,
    degraded: bool,
    retries_total: u64,
    rollbacks_total: u64,
    /// Optional live health layer, ticked once per epoch.
    health: Option<HealthMonitor>,
}

impl Watcher {
    /// A watcher over `tracker` (which may already hold observations).
    pub fn new(tracker: OnlineWorkload, config: WatchConfig) -> Result<Self, OnlineError> {
        if config.sites == 0 {
            return Err(OnlineError::BadConfig("sites must be positive".into()));
        }
        if config.cold_restarts == 0 || config.threads == 0 {
            return Err(OnlineError::BadConfig(
                "cold_restarts and threads must be positive".into(),
            ));
        }
        if config.rows_per_fragment == 0 {
            return Err(OnlineError::BadConfig(
                "rows_per_fragment must be positive".into(),
            ));
        }
        if config.hysteresis == 0 {
            return Err(OnlineError::BadConfig("hysteresis must be positive".into()));
        }
        if config.migration_batch_bytes.is_nan() || config.migration_batch_bytes <= 0.0 {
            return Err(OnlineError::BadConfig(
                "migration_batch_bytes must be positive".into(),
            ));
        }
        config.drift.validate()?;
        let faults = config.faults.clone();
        Ok(Self {
            tracker,
            config,
            incumbent: None,
            faults,
            streak: 0,
            failures: 0,
            backoff: 0,
            degraded: false,
            retries_total: 0,
            rollbacks_total: 0,
            health: None,
        })
    }

    /// Attaches a live health monitor: each epoch, after the epoch's
    /// metrics land, the monitor samples the registry at the epoch index
    /// and evaluates its alert rules. Requires an enabled `config.obs`
    /// to have any effect.
    pub fn with_health(mut self, monitor: HealthMonitor) -> Self {
        self.health = Some(monitor);
        self
    }

    /// The attached health monitor, if any.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// True while the watcher has given up migrating and serves the
    /// incumbent (exits when drift recedes below the threshold).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Failed migration attempts over the watcher's lifetime.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Rollbacks executed after failed attempts over the lifetime.
    pub fn rollbacks_total(&self) -> u64 {
        self.rollbacks_total
    }

    /// The workload tracker, for feeding observations.
    pub fn tracker_mut(&mut self) -> &mut OnlineWorkload {
        &mut self.tracker
    }

    /// The workload tracker.
    pub fn tracker(&self) -> &OnlineWorkload {
        &self.tracker
    }

    /// The current incumbent partitioning (none before the first epoch).
    pub fn incumbent(&self) -> Option<&Partitioning> {
        self.incumbent.as_ref()
    }

    /// Closes the open epoch: snapshots the tracked mix, assesses drift,
    /// re-solves and migrates when triggered, and advances the tracker.
    pub fn end_epoch(&mut self, label: &str) -> Result<EpochOutcome, OnlineError> {
        let epoch_start = Instant::now();
        let span = self.config.obs.span_begin(
            "watch_epoch",
            &[
                ("epoch", self.tracker.epoch().into()),
                ("label", label.into()),
            ],
        );
        // Nested solver / engine records parent under this epoch's span.
        let scoped = self.config.obs.under(&span);
        let step = scoped.span_begin("tracker_snapshot", &[]);
        let snapshot = self.tracker.snapshot()?;
        scoped.span_end(step, &[("templates", self.tracker.n_templates().into())]);
        let cfg = &self.config;

        let mut outcome = match &self.incumbent {
            None => {
                // Bootstrap: cold multi-start solve, no migration (there
                // is nothing deployed yet).
                let mut sa = cfg.cold_sa();
                sa.obs = scoped.clone();
                let report = SaSolver::new(sa)
                    .solve(&snapshot, cfg.sites, &cfg.cost)
                    .map_err(OnlineError::from)?;
                let cost6 = report.breakdown.objective6;
                self.incumbent = Some(report.partitioning.clone());
                EpochOutcome {
                    epoch: self.tracker.epoch(),
                    label: label.to_string(),
                    templates: self.tracker.n_templates(),
                    incumbent_cost: cost6,
                    bound: cost6,
                    drift_score: 0.0,
                    triggered: false,
                    resolve: Some(ResolveOutcome {
                        elapsed: report.elapsed,
                        objective6: cost6,
                        restarts: report.restarts.len(),
                        cold: true,
                    }),
                    migration: None,
                    elapsed: Duration::ZERO,
                    snapshot_attrs: snapshot.n_attrs(),
                    veto: None,
                    failures: 0,
                    backoff_remaining: 0,
                    degraded: false,
                }
            }
            Some(incumbent) => {
                // assess_drift adapts the incumbent onto the snapshot
                // itself; reuse its adapted form instead of re-adapting.
                let incumbent = incumbent.clone();
                let step = scoped.span_begin("assess_drift", &[]);
                let assessment = assess_drift(&snapshot, &incumbent, &cfg.cost, &cfg.drift)?;
                scoped.span_end(
                    step,
                    &[
                        ("score", assessment.score.into()),
                        ("triggered", assessment.triggered.into()),
                    ],
                );
                let adapted = assessment.adapted.clone();
                let mut resolve = None;
                let mut migration = None;
                let mut veto = None;
                let mut next_incumbent = adapted.clone();
                if !assessment.triggered {
                    // No drift: reset the hysteresis streak; if the
                    // watcher was degraded or backing off, the workload
                    // now fits the incumbent again — recover.
                    self.streak = 0;
                    self.backoff = 0;
                    if self.degraded || self.failures > 0 {
                        self.degraded = false;
                        self.failures = 0;
                    }
                } else {
                    self.streak += 1;
                    if self.degraded {
                        veto =
                            Some("degraded: serving the incumbent until drift recedes".to_string());
                    } else if self.backoff > 0 {
                        self.backoff -= 1;
                        veto = Some(format!(
                            "retry backoff: {} epoch(s) before the next attempt",
                            self.backoff
                        ));
                    } else if self.streak < cfg.hysteresis {
                        veto = Some(format!(
                            "hysteresis: {}/{} consecutive triggered epochs",
                            self.streak, cfg.hysteresis
                        ));
                    } else if let Err(e) = self.faults.fail(FP_WATCH_RESOLVE) {
                        // An injected re-solve crash: a retryable failure.
                        let _ = cfg.obs.dump_flight(FP_WATCH_RESOLVE);
                        self.retries_total += 1;
                        self.failures += 1;
                        cfg.obs.counter_inc("migration_retries_total");
                        if self.failures > cfg.max_retries {
                            self.degraded = true;
                            veto = Some(format!(
                                "migration failed ({e}); degraded after {} attempts",
                                self.failures
                            ));
                        } else {
                            self.backoff = (1u64 << (self.failures - 1)).min(16);
                            veto = Some(format!(
                                "migration failed ({e}); retrying in {} epoch(s)",
                                self.backoff
                            ));
                        }
                    } else {
                        // Warm re-solve from the better of incumbent / bound.
                        let warm_from = if assessment.bound < assessment.incumbent_cost {
                            assessment.bound_partitioning.clone()
                        } else {
                            adapted.clone()
                        };
                        let mut sa = cfg.warm_sa(warm_from);
                        sa.obs = scoped.clone();
                        let report = SaSolver::new(sa)
                            .solve(&snapshot, cfg.sites, &cfg.cost)
                            .map_err(OnlineError::from)?;
                        cfg.obs.observe_wall(
                            "warm_resolve_wall_seconds",
                            report.elapsed.as_secs_f64(),
                        );
                        resolve = Some(ResolveOutcome {
                            elapsed: report.elapsed,
                            objective6: report.breakdown.objective6,
                            restarts: report.restarts.len(),
                            cold: false,
                        });

                        let step = scoped.span_begin("plan_migration", &[]);
                        let plan = plan_migration(
                            &snapshot,
                            &adapted,
                            &report.partitioning,
                            cfg.rows_per_fragment,
                        )?;
                        if scoped.is_enabled() {
                            scoped.span_end(
                                step,
                                &[("estimated_bytes", plan.estimated_bytes().into())],
                            );
                        }
                        let savings = assessment.incumbent_cost - report.breakdown.objective6;
                        if amortization_vetoes(cfg.amortize_epochs, plan.estimated_bytes(), savings)
                        {
                            // Not worth moving yet: the drift hasn't grown
                            // enough for the plan to pay for itself.
                            veto = Some(format!(
                                "amortization: plan ships {:.0} B but {} epoch(s) save only {:.0} B-equivalents",
                                plan.estimated_bytes(),
                                cfg.amortize_epochs,
                                cfg.amortize_epochs as f64 * savings.max(0.0)
                            ));
                        } else {
                            let step = scoped.span_begin("batch_plan", &[]);
                            let batched = plan
                                .batched(&snapshot, cfg.migration_batch_bytes)
                                .map_err(OnlineError::from)?;
                            if scoped.is_enabled() {
                                scoped.span_end(
                                    step,
                                    &[
                                        ("batches", batched.n_batches().into()),
                                        ("installs", plan.installs().into()),
                                        ("drops", plan.drops().into()),
                                        ("moves", plan.txn_moves.len().into()),
                                    ],
                                );
                            }
                            let mut journal = MigrationJournal::new();
                            let mut deployment =
                                Deployment::new(&snapshot, &adapted, cfg.rows_per_fragment)?
                                    .with_obs(scoped.clone());
                            match deployment.migrate_batched(
                                &batched,
                                &mut journal,
                                &mut self.faults,
                            ) {
                                Ok(applied) => {
                                    let estimated = plan.estimated_bytes();
                                    next_incumbent = plan.to.clone();
                                    self.streak = 0;
                                    self.failures = 0;
                                    migration = Some(MigrationOutcome {
                                        estimated_bytes: estimated,
                                        measured_bytes: applied.bytes_moved,
                                        meter_matches: applied.bytes_moved == estimated,
                                        batches: applied.batches_applied,
                                        peak_transient_bytes: applied.peak_transient_bytes,
                                        plan,
                                    });
                                }
                                Err(e) => {
                                    // Crashed mid-migration. Recover a
                                    // clean deployment at the journal's
                                    // durable boundary and roll back to
                                    // the incumbent; the epoch keeps
                                    // serving the old layout.
                                    let mut recovered =
                                        Deployment::recover(&snapshot, &batched, &journal)?;
                                    recovered.rollback_migration(
                                        &batched,
                                        &mut journal,
                                        &mut FaultInjector::disabled(),
                                    )?;
                                    self.rollbacks_total += 1;
                                    cfg.obs.counter_inc("migration_rollbacks_total");
                                    self.retries_total += 1;
                                    self.failures += 1;
                                    cfg.obs.counter_inc("migration_retries_total");
                                    if self.failures > cfg.max_retries {
                                        self.degraded = true;
                                        veto = Some(format!(
                                            "migration failed ({e}); rolled back; degraded after {} attempts",
                                            self.failures
                                        ));
                                    } else {
                                        self.backoff = (1u64 << (self.failures - 1)).min(16);
                                        veto = Some(format!(
                                            "migration failed ({e}); rolled back; retrying in {} epoch(s)",
                                            self.backoff
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                self.incumbent = Some(next_incumbent);
                EpochOutcome {
                    epoch: self.tracker.epoch(),
                    label: label.to_string(),
                    templates: self.tracker.n_templates(),
                    incumbent_cost: assessment.incumbent_cost,
                    bound: assessment.bound,
                    drift_score: assessment.score,
                    triggered: assessment.triggered,
                    resolve,
                    migration,
                    elapsed: Duration::ZERO,
                    snapshot_attrs: snapshot.n_attrs(),
                    veto,
                    failures: self.failures,
                    backoff_remaining: self.backoff,
                    degraded: self.degraded,
                }
            }
        };
        outcome.elapsed = epoch_start.elapsed();

        let obs = &self.config.obs;
        let migration_bytes = outcome.migration.as_ref().map_or(0.0, |m| m.measured_bytes);
        if obs.is_enabled() {
            obs.counter_inc("watch_epochs_total");
            if outcome.triggered {
                obs.counter_inc("watch_drift_triggers_total");
            }
            obs.gauge_set("watch_drift_score", outcome.drift_score);
            obs.gauge_set(
                "watch_drift_threshold_margin",
                outcome.drift_score - self.config.drift.threshold,
            );
            obs.gauge_set("watch_tracker_templates", outcome.templates as f64);
            obs.gauge_set("watch_degraded", f64::from(outcome.degraded));
            obs.observe_wall("epoch_wall_seconds", outcome.elapsed.as_secs_f64());
        }
        obs.span_end(
            span,
            &[
                ("epoch", outcome.epoch.into()),
                ("drift_score", outcome.drift_score.into()),
                (
                    "margin",
                    (outcome.drift_score - self.config.drift.threshold).into(),
                ),
                ("triggered", outcome.triggered.into()),
                ("migration_bytes", migration_bytes.into()),
                ("snapshot_attrs", outcome.snapshot_attrs.into()),
                ("templates", outcome.templates.into()),
                ("degraded", outcome.degraded.into()),
            ],
        );

        if let Some(health) = &mut self.health {
            if self.config.obs.is_enabled() {
                // Logical clock = epoch index; the tick both samples the
                // registry and runs the alert rules.
                health.tick(outcome.epoch, &self.config.obs);
            }
        }

        self.tracker.advance_epoch();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{DecayMode, TrackerConfig};
    use vpart_model::workload::QuerySpec;
    use vpart_model::{AttrId, Instance, Schema, Workload};

    fn schema() -> Schema {
        let mut sb = Schema::builder();
        sb.table("R", &[("r1", 50.0)]).unwrap();
        sb.table("S", &[("s1", 50.0)]).unwrap();
        sb.table("H", &[("h", 100.0)]).unwrap();
        sb.build().unwrap()
    }

    /// Pinned R/S reader-writer pairs, two mobile readers of `h`, and an
    /// `h` writer at `write_freq` — the replication-vs-centralization
    /// flip of the drift tests.
    fn phase(write_freq: f64) -> Instance {
        let schema = schema();
        let mut wb = Workload::builder(&schema);
        let r_read = wb
            .add_query(
                QuerySpec::read("r_read")
                    .access(&[AttrId(0)])
                    .frequency(10.0),
            )
            .unwrap();
        let r_write = wb
            .add_query(
                QuerySpec::write("r_write")
                    .access(&[AttrId(0)])
                    .frequency(10.0),
            )
            .unwrap();
        let s_read = wb
            .add_query(
                QuerySpec::read("s_read")
                    .access(&[AttrId(1)])
                    .frequency(10.0),
            )
            .unwrap();
        let s_write = wb
            .add_query(
                QuerySpec::write("s_write")
                    .access(&[AttrId(1)])
                    .frequency(10.0),
            )
            .unwrap();
        let h_read_a = wb
            .add_query(
                QuerySpec::read("h_read_a")
                    .access(&[AttrId(2)])
                    .frequency(40.0),
            )
            .unwrap();
        // Structurally distinct from h_read_a (2-row reads), so the
        // tracker keeps the two mobile readers as separate templates.
        let h_read_b = wb
            .add_query(
                QuerySpec::read("h_read_b")
                    .access(&[AttrId(2)])
                    .frequency(20.0)
                    .rows(vpart_model::TableId(2), 2.0),
            )
            .unwrap();
        let h_write = wb
            .add_query(
                QuerySpec::write("h_write")
                    .access(&[AttrId(2)])
                    .frequency(write_freq),
            )
            .unwrap();
        wb.transaction("T0", &[r_read, r_write]).unwrap();
        wb.transaction("T1", &[s_read, s_write]).unwrap();
        wb.transaction("T2", &[h_read_a]).unwrap();
        wb.transaction("T3", &[h_read_b]).unwrap();
        wb.transaction("TW", &[h_write]).unwrap();
        Instance::new("phase", schema, wb.build().unwrap()).unwrap()
    }

    fn watcher(threshold: f64) -> Watcher {
        let tracker = OnlineWorkload::new(
            "watch",
            schema(),
            TrackerConfig {
                decay: DecayMode::Exponential { factor: 0.5 },
                ..TrackerConfig::default()
            },
        )
        .unwrap();
        Watcher::new(
            tracker,
            WatchConfig {
                cost: CostConfig::default().with_lambda(0.5),
                drift: DriftConfig {
                    threshold,
                    ..DriftConfig::default()
                },
                ..WatchConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn stationary_epochs_never_trigger() {
        let mut w = watcher(0.05);
        for i in 0..3 {
            w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
            let out = w.end_epoch(&format!("e{i}")).unwrap();
            if i == 0 {
                assert!(out.resolve.as_ref().unwrap().cold, "bootstrap");
            } else {
                assert!(!out.triggered, "epoch {i} drifted: {}", out.drift_score);
                assert!(out.migration.is_none());
            }
        }
    }

    #[test]
    fn drifted_epoch_triggers_and_migration_meter_matches() {
        let mut w = watcher(0.05);
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("replicate-h").unwrap();
        // The h-write stream explodes; decay keeps some history, the
        // flip still dominates.
        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let out = w.end_epoch("centralize-h").unwrap();
        assert!(
            out.triggered,
            "flip must trigger (score {})",
            out.drift_score
        );
        let resolve = out.resolve.expect("warm re-solve ran");
        assert!(!resolve.cold);
        assert!(
            resolve.objective6 <= out.incumbent_cost + 1e-9,
            "never regresses"
        );
        let mig = out.migration.expect("a migration was planned");
        assert!(mig.meter_matches, "engine meter == plan estimate");
        assert_eq!(mig.measured_bytes, mig.estimated_bytes);
        assert_eq!(w.incumbent().unwrap(), &mig.plan.to);
    }

    #[test]
    fn zero_threshold_with_stationary_mix_plans_zero_movement() {
        // threshold 0 re-solves every epoch; on a stationary mix the warm
        // re-solve lands on (a relabeling of) the incumbent and the
        // canonicalized plan moves nothing.
        let mut w = watcher(0.0);
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        let out = w.end_epoch("steady").unwrap();
        if let Some(mig) = out.migration {
            assert_eq!(
                mig.estimated_bytes, 0.0,
                "stationary re-solve must not move bytes"
            );
            assert!(mig.meter_matches);
        }
    }

    #[test]
    fn obs_records_epoch_spans_nested_solves_and_migration_meters() {
        let obs = Obs::enabled();
        let tracker = OnlineWorkload::new(
            "watch",
            schema(),
            TrackerConfig {
                decay: DecayMode::Exponential { factor: 0.5 },
                ..TrackerConfig::default()
            },
        )
        .unwrap();
        let mut w = Watcher::new(
            tracker,
            WatchConfig {
                cost: CostConfig::default().with_lambda(0.5),
                drift: DriftConfig {
                    threshold: 0.05,
                    ..DriftConfig::default()
                },
                obs: obs.clone(),
                ..WatchConfig::default()
            },
        )
        .unwrap();
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        let boot = w.end_epoch("boot").unwrap();
        assert!(boot.elapsed > Duration::ZERO);
        assert_eq!(boot.snapshot_attrs, 3);
        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let out = w.end_epoch("flip").unwrap();
        assert!(out.triggered);

        let text = obs.metrics_prometheus();
        assert!(text.contains("watch_epochs_total 2"));
        assert!(text.contains("watch_drift_triggers_total 1"));
        assert!(text.contains("engine_migration_bytes_total"));
        assert!(text.contains("epoch_wall_seconds_count 2"));
        assert!(text.contains("warm_resolve_wall_seconds_count 1"));

        // Solver and engine spans nest under their epoch's span.
        let lines: Vec<serde_json::Value> = obs
            .trace_json_lines()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let span_named = |name: &str| {
            lines
                .iter()
                .filter(|v| {
                    v.get("type").and_then(|t| t.as_str()) == Some("span")
                        && v.get("name").and_then(|n| n.as_str()) == Some(name)
                })
                .collect::<Vec<_>>()
        };
        let epochs = span_named("watch_epoch");
        assert_eq!(epochs.len(), 2);
        let epoch_ids: Vec<u64> = epochs
            .iter()
            .map(|e| e.get("id").and_then(|i| i.as_u64()).unwrap())
            .collect();
        for nested in ["sa_solve", "migrate_batched"] {
            for s in span_named(nested) {
                let parent = s.get("parent").and_then(|p| p.as_u64()).unwrap();
                assert!(epoch_ids.contains(&parent), "{nested} not nested");
            }
        }
        assert_eq!(span_named("migrate_batched").len(), 1);

        // The epoch's own steps: a snapshot in every epoch, the drift
        // assessment, migration plan and batching in the drifted one.
        let parents = |name: &str| {
            span_named(name)
                .iter()
                .map(|s| s.get("parent").and_then(|p| p.as_u64()).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(parents("tracker_snapshot"), epoch_ids);
        for step in ["assess_drift", "plan_migration", "batch_plan"] {
            assert_eq!(parents(step), vec![epoch_ids[1]], "{step}");
        }
        let batch_plan = span_named("batch_plan")[0];
        let field = |k: &str| {
            batch_plan
                .get("fields")
                .and_then(|f| f.get(k))
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("batch_plan lacks {k}"))
        };
        let migration = out.migration.as_ref().unwrap();
        assert_eq!(field("batches"), migration.batches as u64);
        assert_eq!(field("installs"), migration.plan.installs() as u64);
        assert_eq!(field("drops"), migration.plan.drops() as u64);
        assert_eq!(field("moves"), migration.plan.txn_moves.len() as u64);
    }

    #[test]
    fn config_validation() {
        let tracker = OnlineWorkload::new("v", schema(), TrackerConfig::default()).unwrap();
        assert!(Watcher::new(
            tracker.clone(),
            WatchConfig {
                sites: 0,
                ..WatchConfig::default()
            }
        )
        .is_err());
        assert!(Watcher::new(
            tracker.clone(),
            WatchConfig {
                cold_restarts: 0,
                ..WatchConfig::default()
            }
        )
        .is_err());
        assert!(Watcher::new(
            tracker.clone(),
            WatchConfig {
                hysteresis: 0,
                ..WatchConfig::default()
            }
        )
        .is_err());
        assert!(Watcher::new(
            tracker,
            WatchConfig {
                migration_batch_bytes: 0.0,
                ..WatchConfig::default()
            }
        )
        .is_err());
    }

    fn watcher_cfg(threshold: f64, tweak: impl FnOnce(&mut WatchConfig)) -> Watcher {
        let tracker = OnlineWorkload::new(
            "watch",
            schema(),
            TrackerConfig {
                decay: DecayMode::Exponential { factor: 0.5 },
                ..TrackerConfig::default()
            },
        )
        .unwrap();
        let mut cfg = WatchConfig {
            cost: CostConfig::default().with_lambda(0.5),
            drift: DriftConfig {
                threshold,
                ..DriftConfig::default()
            },
            ..WatchConfig::default()
        };
        tweak(&mut cfg);
        Watcher::new(tracker, cfg).unwrap()
    }

    #[test]
    fn hysteresis_defers_the_resolve_until_the_streak_holds() {
        let mut w = watcher_cfg(0.05, |c| c.hysteresis = 2);
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let first = w.end_epoch("flip-1").unwrap();
        assert!(first.triggered);
        assert!(first.resolve.is_none(), "hysteresis must defer the solve");
        assert!(first.veto.as_deref().unwrap().contains("hysteresis"));

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let second = w.end_epoch("flip-2").unwrap();
        assert!(second.triggered);
        assert!(second.resolve.is_some(), "streak of 2 unlocks the solve");
        assert!(second.veto.is_none());
        assert!(second.migration.is_some());
    }

    /// An injected crash mid-migration rolls back, backs off one epoch,
    /// then the retry completes — ending at the same layout a fault-free
    /// watcher reaches.
    #[test]
    fn injected_migration_crash_rolls_back_backs_off_and_retries() {
        let obs = Obs::enabled();
        let mut w = watcher_cfg(0.05, |c| {
            let mut f = FaultInjector::new(9);
            f.arm_spec("migration.batch:nth=1").unwrap();
            c.faults = f;
            c.migration_batch_bytes = 1000.0;
            c.obs = obs.clone();
        });
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();
        let incumbent_before = w.incumbent().unwrap().clone();

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let failed = w.end_epoch("crash").unwrap();
        assert!(failed.triggered && failed.migration.is_none());
        let veto = failed.veto.as_deref().unwrap();
        assert!(veto.contains("rolled back"), "veto: {veto}");
        assert_eq!(failed.failures, 1);
        assert_eq!(failed.backoff_remaining, 1);
        assert!(!failed.degraded);
        assert_eq!(w.retries_total(), 1);
        assert_eq!(w.rollbacks_total(), 1);
        assert_eq!(
            w.incumbent().unwrap(),
            &incumbent_before,
            "rollback keeps the incumbent deployed"
        );

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let waiting = w.end_epoch("backoff").unwrap();
        assert!(waiting.veto.as_deref().unwrap().contains("backoff"));

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let retried = w.end_epoch("retry").unwrap();
        assert!(
            retried.migration.is_some(),
            "retry succeeds: {:?}",
            retried.veto
        );
        assert_eq!(retried.failures, 0);
        let mig = retried.migration.unwrap();
        assert!(mig.meter_matches);
        assert!(mig.batches >= 1);

        let text = obs.metrics_prometheus();
        assert!(text.contains("migration_retries_total 1"));
        assert!(text.contains("migration_rollbacks_total 1"));
    }

    /// Exhausted retries degrade the watcher; it serves the incumbent
    /// until drift recedes, then recovers.
    #[test]
    fn exhausted_retries_degrade_until_drift_recedes() {
        let mut w = watcher_cfg(0.05, |c| {
            c.max_retries = 0;
            let mut f = FaultInjector::new(4);
            f.arm_spec("migration.batch:prob=1.0").unwrap();
            c.faults = f;
        });
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let failed = w.end_epoch("crash").unwrap();
        assert!(failed.degraded, "max_retries 0 degrades on first failure");
        assert!(w.is_degraded());

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let held = w.end_epoch("held").unwrap();
        assert!(held.degraded);
        assert!(held.veto.as_deref().unwrap().contains("degraded"));
        assert!(held.resolve.is_none(), "degraded mode never re-solves");

        // The write storm ends; decay drains it and drift recedes.
        let mut recovered = false;
        for i in 0..15 {
            w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
            let out = w.end_epoch(&format!("calm-{i}")).unwrap();
            if !out.triggered {
                assert!(!out.degraded, "receded drift must clear degradation");
                recovered = true;
                break;
            }
        }
        assert!(recovered, "drift never receded under decay");
        assert!(!w.is_degraded());
    }

    /// An injected re-solve crash counts as a retryable failure without
    /// a rollback (nothing was deployed yet).
    #[test]
    fn injected_resolve_crash_is_retryable() {
        let mut w = watcher_cfg(0.05, |c| {
            let mut f = FaultInjector::new(6);
            f.arm_spec("watch.resolve:nth=1").unwrap();
            c.faults = f;
        });
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();
        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let failed = w.end_epoch("crash").unwrap();
        assert!(failed.veto.as_deref().unwrap().contains("watch.resolve"));
        assert_eq!(w.retries_total(), 1);
        assert_eq!(w.rollbacks_total(), 0, "no deployment to roll back");
    }

    /// The live health layer rides the epoch clock: an injected
    /// migration crash flips the watcher into degraded mode and the
    /// built-in `watch-degraded` alert fires; once drift recedes and the
    /// watcher recovers, the alert resolves. Both edges also land in the
    /// trace as `alert` events.
    #[test]
    fn health_monitor_fires_and_resolves_degraded_alert() {
        let obs = Obs::enabled();
        let mut w = watcher_cfg(0.05, |c| {
            c.max_retries = 0;
            let mut f = FaultInjector::new(4);
            f.arm_spec("migration.batch:prob=1.0").unwrap();
            c.faults = f;
            c.obs = obs.clone();
        })
        .with_health(HealthMonitor::with_builtin_rules(32));
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();
        assert!(!w.health().unwrap().any_critical_firing());

        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let failed = w.end_epoch("crash").unwrap();
        assert!(failed.degraded);
        assert!(w.health().unwrap().any_critical_firing(), "alert must fire");

        for i in 0..15 {
            w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
            if !w.end_epoch(&format!("calm{i}")).unwrap().degraded {
                break;
            }
        }
        assert!(!w.is_degraded(), "drift must recede in the calm phase");
        let health = w.health().unwrap();
        assert!(!health.any_critical_firing(), "alert must resolve");
        let edges: Vec<&str> = health
            .alerts()
            .transitions()
            .iter()
            .filter(|t| t.rule == "watch-degraded")
            .map(|t| t.state)
            .collect();
        assert_eq!(edges, vec!["firing", "resolved"]);
        let trace = obs.trace_json_lines();
        assert!(
            trace
                .lines()
                .any(|l| l.contains("\"name\":\"alert\"") && l.contains("watch-degraded")),
            "alert transitions must be recorded as trace events"
        );
    }

    /// The amortization arithmetic: a plan is vetoed exactly when its
    /// byte cost exceeds the window's projected savings.
    #[test]
    fn amortization_gate_arithmetic() {
        // Disabled gate lets anything through.
        assert!(!amortization_vetoes(0, 1e12, 0.0));
        // Free plans always pass.
        assert!(!amortization_vetoes(1, 0.0, 0.0));
        assert!(!amortization_vetoes(1, -0.0, 123.0));
        // Paid back within the window ⇒ pass; beyond it ⇒ veto.
        assert!(!amortization_vetoes(4, 100.0, 25.0));
        assert!(amortization_vetoes(3, 100.0, 25.0));
        // Negative savings (the re-solve found nothing better) can never
        // pay for movement.
        assert!(amortization_vetoes(10, 1.0, -5.0));
        assert!(!amortization_vetoes(10, 0.0, -5.0));
    }

    /// Gate wiring: with the gate armed, the canonical flip's free
    /// (zero-byte) centralization plan still migrates — only plans that
    /// actually ship bytes can be vetoed.
    #[test]
    fn amortization_gate_passes_free_plans() {
        let mut w = watcher_cfg(0.05, |c| c.amortize_epochs = 1);
        w.tracker_mut().observe_instance(&phase(1.0)).unwrap();
        w.end_epoch("boot").unwrap();
        w.tracker_mut().observe_instance(&phase(300.0)).unwrap();
        let out = w.end_epoch("flip").unwrap();
        assert!(out.triggered);
        let mig = out.migration.expect("free plan passes the gate");
        assert_eq!(mig.estimated_bytes.abs(), 0.0);
        assert!(out.veto.is_none());
    }
}
