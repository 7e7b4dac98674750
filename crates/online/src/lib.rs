//! Online adaptive repartitioning: keep the partitioning good, not just
//! find it once.
//!
//! The paper computes a one-shot partitioning from a frozen workload, but
//! its own premise — an H-store-like system serving high-volume OLTP —
//! implies the workload *drifts*. This crate closes the loop over the
//! whole stack:
//!
//! * [`tracker`] — [`OnlineWorkload`], a streaming per-template
//!   accumulator under exponential decay or sliding windows that
//!   materializes fresh [`vpart_model::Instance`] snapshots on demand.
//!   Feed it ingested instances (any `vpart_ingest` frontend), raw
//!   execution streams (`vpart_engine::ReplayStream`), or direct counts.
//! * [`drift`] — [`assess_drift`], which re-scores the incumbent
//!   [`vpart_model::Partitioning`] against the current snapshot and
//!   triggers a re-solve when its objective-(6) regression over a cheap
//!   fresh bound exceeds a relative threshold.
//! * warm re-solve — `SaConfig::warm_started` in `vpart_core` anneals
//!   from the incumbent, so drift repair costs a fraction of a cold
//!   multi-start solve ([`WatchConfig::warm_sa`]).
//! * [`migrate`] — [`plan_migration`], which relabels the new layout by a
//!   Hungarian min-cost assignment on fragment-byte overlap (renumbered
//!   -but-identical sites move zero bytes) and diffs it into a
//!   [`vpart_model::MigrationPlan`];
//!   `vpart_engine::Deployment::migrate_batched` executes the batched
//!   plan through a write-ahead journal and meters exactly the estimated
//!   bytes.
//! * [`watch`] — [`Watcher`], the epoch loop gluing the above together
//!   (the `vpart watch` CLI command drives it).
//!
//! ```
//! use vpart_online::{OnlineWorkload, TrackerConfig, Watcher, WatchConfig};
//! use vpart_model::{Schema, Workload, Instance, AttrId, workload::QuerySpec};
//!
//! let mut sb = Schema::builder();
//! sb.table("T", &[("k", 4.0), ("v", 100.0)]).unwrap();
//! let schema = sb.build().unwrap();
//! let mut wb = Workload::builder(&schema);
//! let q = wb.add_query(QuerySpec::read("q").access(&[AttrId(0)])).unwrap();
//! wb.transaction("txn", &[q]).unwrap();
//! let observed = Instance::new("chunk", schema.clone(), wb.build().unwrap()).unwrap();
//!
//! let tracker = OnlineWorkload::new("live", schema, TrackerConfig::default()).unwrap();
//! let mut watcher = Watcher::new(tracker, WatchConfig::default()).unwrap();
//! watcher.tracker_mut().observe_instance(&observed).unwrap();
//! let epoch = watcher.end_epoch("first").unwrap();
//! assert!(epoch.resolve.unwrap().cold, "first epoch bootstraps");
//! ```

// `!(x > 0.0)` comparisons are deliberate NaN-rejecting validations.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod drift;
pub mod migrate;
pub mod tracker;
pub mod watch;

pub use drift::{adapt_incumbent, assess_drift, DriftAssessment, DriftConfig};
pub use migrate::{canonicalize_against, plan_migration};
pub use tracker::{DecayMode, OnlineWorkload, TrackerConfig};
pub use watch::{EpochOutcome, MigrationOutcome, ResolveOutcome, WatchConfig, Watcher};

use std::fmt;

/// Errors raised by the online repartitioning subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// Invalid configuration value.
    BadConfig(String),
    /// An observation referenced a template index that was never
    /// registered.
    UnknownTemplate {
        /// The out-of-range index.
        template: usize,
    },
    /// An observed instance's schema differs from the tracker's.
    SchemaMismatch,
    /// The tracker has no registered templates yet — nothing to snapshot.
    NoTraffic,
    /// The incumbent partitioning cannot map onto the snapshot (more
    /// transactions than the snapshot, or a different attribute count).
    IncumbentShape {
        /// Incumbent transaction count.
        txns: usize,
        /// Snapshot transaction count.
        snapshot_txns: usize,
        /// Incumbent attribute count.
        attrs: usize,
        /// Snapshot attribute count.
        snapshot_attrs: usize,
    },
    /// Old and new partitionings disagree on the site count.
    SiteCountMismatch {
        /// Old site count.
        old: usize,
        /// New site count.
        new: usize,
    },
    /// A model-layer error (validation, construction).
    Model(vpart_model::ModelError),
    /// A solver error from `vpart_core`.
    Core(String),
    /// An engine error while applying a migration.
    Engine(String),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadConfig(msg) => write!(f, "invalid online config: {msg}"),
            Self::UnknownTemplate { template } => {
                write!(f, "unknown workload template index {template}")
            }
            Self::SchemaMismatch => {
                write!(
                    f,
                    "observed instance has a different schema than the tracker"
                )
            }
            Self::NoTraffic => write!(f, "no workload observed yet"),
            Self::IncumbentShape {
                txns,
                snapshot_txns,
                attrs,
                snapshot_attrs,
            } => {
                if attrs != snapshot_attrs {
                    write!(
                        f,
                        "incumbent covers {attrs} attributes but the snapshot has \
                         {snapshot_attrs} (different schema?)"
                    )
                } else {
                    write!(
                        f,
                        "incumbent covers {txns} transactions but the snapshot has \
                         {snapshot_txns}"
                    )
                }
            }
            Self::SiteCountMismatch { old, new } => {
                write!(f, "site counts differ: old {old}, new {new}")
            }
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::Core(msg) => write!(f, "solver error: {msg}"),
            Self::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<vpart_model::ModelError> for OnlineError {
    fn from(e: vpart_model::ModelError) -> Self {
        Self::Model(e)
    }
}

impl From<vpart_core::CoreError> for OnlineError {
    fn from(e: vpart_core::CoreError) -> Self {
        Self::Core(e.to_string())
    }
}

impl From<vpart_engine::EngineError> for OnlineError {
    fn from(e: vpart_engine::EngineError) -> Self {
        Self::Engine(e.to_string())
    }
}
