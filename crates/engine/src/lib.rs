//! An H-store-like row-store execution engine.
//!
//! The paper *assumes* an H-store-like DBMS (single-threaded sites, rows
//! stored contiguously, reads in quantums of whole rows, single-sited
//! transactions running without undo/redo logs). No such system is
//! available here, so this crate builds the substrate: a deterministic
//! multi-site row store that physically materializes table fractions
//! according to a [`vpart_model::Partitioning`] ([`RowSegment`]s, one
//! crate-private store behind both entry points) and two things to do
//! with it:
//!
//! * [`ReplayDeployment::replay`] runs streams of transaction executions
//!   ([`ReplayStream`]) and meters exactly the three quantities the cost
//!   model estimates — bytes read and written by storage access methods
//!   per site, and bytes transferred between sites by write replication;
//! * [`Deployment`] moves the stored layout to another partitioning by
//!   journaled, crash-safe batched migration, metering the bytes shipped.
//!
//! The meter implements the *semantics* of the cost model (whole
//! row-fraction reads at the executing site, all-attribute write
//! accounting at every replica, α-attribute transfer to remote replicas)
//! over physical bytes: each attribute takes `ceil(w_a)` bytes and each
//! query touches `round(n)` rows. The cost model is the fractional
//! reference (average widths, fractional row counts). Where widths,
//! frequencies and row counts are integers, as on TPC-C, a stream whose
//! per-transaction counts equal the query frequencies measures
//! **exactly** the model's predicted `A_R`, `A_W` and `B`; elsewhere the
//! replay report carries the quantization gap as model error. The cost
//! model and the engine are implemented independently, so agreement
//! validates both.
//!
//! ```
//! use vpart_core::{evaluate, CostConfig};
//! use vpart_engine::{ReplayConfig, ReplayDeployment, ReplayStream};
//! use vpart_instances::tpcc;
//! use vpart_model::Partitioning;
//!
//! let ins = tpcc();
//! let part = Partitioning::single_site(&ins, 1).unwrap();
//! let mut dep = ReplayDeployment::new(&ins, &part, 64, 4).unwrap();
//! let stream = ReplayStream::uniform(&ins, 3, 0);
//! let report = dep
//!     .replay(&stream, &ReplayConfig::deterministic(1), None)
//!     .unwrap();
//! let predicted = evaluate(&ins, &part, &CostConfig::default());
//! assert_eq!(report.totals().bytes_read as f64, 3.0 * predicted.read);
//! ```

pub mod executor;
pub mod faults;
pub mod journal;
pub mod replay;
pub mod storage;

pub use executor::{BatchedMigrationReport, Deployment, EngineError};
pub use faults::{
    FaultInjector, FaultTrigger, FP_MIGRATION_BATCH, FP_MIGRATION_ROLLBACK, FP_REPLAY_PASS,
    FP_WATCH_RESOLVE,
};
pub use journal::{JournalRecord, JournalState, MigrationJournal};
pub use replay::{
    PredictedBytes, ReplayConfig, ReplayDeployment, ReplayModelError, ReplayReport, ReplayStream,
    RowSkew, SiteBytes,
};
pub use storage::RowSegment;
