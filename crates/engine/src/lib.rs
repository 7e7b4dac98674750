//! An H-store-like row-store execution simulator.
//!
//! The paper *assumes* an H-store-like DBMS (single-threaded sites, rows
//! stored contiguously, reads in quantums of whole rows, single-sited
//! transactions running without undo/redo logs). No such system is
//! available here, so this crate builds the substrate: a deterministic
//! multi-site row-store that physically materializes table fractions
//! according to a [`vpart_model::Partitioning`], executes streams of
//! transaction executions ([`ReplayStream`]), and meters exactly the
//! three quantities the cost model estimates — bytes read and written by
//! storage access methods per site, and bytes transferred between sites
//! by write replication.
//!
//! Because the meter implements the *semantics* of the cost model (whole
//! row-fraction reads at the executing site, all-attribute write
//! accounting at every replica, α-attribute transfer to remote replicas),
//! an execution of a stream whose per-transaction counts equal the query
//! frequencies must measure **exactly** the model's predicted `A_R`,
//! `A_W` and `B`. Integration tests assert this equality on TPC-C — the
//! cost model and the engine are implemented independently, so agreement
//! validates both.
//!
//! ```
//! use vpart_engine::{Deployment, ReplayStream};
//! use vpart_model::Partitioning;
//! use vpart_instances::tpcc;
//!
//! let ins = tpcc();
//! let part = Partitioning::single_site(&ins, 1).unwrap();
//! let mut dep = Deployment::new(&ins, &part, 64).unwrap();
//! let stream = ReplayStream::uniform(&ins, 3, 0);
//! let report = dep.execute(&stream.executions).unwrap();
//! assert!(report.totals().bytes_read > 0.0);
//! ```

pub mod executor;
pub mod faults;
pub mod journal;
pub mod replay;
pub mod storage;

pub use executor::{BatchedMigrationReport, Deployment, EngineError, ExecutionReport, SiteMetrics};
pub use faults::{
    FaultInjector, FaultTrigger, FP_MIGRATION_BATCH, FP_MIGRATION_ROLLBACK, FP_REPLAY_PASS,
    FP_WATCH_RESOLVE,
};
pub use journal::{JournalRecord, JournalState, MigrationJournal};
pub use replay::{
    PredictedBytes, ReplayConfig, ReplayDeployment, ReplayModelError, ReplayReport, ReplayStream,
    RowSkew, SiteBytes,
};
pub use storage::{Fragment, RowSegment, Site};
