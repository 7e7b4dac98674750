//! # vpart — vertical partitioning of relational OLTP databases
//!
//! A production-quality reproduction of Amossen, *"Vertical partitioning of
//! relational OLTP databases using integer programming"* (ICDE Workshops
//! 2010): given a schema, a workload of transactions and a number of sites,
//! find a distribution of attributes (with replication) and transactions to
//! sites that preserves single-sitedness of reads and minimizes bytes
//! read/written/transferred.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — schemas, workloads, instances, partitionings,
//! * [`core`] — the cost model and the QP / SA / exhaustive solvers,
//! * [`instances`] — TPC-C v5 and the paper's random instance classes,
//! * [`ingest`] — SQL DDL + workload ingestion into instances (query
//!   logs, `pg_stat_statements` / `performance_schema` dumps),
//! * [`engine`] — an H-store-like row store built once per partitioning:
//!   production-rate trace replay, its only metered pass (`vpart replay`:
//!   true-byte meters vs the cost model's prediction), crash-safe batched
//!   migrations through a write-ahead journal, and deterministic seeded
//!   fault injection (`--fault`),
//! * [`online`] — adaptive repartitioning: streaming workload tracking,
//!   drift-triggered warm re-solves and minimum-movement migration plans,
//!   with hysteresis, movement-cost amortization, retry backoff and
//!   degraded-mode fallbacks around the migration machinery,
//! * [`ilp`] — the from-scratch MILP solver substrate,
//! * [`obs`] — observability: metrics registry, structured tracing and
//!   trace inspection (`--trace-out` / `--metrics-out` / `vpart inspect`).
//!
//! ## Quick start
//!
//! ```
//! use vpart::prelude::*;
//!
//! let instance = vpart::instances::tpcc();
//! let cost = CostConfig::default();            // p = 8, λ = 0.9
//! let report = SaSolver::new(SaConfig::fast_deterministic(42))
//!     .solve(&instance, 2, &cost)
//!     .unwrap();
//! let baseline = Partitioning::single_site(&instance, 1).unwrap();
//! assert!(report.cost() < vpart::core::evaluate(&instance, &baseline, &cost).objective4);
//! ```

pub use vpart_core as core;
pub use vpart_engine as engine;
pub use vpart_ilp as ilp;
pub use vpart_ingest as ingest;
pub use vpart_instances as instances;
pub use vpart_model as model;
pub use vpart_obs as obs;
pub use vpart_online as online;

use crate::core::{CoreError, CostConfig, SolveReport};
use crate::model::Instance;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::core::exact::{ExactConfig, ExactSolver};
    pub use crate::core::qp::{QpConfig, QpSolver};
    pub use crate::core::sa::{SaConfig, SaSolver};
    pub use crate::core::{
        evaluate, CostBreakdown, CostConfig, IncrementalCost, RestartStat, SolveReport,
        WriteAccounting,
    };
    pub use crate::engine::{
        BatchedMigrationReport, Deployment, FaultInjector, FaultTrigger, JournalRecord,
        JournalState, MigrationJournal, PredictedBytes, ReplayConfig, ReplayDeployment,
        ReplayModelError, ReplayReport, ReplayStream, RowSkew,
    };
    pub use crate::ingest::{
        ConfidenceLevel, IngestError, IngestOptions, IngestReport, Ingestion, StatsFormat,
        WorkloadFrontend,
    };
    pub use crate::model::{
        AttrId, BatchedMigrationPlan, Instance, MigrationBatch, MigrationPlan, Partitioning,
        QueryId, Schema, SiteId, TableId, TxnId, Workload,
    };
    pub use crate::obs::{Obs, TraceSummary};
    pub use crate::online::{
        DecayMode, DriftConfig, OnlineWorkload, TrackerConfig, WatchConfig, Watcher,
    };
    pub use crate::Algorithm;
}

/// Algorithm selector for the high-level [`solve`] helper (and the CLI).
#[derive(Debug, Clone)]
pub enum Algorithm {
    /// The exact linearized-MIP solver (§2).
    Qp(core::qp::QpConfig),
    /// The simulated-annealing heuristic (§3).
    Sa(core::sa::SaConfig),
    /// Exhaustive enumeration (tiny instances; ground truth for tests).
    Exact(core::exact::ExactConfig),
}

impl Algorithm {
    /// Default QP configuration.
    pub fn qp() -> Self {
        Self::Qp(core::qp::QpConfig::default())
    }

    /// Default (seeded) SA configuration.
    pub fn sa(seed: u64) -> Self {
        Self::Sa(core::sa::SaConfig {
            seed,
            ..Default::default()
        })
    }

    /// Multi-start SA: `restarts` independent chains (seeds
    /// `seed..seed + restarts`) over at most `threads` OS threads, merged
    /// deterministically (best objective (6), ties to the lowest seed).
    pub fn sa_multi_start(seed: u64, restarts: usize, threads: usize) -> Self {
        Self::Sa(core::sa::SaConfig {
            seed,
            restarts,
            threads,
            ..Default::default()
        })
    }

    /// Warm re-solve: a single SA chain annealed from `incumbent` instead
    /// of a random start (the online repartitioning repair step). The
    /// result's objective (6) never regresses below the incumbent's, and
    /// the solve costs a fraction of a cold multi-start.
    pub fn resolve_from(incumbent: &model::Partitioning, seed: u64) -> Self {
        Self::Sa(core::sa::SaConfig::fast_deterministic(seed).warm_started(incumbent.clone()))
    }
}

/// One-call solve: partitions `instance` over `n_sites` with the chosen
/// algorithm under `cost`.
pub fn solve(
    instance: &Instance,
    n_sites: usize,
    algorithm: &Algorithm,
    cost: &CostConfig,
) -> Result<SolveReport, CoreError> {
    match algorithm {
        Algorithm::Qp(cfg) => core::qp::QpSolver::new(cfg.clone()).solve(instance, n_sites, cost),
        Algorithm::Sa(cfg) => core::sa::SaSolver::new(cfg.clone()).solve(instance, n_sites, cost),
        Algorithm::Exact(cfg) => {
            core::exact::ExactSolver::new(cfg.clone()).solve(instance, n_sites, cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_level_solve_dispatches() {
        let ins = instances::by_name("rndBt4x15").unwrap();
        let cost = CostConfig::default();
        let sa = solve(&ins, 2, &Algorithm::sa(1), &cost).unwrap();
        sa.partitioning.validate(&ins, false).unwrap();
        // Warm-start the QP with the SA solution: the dominance assertion
        // below then holds by construction (the solver never returns worse
        // than its warm start), independent of the MIP gap and of the §4
        // reduction's λ<1 inexactness.
        let qc = core::qp::QpConfig {
            warm_start: Some(sa.partitioning.clone()),
            ..core::qp::QpConfig::with_time_limit(60.0)
        };
        let qp = solve(&ins, 2, &Algorithm::Qp(qc), &cost).unwrap();
        qp.partitioning.validate(&ins, false).unwrap();
        assert!(qp.breakdown.objective6 <= sa.breakdown.objective6 + 1e-9);
    }

    #[test]
    fn resolve_from_never_regresses_below_its_incumbent() {
        let ins = instances::by_name("rndBt4x15").unwrap();
        let cost = CostConfig::default();
        let cold = solve(&ins, 2, &Algorithm::sa(1), &cost).unwrap();
        let warm = solve(
            &ins,
            2,
            &Algorithm::resolve_from(&cold.partitioning, 2),
            &cost,
        )
        .unwrap();
        warm.partitioning.validate(&ins, false).unwrap();
        assert!(warm.breakdown.objective6 <= cold.breakdown.objective6 + 1e-9);
    }
}
