//! Core algorithms of *"Vertical partitioning of relational OLTP databases
//! using integer programming"* (Amossen, ICDE Workshops 2010).
//!
//! This crate implements the paper's primary contribution:
//!
//! * the **cost model** of §2.1–2.2 — coefficients `c1..c4`, the reported
//!   objective (4) `A + p·B`, the optimized objective (6) with load
//!   balancing weight `λ`, three write-accounting strategies, and the
//!   latency extension of Appendix A ([`cost`]),
//! * the **QP solver** — the linearized mixed-integer program (7) solved by
//!   branch & bound, with optional reasonable-cuts reduction and symmetry
//!   breaking ([`qp`]),
//! * the **SA solver** — the simulated-annealing heuristic of Algorithm 1
//!   with alternating exact subproblem re-optimization ([`sa`]),
//! * an **exhaustive reference solver** for tiny instances ([`exact`]), and
//! * the **reasonable cuts** instance reduction of §4 ([`reduce`]).
//!
//! Quick start: build an [`vpart_model::Instance`], pick a [`CostConfig`],
//! and run a solver:
//!
//! ```
//! use vpart_core::{CostConfig, sa::{SaConfig, SaSolver}};
//! use vpart_model::{Schema, Workload, Instance, AttrId, workload::QuerySpec};
//!
//! let mut sb = Schema::builder();
//! sb.table("T", &[("k", 4.0), ("v", 100.0)]).unwrap();
//! let schema = sb.build().unwrap();
//! let mut wb = Workload::builder(&schema);
//! let q = wb.add_query(QuerySpec::read("q").access(&[AttrId(0)])).unwrap();
//! wb.transaction("txn", &[q]).unwrap();
//! let instance = Instance::new("ex", schema, wb.build().unwrap()).unwrap();
//!
//! let report = SaSolver::new(SaConfig::fast_deterministic(7))
//!     .solve(&instance, 2, &CostConfig::default())
//!     .unwrap();
//! assert!(report.partitioning.validate(&instance, false).is_ok());
//! ```

// Coefficient and model-building kernels use explicit index loops that
// mirror the paper's (t, a, s) subscripts.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod cost;
pub mod error;
pub mod exact;
pub mod qp;
pub mod reduce;
pub mod report;
pub mod sa;

pub use config::{CostConfig, WriteAccounting};
pub use cost::coeffs::CostCoefficients;
pub use cost::incremental::IncrementalCost;
pub use cost::objective::{
    evaluate, fast_objective6, predicted_txn_bytes, CostBreakdown, TxnBytes,
};
pub use error::CoreError;
pub use report::{RestartStat, SolveReport};
