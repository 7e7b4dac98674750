//! The "QP solver": the paper's linearized quadratic program (7).
//!
//! [`builder`] constructs the mixed-integer linear program — decision
//! variables `x[t][s]`, `y[a][s]`, linearization variables `u[t][a][s]`
//! and the max-load variable `m` — and [`solver`] drives the
//! `vpart-ilp` branch & bound, maps the solution back to a
//! [`vpart_model::Partitioning`], and packages a [`crate::SolveReport`].

pub mod builder;
pub mod solver;

pub use builder::{build_qp_model, QpArtifacts, QpOptions};
pub use solver::{priming_config, QpConfig, QpSolver};
