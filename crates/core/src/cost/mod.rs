//! The cost model of §2.1–2.2 and Appendix A.
//!
//! * [`coeffs`] — the static coefficients `c1(a,t)`, `c2(a)`, `c3(a,t)`,
//!   `c4(a)` induced by schema, workload and statistics,
//! * [`objective`] — one query-level walk that prices a partitioning both
//!   as the full breakdown of objective (4) and (6) and per transaction
//!   (the replay harness's model-vs-measured prediction), and one
//!   coefficient walk that scores objective (6) for the solvers,
//! * [`incremental`] — delta evaluation of objective (6) under point
//!   mutations (the SA inner loop's fast path),
//! * [`latency`] — the ψ-indicator latency term of Appendix A.

pub mod coeffs;
pub mod incremental;
pub mod latency;
pub mod objective;
