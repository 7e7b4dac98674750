//! A self-contained mixed-integer linear programming (MILP) solver.
//!
//! The paper solves its linearized quadratic program with GLPK 4.39. No
//! external solver is available in this environment, so this crate provides
//! the substrate from scratch:
//!
//! * [`Model`] — a sparse MILP builder (continuous/integer variables with
//!   bounds, linear constraints, min/max objective),
//! * a **bounded-variable simplex** ([`simplex`]): a two-phase primal
//!   simplex for cold solves and a dual simplex that re-solves an LP from a
//!   related LP's optimal [`simplex::Basis`] after its bounds tighten, both
//!   over an explicit basis inverse maintained by eta updates, with Dantzig
//!   pricing plus a Bland anti-cycling fallback, power-of-two row and
//!   column equilibration, and a deadline checked on every pivot,
//! * a light **presolve** (fixed-variable substitution, singleton-row bound
//!   tightening, empty-row elimination) applied once at the root
//!   ([`presolve`]),
//! * **branch & bound** ([`branch`]) with best-first node selection,
//!   first-fractional branching, children warm-started from their parent's
//!   optimal basis, a rounding primal heuristic, incumbent injection, time
//!   limit, node limit and relative MIP-gap termination — the same control
//!   knobs the paper uses for GLPK (30 min limit, 0.1% gap).
//!   [`SolveStats`] splits the simplex work into root and warm-child
//!   pivots and reports the LP wall time.
//!
//! The solver is exact on the scales exercised by the paper's evaluation
//! (it proves optimality where GLPK did) and degrades the same way (returns
//! the best incumbent when a limit is hit).
//!
//! ```
//! use vpart_ilp::{Model, SolveParams, Cmp, VarKind};
//!
//! // max 3x + 2y  s.t.  x + y <= 4, x <= 2.5, x,y integer >= 0
//! let mut m = Model::maximize();
//! let x = m.add_var("x", VarKind::Integer, 0.0, 2.5, 3.0);
//! let y = m.add_var("y", VarKind::Integer, 0.0, f64::INFINITY, 2.0);
//! m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! let sol = m.solve(&SolveParams::default()).unwrap();
//! assert_eq!(sol.objective.round(), 10.0); // x=2, y=2
//! ```

// Dense linear-algebra kernels use explicit index loops mirroring the
// textbook simplex formulations; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod branch;
pub mod error;
pub mod expr;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod solution;

pub use error::IlpError;
pub use expr::LinExpr;
pub use model::{Cmp, Model, VarKind, VarRef};
pub use solution::{Solution, SolveParams, SolveStats, SolveStatus};
