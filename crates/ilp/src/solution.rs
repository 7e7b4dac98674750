//! Solve parameters, statuses and results.

use std::time::Duration;

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Solved to proven optimality (within the MIP gap tolerance).
    Optimal,
    /// A feasible incumbent exists but a limit (time/nodes) stopped the
    /// proof — the paper's "best found cost in parentheses" convention.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The relaxation is unbounded in the optimization direction.
    Unbounded,
    /// A limit was reached before any integer-feasible solution was found —
    /// the paper's "t/o" convention.
    NoSolutionFound,
}

/// Knobs controlling branch & bound; mirrors the controls the paper uses
/// for GLPK (time limit, MIP gap).
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Wall-clock limit for the whole solve, checked on every simplex
    /// pivot.
    pub time_limit: Duration,
    /// Relative MIP gap at which the incumbent is accepted as optimal
    /// (paper: 0.1% = 0.001).
    pub mip_gap: f64,
    /// Maximum number of branch & bound nodes.
    pub node_limit: usize,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Optional starting incumbent (full variable assignment). Must be
    /// feasible; gives branch & bound an immediate upper bound.
    pub initial_solution: Option<Vec<f64>>,
}

impl Default for SolveParams {
    fn default() -> Self {
        Self {
            time_limit: Duration::from_secs(30 * 60),
            mip_gap: 1e-3,
            node_limit: usize::MAX,
            int_tol: 1e-6,
            initial_solution: None,
        }
    }
}

impl SolveParams {
    /// Convenience: a parameter set with the given time limit.
    pub fn with_time_limit(seconds: f64) -> Self {
        Self {
            time_limit: Duration::from_secs_f64(seconds),
            ..Self::default()
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Branch & bound nodes processed.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves.
    pub lp_iterations: usize,
    /// Simplex iterations of the root LP relaxation.
    pub root_lp_iterations: usize,
    /// Simplex iterations of child LPs re-solved from their parent's
    /// optimal basis (cold fallbacks excluded).
    pub warm_lp_iterations: usize,
    /// Wall-clock time spent inside LP solves.
    pub lp_time: Duration,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True if every explored node's LP solved cleanly (optimality proofs
    /// are only claimed when true).
    pub exact: bool,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Objective value of the incumbent in the *model's* sense
    /// (meaningless unless status is `Optimal`/`Feasible`).
    pub objective: f64,
    /// Incumbent variable values (empty unless `Optimal`/`Feasible`).
    pub values: Vec<f64>,
    /// Best proven bound on the optimum (in the model's sense).
    pub best_bound: f64,
    /// Relative gap between incumbent and bound (0 when proven optimal).
    pub gap: f64,
    /// Search statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// True if a usable assignment is available.
    pub fn has_solution(&self) -> bool {
        matches!(self.status, SolveStatus::Optimal | SolveStatus::Feasible)
    }

    /// The value of variable `v` in the incumbent.
    pub fn value(&self, v: crate::model::VarRef) -> f64 {
        self.values[v.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_controls() {
        let p = SolveParams::default();
        assert_eq!(p.time_limit, Duration::from_secs(1800));
        assert_eq!(p.mip_gap, 1e-3);
    }

    #[test]
    fn with_time_limit() {
        let p = SolveParams::with_time_limit(1.5);
        assert_eq!(p.time_limit, Duration::from_secs_f64(1.5));
    }
}
