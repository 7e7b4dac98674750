//! Shared harness for the paper-table reproduction binaries.
//!
//! Each binary regenerates one table of the paper's §5 evaluation:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table 1 — parameter influence on SA cost |
//! | `table2` | Table 2 — random instance class definitions |
//! | `table3` | Table 3 — QP vs SA cost/time comparison |
//! | `table4` | Table 4 — actual TPC-C partitioning for 3 sites |
//! | `table5` | Table 5 — replication vs disjoint partitioning |
//! | `table6` | Table 6 — local vs remote partition placement |
//! | `ablations` | design-choice ablations (reduction, pruning, …) |
//!
//! All binaries accept `--full` for paper-scale time limits (30 min QP
//! budget) and default to a *quick* mode that finishes in minutes while
//! preserving every qualitative relationship. Costs print in the paper's
//! units (`×10⁵`/`×10⁶` as per table).

use std::time::Duration;
use vpart_core::qp::{QpConfig, QpSolver};
use vpart_core::report::Termination;
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{evaluate, CostConfig};
use vpart_model::{Instance, Partitioning};

/// Quick-vs-full switch parsed from argv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Minutes-scale run (default).
    Quick,
    /// Paper-scale limits (`--full`).
    Full,
}

impl Mode {
    /// Parses `--full` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Mode::Full
        } else {
            Mode::Quick
        }
    }

    /// QP wall-clock budget per solve.
    pub fn qp_time_limit(self) -> Duration {
        match self {
            Mode::Quick => Duration::from_secs(60),
            Mode::Full => Duration::from_secs(30 * 60), // paper: 30 minutes
        }
    }

    /// SA wall-clock budget per solve.
    pub fn sa_time_limit(self) -> Duration {
        match self {
            Mode::Quick => Duration::from_secs(20),
            Mode::Full => Duration::from_secs(300),
        }
    }

    /// SA configuration used throughout the tables (fixed seed: the
    /// paper's heuristic numbers are also single runs).
    pub fn sa_config(self) -> SaConfig {
        let mut cfg = match self {
            Mode::Quick => SaConfig {
                inner_loops: 40,
                freeze_levels: 6,
                ..SaConfig::default()
            },
            Mode::Full => SaConfig::default(),
        };
        cfg.seed = 0x5EED;
        cfg.time_limit = self.sa_time_limit();
        cfg
    }

    /// QP configuration used throughout the tables.
    pub fn qp_config(self) -> QpConfig {
        QpConfig {
            time_limit: self.qp_time_limit(),
            ..QpConfig::default()
        }
    }
}

/// Result cell for cost/time tables, following the paper's conventions:
/// plain cost when solved, `(cost)` when a limit stopped the proof, `t/o`
/// when no solution was found.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Objective (4) of the returned partitioning, if any.
    pub cost: Option<f64>,
    /// Whether optimality was proven.
    pub optimal: bool,
    /// Solve wall time in seconds.
    pub secs: f64,
}

impl Cell {
    /// Formats the cost in units of `10^exp` per the paper's tables, to
    /// four significant digits.
    pub fn fmt_cost(&self, exp: i32) -> String {
        match self.cost {
            None => "t/o".to_owned(),
            Some(c) => {
                let v = sig4(c / 10f64.powi(exp));
                if self.optimal {
                    v
                } else {
                    format!("({v})")
                }
            }
        }
    }

    /// Formats the solve time in whole seconds.
    pub fn fmt_time(&self) -> String {
        format!("{:.0}", self.secs.max(0.0))
    }
}

/// `v` in plain decimal notation with four significant digits, so costs
/// that differ in their fourth digit never print alike.
pub fn sig4(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// Runs the QP solver, mapping errors to the paper's `t/o` convention.
pub fn run_qp(instance: &Instance, sites: usize, cost: &CostConfig, config: QpConfig) -> Cell {
    let start = std::time::Instant::now();
    match QpSolver::new(config).solve(instance, sites, cost) {
        Ok(r) => Cell {
            cost: Some(r.breakdown.objective4),
            optimal: r.termination == Termination::Optimal,
            secs: r.elapsed.as_secs_f64(),
        },
        Err(_) => Cell {
            cost: None,
            optimal: false,
            secs: start.elapsed().as_secs_f64(),
        },
    }
}

/// Runs the SA solver. Heuristic costs print unparenthesized (the paper
/// reserves parentheses for exact solves stopped by a limit), so the cell
/// is marked `optimal` for formatting despite carrying no proof.
pub fn run_sa(instance: &Instance, sites: usize, cost: &CostConfig, config: SaConfig) -> Cell {
    let start = std::time::Instant::now();
    match SaSolver::new(config).solve(instance, sites, cost) {
        Ok(r) => Cell {
            cost: Some(r.breakdown.objective4),
            optimal: true,
            secs: r.elapsed.as_secs_f64(),
        },
        Err(_) => Cell {
            cost: None,
            optimal: false,
            secs: start.elapsed().as_secs_f64(),
        },
    }
}

/// Single-site baseline cost (the `|S| = 1` column).
pub fn single_site_cost(instance: &Instance, cost: &CostConfig) -> f64 {
    let p = Partitioning::single_site(instance, 1).expect("one site is valid");
    evaluate(instance, &p, cost).objective4
}

/// Renders one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formatting_follows_paper_conventions() {
        let solved = Cell {
            cost: Some(133_000.0),
            optimal: true,
            secs: 1.2,
        };
        assert_eq!(solved.fmt_cost(6), "0.1330");
        let limited = Cell {
            cost: Some(332_000.0),
            optimal: false,
            secs: 1800.0,
        };
        assert_eq!(limited.fmt_cost(6), "(0.3320)");
        // Small costs keep four significant digits, not three decimals.
        let small = Cell {
            cost: Some(7_123.0),
            optimal: true,
            secs: 0.1,
        };
        assert_eq!(small.fmt_cost(6), "0.007123");
        assert_eq!(sig4(12_345.0), "12345");
        assert_eq!(sig4(12.3456), "12.35");
        let timeout = Cell {
            cost: None,
            optimal: false,
            secs: 1800.0,
        };
        assert_eq!(timeout.fmt_cost(6), "t/o");
        assert_eq!(limited.fmt_time(), "1800");
    }

    #[test]
    fn mode_budgets() {
        assert_eq!(Mode::Quick.qp_time_limit(), Duration::from_secs(60));
        assert_eq!(Mode::Full.qp_time_limit(), Duration::from_secs(1800));
        assert!(Mode::Quick.sa_config().inner_loops <= SaConfig::default().inner_loops);
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn harness_runs_tiny_solves() {
        let ins = vpart_instances::by_name("rndBt4x15").unwrap();
        let cost = CostConfig::default();
        let sa = run_sa(&ins, 2, &cost, SaConfig::fast_deterministic(1));
        assert!(sa.cost.is_some());
        assert!(single_site_cost(&ins, &cost) > 0.0);
    }
}
