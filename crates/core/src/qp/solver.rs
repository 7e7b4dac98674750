//! Driving the linearized MIP to a partitioning.

use crate::config::CostConfig;
use crate::cost::coeffs::CostCoefficients;
use crate::cost::objective::evaluate;
use crate::error::CoreError;
use crate::qp::builder::{build_qp_model, QpOptions};
use crate::reduce::Reduction;
use crate::report::{SolveReport, Termination};
use crate::sa::{SaConfig, SaSolver};
use std::time::{Duration, Instant};
use vpart_ilp::{SolveParams, SolveStatus};
use vpart_model::{Instance, Partitioning};
use vpart_obs::Obs;

/// Configuration of the QP (exact) solver.
#[derive(Debug, Clone)]
pub struct QpConfig {
    /// Structural model options.
    pub options: QpOptions,
    /// Apply the reasonable-cuts reduction of §4 before building the MIP.
    pub reasonable_cuts: bool,
    /// Wall-clock limit (paper: 30 minutes).
    pub time_limit: Duration,
    /// Relative MIP gap (paper: 0.1%).
    pub mip_gap: f64,
    /// Node limit for branch & bound.
    pub node_limit: usize,
    /// Optional warm-start partitioning (e.g. an SA solution); any site
    /// labeling works. When `None`, an SA multi-start
    /// ([`priming_config`]) primes the incumbent — or, in disjoint mode,
    /// the single-site layout. QP never returns a layout worse than its
    /// incumbent.
    pub warm_start: Option<Partitioning>,
    /// Observability sink. Off by default ([`Obs::disabled`]); when
    /// enabled the solve records a `qp_solve` span plus the
    /// `qp_branch_nodes_total`, `qp_lp_pivots_total`,
    /// `qp_root_lp_pivots_total`, `qp_warm_lp_pivots_total` and
    /// `qp_lp_seconds_total` counters out of the branch & bound
    /// statistics.
    pub obs: Obs,
}

impl Default for QpConfig {
    fn default() -> Self {
        Self {
            options: QpOptions::default(),
            reasonable_cuts: true,
            time_limit: Duration::from_secs(30 * 60),
            mip_gap: 1e-3,
            node_limit: usize::MAX,
            warm_start: None,
            obs: Obs::disabled(),
        }
    }
}

impl QpConfig {
    /// Paper setup with a custom time limit.
    pub fn with_time_limit(seconds: f64) -> Self {
        Self {
            time_limit: Duration::from_secs_f64(seconds),
            ..Self::default()
        }
    }

    /// Disables attribute replication (Table 5's disjoint mode).
    pub fn disjoint(mut self) -> Self {
        self.options.allow_replication = false;
        self
    }
}

/// The SA multi-start that primes branch & bound when no warm start is
/// given: the default annealing schedule and seed over 4 chains on one
/// thread, each chain capped at an eighth of the QP time limit (so priming
/// spends at most half of it).
pub fn priming_config(time_limit: Duration) -> SaConfig {
    SaConfig {
        time_limit: (time_limit / 8).min(SaConfig::default().time_limit),
        ..SaConfig::default()
    }
    .multi_start(4, 1)
}

/// The exact solver: builds and solves the linearized program (7).
#[derive(Debug, Clone, Default)]
pub struct QpSolver {
    /// Solver configuration.
    pub config: QpConfig,
}

impl QpSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: QpConfig) -> Self {
        Self { config }
    }

    /// Finds a minimum-cost partitioning of `instance` over `n_sites`.
    pub fn solve(
        &self,
        instance: &Instance,
        n_sites: usize,
        cost: &CostConfig,
    ) -> Result<SolveReport, CoreError> {
        cost.validate()?;
        if n_sites == 0 {
            return Err(CoreError::Model(vpart_model::ModelError::NoSites));
        }
        let start = Instant::now();
        let span = self.config.obs.span_begin(
            "qp_solve",
            &[
                ("n_sites", n_sites.into()),
                ("reasonable_cuts", self.config.reasonable_cuts.into()),
            ],
        );

        // Reasonable-cuts reduction (§4).
        let reduction = if self.config.reasonable_cuts {
            Reduction::compute(instance)
        } else {
            None
        };
        let work_instance = reduction.as_ref().map_or(instance, |r| &r.reduced);

        let coeffs = CostCoefficients::compute(work_instance, cost);
        let art = build_qp_model(work_instance, &coeffs, n_sites, cost, &self.config.options);

        // Incumbent: the supplied partitioning, else a seeded SA
        // multi-start (the single-site layout in disjoint mode, where SA's
        // replicas would be infeasible). Its sites are relabeled in
        // first-use order so the symmetry-breaking rows accept it, and it
        // is restricted to group space under reduction. An infeasible
        // start (e.g. replicated under disjoint mode) is simply dropped.
        let warm = match &self.config.warm_start {
            Some(p) => Some(p.clone()),
            None if self.config.options.allow_replication => {
                SaSolver::new(priming_config(self.config.time_limit))
                    .solve(instance, n_sites, cost)
                    .ok()
                    .map(|r| r.partitioning)
            }
            None => Partitioning::single_site(instance, n_sites).ok(),
        };
        let initial = warm.as_ref().and_then(|p| {
            let p = p.canonicalized();
            let p = match &reduction {
                Some(r) => r.restrict(&p),
                None => p,
            };
            let vals = art.assignment_from(&coeffs, &p);
            art.model.is_feasible(&vals, 1e-6).then_some(vals)
        });

        let params = SolveParams {
            // Priming and model building already spent part of the budget.
            time_limit: self.config.time_limit.saturating_sub(start.elapsed()),
            mip_gap: self.config.mip_gap,
            node_limit: self.config.node_limit,
            int_tol: 1e-6,
            initial_solution: initial,
        };
        let sol = art.model.solve(&params)?;

        match sol.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {}
            SolveStatus::Infeasible => {
                return Err(CoreError::Ilp("model unexpectedly infeasible".into()));
            }
            SolveStatus::Unbounded => {
                return Err(CoreError::Ilp("model unexpectedly unbounded".into()));
            }
            SolveStatus::NoSolutionFound => return Err(CoreError::NoSolution),
        }

        let mut part = art.extract(&sol.values);
        let mut rebalanced_members = 0usize;
        if let Some(r) = &reduction {
            part = r.expand(&part);
            // The reduced model pins group members together; with load
            // balancing in the objective, splitting them can lower the max
            // load at unchanged cost (§4's λ < 1 caveat). Objective (4) is
            // not raised, so any optimality claim below still holds.
            if cost.lambda < 1.0 {
                let (better, moved) = r.rebalance_expanded(instance, &part, cost);
                if moved > 0 {
                    part = better;
                    rebalanced_members = moved;
                }
            }
        }
        part.validate(instance, !self.config.options.allow_replication)?;

        let mut breakdown = evaluate(instance, &part, cost);
        // Incumbent guarantee: never return worse than the warm start. The
        // MIP terminates within `mip_gap` of the model optimum (the paper
        // runs GLPK at 0.1%), and under reduction the warm start is only
        // usable in restricted (union-replicated) form, so the extracted
        // solution can evaluate slightly above the original warm start
        // even when the solve reports success.
        let mut warm_start_won = false;
        if let Some(ws) = &warm {
            if ws
                .validate(instance, !self.config.options.allow_replication)
                .is_ok()
            {
                let ws_breakdown = evaluate(instance, ws, cost);
                if ws_breakdown.objective6 < breakdown.objective6 {
                    part = ws.clone();
                    breakdown = ws_breakdown;
                    warm_start_won = true;
                    rebalanced_members = 0; // the rebalanced layout was discarded
                }
            }
        }
        // A warm start beating the "optimal" MIP solution means the proof
        // only covers the (gap-tolerant, possibly reduced) model — don't
        // claim optimality for a solution the model couldn't express.
        let termination = if sol.status == SolveStatus::Optimal && !warm_start_won {
            Termination::Optimal
        } else {
            Termination::LimitReached
        };
        let stats = &sol.stats;
        let lp_s = stats.lp_time.as_secs_f64();
        let obs = &self.config.obs;
        if obs.is_enabled() {
            obs.counter_add("qp_branch_nodes_total", stats.nodes as f64);
            obs.counter_add("qp_lp_pivots_total", stats.lp_iterations as f64);
            obs.counter_add("qp_root_lp_pivots_total", stats.root_lp_iterations as f64);
            obs.counter_add("qp_warm_lp_pivots_total", stats.warm_lp_iterations as f64);
            obs.counter_add("qp_lp_seconds_total", lp_s);
            obs.observe_wall("solve_wall_seconds", start.elapsed().as_secs_f64());
        }
        obs.span_end(
            span,
            &[
                ("nodes", stats.nodes.into()),
                ("lp_pivots", stats.lp_iterations.into()),
                ("root_pivots", stats.root_lp_iterations.into()),
                ("warm_pivots", stats.warm_lp_iterations.into()),
                ("lp_s", lp_s.into()),
                ("exact", (termination == Termination::Optimal).into()),
                ("objective6", breakdown.objective6.into()),
                ("gap", sol.gap.into()),
            ],
        );
        Ok(SolveReport {
            partitioning: part,
            breakdown,
            termination,
            elapsed: start.elapsed(),
            detail: format!(
                "mip: {} nodes, {} lp iterations ({} root, {} warm), lp time {:.3} s, \
                 gap {:.4}%, reduced |A| {}{}{}",
                stats.nodes,
                stats.lp_iterations,
                stats.root_lp_iterations,
                stats.warm_lp_iterations,
                lp_s,
                sol.gap * 100.0,
                work_instance.n_attrs(),
                if rebalanced_members > 0 {
                    format!(", rebalanced {rebalanced_members} group member(s)")
                } else {
                    String::new()
                },
                if warm_start_won {
                    ", warm start retained (better under evaluate)"
                } else {
                    ""
                },
            ),
            restarts: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{AttrId, Schema, SiteId, Workload};

    /// Two independent read transactions on two tables: the obvious optimum
    /// for 2 sites splits them (each table fully local to its reader).
    fn separable() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("r1", 10.0), ("r2", 10.0)]).unwrap();
        sb.table("S", &[("s1", 10.0), ("s2", 10.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0), AttrId(1)]))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(2), AttrId(3)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("sep", schema, wb.build().unwrap()).unwrap()
    }

    /// One wide table read by two transactions on disjoint column sets.
    /// Vertical partitioning should cut the table so each reader only pays
    /// its own columns.
    fn cuttable() -> Instance {
        let mut sb = Schema::builder();
        sb.table("W", &[("a", 100.0), ("b", 100.0), ("c", 1.0), ("d", 1.0)])
            .unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0), AttrId(1)]))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(2), AttrId(3)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("cut", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn splits_separable_workload() {
        let ins = separable();
        let cfg = CostConfig::default();
        let report = QpSolver::default().solve(&ins, 2, &cfg).unwrap();
        assert_eq!(report.termination, Termination::Optimal);
        // Optimal: each transaction alone with its table → each read pays
        // exactly its own table width (20 per txn, ×1 row ×freq 1).
        assert_eq!(report.breakdown.objective4, 40.0);
        let p = &report.partitioning;
        assert_ne!(
            p.site_of(vpart_model::TxnId(0)),
            p.site_of(vpart_model::TxnId(1))
        );
    }

    #[test]
    fn single_site_matches_trivial_layout() {
        let ins = separable();
        let cfg = CostConfig::default();
        let report = QpSolver::default().solve(&ins, 1, &cfg).unwrap();
        let trivial = Partitioning::single_site(&ins, 1).unwrap();
        let trivial_cost = evaluate(&ins, &trivial, &cfg).objective4;
        assert_eq!(report.breakdown.objective4, trivial_cost);
    }

    #[test]
    fn vertical_cut_of_wide_table() {
        let ins = cuttable();
        let cfg = CostConfig::default();
        let report = QpSolver::default().solve(&ins, 2, &cfg).unwrap();
        assert_eq!(report.termination, Termination::Optimal);
        // Each reader pays only its columns: 200 (a+b) + 2 (c+d).
        assert_eq!(report.breakdown.objective4, 202.0);
    }

    #[test]
    fn disjoint_mode_never_beats_replicated() {
        let ins = cuttable();
        let cfg = CostConfig::default();
        let replicated = QpSolver::default().solve(&ins, 2, &cfg).unwrap();
        let disjoint = QpSolver::new(QpConfig::default().disjoint())
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert!(!disjoint.partitioning.is_replicated());
        assert!(disjoint.breakdown.objective4 >= replicated.breakdown.objective4 - 1e-9);
    }

    #[test]
    fn reduction_and_pruning_do_not_change_optimum() {
        let ins = cuttable();
        let cfg = CostConfig::default().with_lambda(1.0);
        let mut costs = Vec::new();
        for (cuts, prune, sym) in [
            (true, true, true),
            (false, false, false),
            (false, true, false),
            (true, false, true),
        ] {
            let qc = QpConfig {
                reasonable_cuts: cuts,
                options: QpOptions {
                    prune_linearization: prune,
                    symmetry_breaking: sym,
                    ..QpOptions::default()
                },
                mip_gap: 0.0,
                ..QpConfig::default()
            };
            let r = QpSolver::new(qc).solve(&ins, 2, &cfg).unwrap();
            assert_eq!(r.termination, Termination::Optimal);
            costs.push(r.breakdown.objective4);
        }
        for w in costs.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6, "costs diverge: {costs:?}");
        }
    }

    #[test]
    fn warm_start_is_accepted() {
        let ins = separable();
        let cfg = CostConfig::default();
        let warm = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        let qc = QpConfig {
            reasonable_cuts: false, // warm start only usable unreduced
            warm_start: Some(warm),
            ..QpConfig::default()
        };
        let r = QpSolver::new(qc).solve(&ins, 2, &cfg).unwrap();
        assert_eq!(r.termination, Termination::Optimal);
        assert_eq!(r.breakdown.objective4, 40.0);
    }

    #[test]
    fn zero_sites_rejected() {
        let ins = separable();
        assert!(matches!(
            QpSolver::default().solve(&ins, 0, &CostConfig::default()),
            Err(CoreError::Model(vpart_model::ModelError::NoSites))
        ));
    }
}
