//! Branch & bound over the LP relaxation.
//!
//! Best-first search (ties broken toward deeper nodes, giving a plunging
//! flavor), first-fractional branching in variable order, and a rounding
//! primal heuristic. The model is presolved once; every node LP is that
//! root LP under the node's branching bounds, re-solved from its parent's
//! optimal basis by the dual simplex ([`resolve_lp`]). Termination mirrors
//! the paper's GLPK setup: wall-clock time limit (checked on every simplex
//! pivot), relative MIP gap (0.1% there) and an optional node limit.
//! When a limit stops the proof the best incumbent is reported with status
//! [`SolveStatus::Feasible`] — the "cost in parentheses" convention of the
//! paper's Table 3.

use crate::error::IlpError;
use crate::model::{Model, Sense, VarKind};
use crate::presolve::{presolve, Presolved};
use crate::simplex::{resolve_lp, Basis, LpForm, LpOutcome};
use crate::solution::{Solution, SolveParams, SolveStats, SolveStatus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Persistent chain of branching decisions (shared tails between siblings),
/// over the root LP's columns.
#[derive(Debug, Clone, Default)]
struct Chain(Option<Rc<ChainNode>>);

#[derive(Debug)]
struct ChainNode {
    var: usize,
    lo: f64,
    hi: f64,
    parent: Chain,
}

impl Chain {
    fn extend(&self, var: usize, lo: f64, hi: f64) -> Chain {
        Chain(Some(Rc::new(ChainNode {
            var,
            lo,
            hi,
            parent: self.clone(),
        })))
    }

    /// The decisions, newest first.
    fn decisions(&self) -> impl Iterator<Item = &ChainNode> {
        std::iter::successors(self.0.as_deref(), |node| node.parent.0.as_deref())
    }

    /// Intersects every decision into the bounds `lower`/`upper`.
    fn tighten(&self, lower: &mut [f64], upper: &mut [f64]) {
        for d in self.decisions() {
            lower[d.var] = lower[d.var].max(d.lo);
            upper[d.var] = upper[d.var].min(d.hi);
        }
    }
}

/// What a node whose LP came back infeasible means for the search.
#[derive(Debug, PartialEq)]
enum InfeasibleNode {
    /// No point lies in the node's bounds: prune it.
    Prune,
    /// The incumbent lies inside the node's bounds, so the LP was not
    /// really infeasible: a numerical failure that keeps the bound open.
    GiveUp,
}

/// Judges an infeasible node LP against the incumbent, whose value of root
/// LP column `k` is `incumbent[keep[k]]`.
fn infeasible_node(chain: &Chain, keep: &[usize], incumbent: Option<&[f64]>) -> InfeasibleNode {
    const TOL: f64 = 1e-6;
    match incumbent {
        Some(values)
            if chain.decisions().all(|d| {
                let v = values[keep[d.var]];
                v >= d.lo - TOL && v <= d.hi + TOL
            }) =>
        {
            InfeasibleNode::GiveUp
        }
        _ => InfeasibleNode::Prune,
    }
}

struct Node {
    bound: f64,
    depth: u32,
    seq: u64,
    chain: Chain,
    /// The parent's optimal basis (`None` at the root).
    basis: Option<Rc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound on top,
        // then the newest node (plunge).
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Solves `model` by branch & bound. See [`Model::solve`].
pub fn solve(model: &Model, params: &SolveParams) -> Result<Solution, IlpError> {
    model.validate()?;
    let start = Instant::now();
    let deadline = start.checked_add(params.time_limit);
    let n = model.n_vars();

    // Work in minimization sense.
    let mut work = model.clone();
    let cmul = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    if cmul < 0.0 {
        for v in &mut work.vars {
            v.obj = -v.obj;
        }
    }

    let mut stats = SolveStats {
        exact: true,
        ..Default::default()
    };
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    if let Some(init) = &params.initial_solution {
        if init.len() != n {
            return Err(IlpError::BadInitialSolution(format!(
                "length {} != {} variables",
                init.len(),
                n
            )));
        }
        if !work.is_feasible(init, 1e-6) {
            return Err(IlpError::BadInitialSolution("infeasible".into()));
        }
        incumbent = Some((work.objective_value(init), init.clone()));
    }

    // Presolve once. Every node LP is the root LP with the node's branching
    // bounds intersected into the root bounds; `None` means presolve
    // already proved the model infeasible.
    let mut root = match presolve(&work, &vec![None; n]) {
        Presolved::Reduced(red) => {
            let lp = LpForm {
                n: red.keep.len(),
                cols: red.columns(),
                cmps: red.cmps.clone(),
                rhs: red.rhs.clone(),
                lower: red.lower.clone(),
                upper: red.upper.clone(),
                obj: red.obj.clone(),
            };
            // Root LP column of each original variable (fixed ones: none).
            let mut column = vec![None; n];
            for (k, &j) in red.keep.iter().enumerate() {
                column[j] = Some(k);
            }
            Some((red, lp, column))
        }
        Presolved::Infeasible => None,
    };

    let int_tol = params.int_tol;
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(Node {
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq,
        chain: Chain::default(),
        basis: None,
    });
    // Bound contributed by nodes whose LP failed numerically (conservative).
    let mut lost_bound = f64::INFINITY;
    let mut unbounded = false;

    let accept_candidate = |cand: &[f64], work: &Model, inc: &mut Option<(f64, Vec<f64>)>| {
        if !work.is_feasible(cand, 1e-5) {
            return;
        }
        let obj = work.objective_value(cand);
        if inc.as_ref().is_none_or(|(best, _)| obj < *best - 1e-12) {
            *inc = Some((obj, cand.to_vec()));
        }
    };

    while let Some(node) = heap.pop() {
        // Global optimality / gap check against the best open bound.
        if let Some((inc_obj, _)) = &incumbent {
            let global_bound = node.bound.min(lost_bound);
            let gap = (inc_obj - global_bound) / inc_obj.abs().max(1e-10);
            if gap <= params.mip_gap || node.bound >= inc_obj - 1e-9 * inc_obj.abs().max(1.0) {
                // Everything still open is at least as bad: finished.
                heap.clear();
                break;
            }
        }
        if stats.nodes >= params.node_limit || start.elapsed() >= params.time_limit {
            heap.push(node); // keep it open for bound reporting
            break;
        }
        stats.nodes += 1;

        let Some((red, lp, column)) = root.as_mut() else {
            continue; // presolve proved infeasibility
        };
        lp.lower.copy_from_slice(&red.lower);
        lp.upper.copy_from_slice(&red.upper);
        node.chain.tighten(&mut lp.lower, &mut lp.upper);

        let lp_start = Instant::now();
        let run = resolve_lp(lp, node.basis.as_deref(), deadline);
        stats.lp_time += lp_start.elapsed();
        let Ok(run) = run else {
            // Numerical failure: surrender the node, keep correctness.
            stats.exact = false;
            lost_bound = lost_bound.min(node.bound);
            continue;
        };
        stats.lp_iterations += run.iterations;
        if node.depth == 0 {
            stats.root_lp_iterations += run.iterations;
        } else if run.warm {
            stats.warm_lp_iterations += run.iterations;
        }
        let (full, node_obj, basis) = match run.outcome {
            LpOutcome::Optimal { x, obj, basis, .. } => {
                (red.expand(&x), obj + red.obj_offset, Rc::new(basis))
            }
            LpOutcome::Infeasible => {
                let inc = incumbent.as_ref().map(|(_, v)| v.as_slice());
                if infeasible_node(&node.chain, &red.keep, inc) == InfeasibleNode::GiveUp {
                    stats.exact = false;
                    lost_bound = lost_bound.min(node.bound);
                }
                continue;
            }
            LpOutcome::Unbounded => {
                if node.depth == 0 && incumbent.is_none() {
                    unbounded = true;
                    break;
                }
                stats.exact = false;
                lost_bound = lost_bound.min(node.bound);
                continue;
            }
            LpOutcome::TimeLimit => {
                heap.push(node); // keep it open for bound reporting
                break;
            }
        };

        // Prune by bound.
        if let Some((inc_obj, _)) = &incumbent {
            if node_obj >= inc_obj - 1e-9 * inc_obj.abs().max(1.0) {
                continue;
            }
        }

        // Branch on the *first* fractional integer variable (static
        // priority order). Model builders exploit this: the vertical
        // partitioning MIP creates transaction-assignment variables first,
        // so the search fixes transaction placement before attribute
        // placement — the decisions everything else cascades from.
        let mut branch: Option<usize> = None;
        for (j, v) in work.vars.iter().enumerate() {
            if v.kind != VarKind::Integer {
                continue;
            }
            let x = full[j];
            if (x - x.round()).abs() > int_tol {
                branch = Some(j);
                break;
            }
        }

        match branch {
            None => {
                // Integral: round and accept.
                let mut cand = full.clone();
                for (j, v) in work.vars.iter().enumerate() {
                    if v.kind == VarKind::Integer {
                        cand[j] = cand[j].round();
                    }
                }
                let before = incumbent.as_ref().map(|(o, _)| *o);
                accept_candidate(&cand, &work, &mut incumbent);
                let accepted = incumbent.as_ref().map(|(o, _)| *o) != before;
                let beats = before.is_none_or(|b| node_obj < b - 1e-12);
                if !accepted && beats {
                    // An integral LP solution that should have improved the
                    // incumbent failed the feasibility re-check (numerical
                    // noise). Closing the node would silently lose the
                    // subtree — keep the bound conservative instead.
                    stats.exact = false;
                    lost_bound = lost_bound.min(node_obj);
                }
            }
            Some(j) => {
                // Primal rounding heuristic for an early incumbent.
                let mut cand = full.clone();
                for (jj, v) in work.vars.iter().enumerate() {
                    if v.kind == VarKind::Integer {
                        cand[jj] = cand[jj].round();
                    }
                }
                accept_candidate(&cand, &work, &mut incumbent);

                // A fractional variable is never fixed by presolve.
                let Some(k) = column[j] else {
                    return Err(IlpError::Internal("branching on a presolved variable"));
                };
                let x = full[j];
                for (lo, hi) in [(f64::NEG_INFINITY, x.floor()), (x.ceil(), f64::INFINITY)] {
                    seq += 1;
                    heap.push(Node {
                        bound: node_obj,
                        depth: node.depth + 1,
                        seq,
                        chain: node.chain.extend(k, lo, hi),
                        basis: Some(basis.clone()),
                    });
                }
            }
        }
    }

    stats.elapsed = start.elapsed();
    if unbounded {
        return Ok(Solution {
            status: SolveStatus::Unbounded,
            objective: f64::NAN,
            values: Vec::new(),
            best_bound: f64::NEG_INFINITY * cmul,
            gap: f64::INFINITY,
            stats,
        });
    }

    // The proven bound is the weakest open node (or the incumbent if closed).
    let open_bound = heap.iter().map(|nd| nd.bound).fold(lost_bound, f64::min);
    let search_exhausted = heap.is_empty() && lost_bound == f64::INFINITY;

    match incumbent {
        Some((obj, values)) => {
            let bound = if search_exhausted {
                obj
            } else {
                open_bound.min(obj)
            };
            let gap = ((obj - bound) / obj.abs().max(1e-10)).max(0.0);
            let proven = search_exhausted || gap <= params.mip_gap;
            Ok(Solution {
                status: if proven && stats.exact {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::Feasible
                },
                objective: cmul * obj,
                values,
                best_bound: cmul * bound,
                gap,
                stats,
            })
        }
        None => {
            if search_exhausted {
                Ok(Solution {
                    status: SolveStatus::Infeasible,
                    objective: f64::NAN,
                    values: Vec::new(),
                    best_bound: cmul * f64::INFINITY,
                    gap: f64::INFINITY,
                    stats,
                })
            } else {
                Ok(Solution {
                    status: SolveStatus::NoSolutionFound,
                    objective: f64::NAN,
                    values: Vec::new(),
                    best_bound: cmul * open_bound,
                    gap: f64::INFINITY,
                    stats,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Cmp;

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary → a=0? Let's see:
        // combos: a+b (7w? 3+4=7>6 no), b+c (6w, 20), a+c (5w, 17), so 20.
        let mut m = Model::maximize();
        let a = m.binary("a", 10.0);
        let b = m.binary("b", 13.0);
        let c = m.binary("c", 7.0);
        m.add_constraint("w", [(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert_eq!(s.value(b).round(), 1.0);
        assert_eq!(s.value(c).round(), 1.0);
        assert!(s.gap <= 1e-3);
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix with known optimum 1+2+3 = 6 on the
        // diagonal after permutation.
        let cost = [[1.0, 5.0, 9.0], [6.0, 2.0, 8.0], [7.0, 4.0, 3.0]];
        let mut m = Model::minimize();
        let mut v = [[VarRefDummy::X; 3]; 3].map(|row| row.map(|_| crate::model::VarRef(0)));
        for i in 0..3 {
            for j in 0..3 {
                v[i][j] = m.binary(format!("x{i}{j}"), cost[i][j]);
            }
        }
        for i in 0..3 {
            let row: Vec<_> = (0..3).map(|j| (v[i][j], 1.0)).collect();
            m.add_constraint(format!("r{i}"), row, Cmp::Eq, 1.0);
            let col: Vec<_> = (0..3).map(|j| (v[j][i], 1.0)).collect();
            m.add_constraint(format!("c{i}"), col, Cmp::Eq, 1.0);
        }
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(
            (s.objective - 6.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }

    #[derive(Clone, Copy)]
    enum VarRefDummy {
        X,
    }

    #[test]
    fn infeasible_integer_problem() {
        // 2x = 1 with x integer.
        let mut m = Model::minimize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c", [(x, 2.0)], Cmp::Eq, 1.0);
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem() {
        let mut m = Model::maximize();
        let _x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Unbounded);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::minimize();
        let x = m.continuous("x", 1.0);
        let y = m.continuous("y", 2.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn initial_incumbent_is_used() {
        let mut m = Model::maximize();
        let a = m.binary("a", 1.0);
        let b = m.binary("b", 1.0);
        m.add_constraint("c", [(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        let p = SolveParams {
            initial_solution: Some(vec![1.0, 0.0]),
            ..Default::default()
        };
        let s = m.solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_initial_solution() {
        let mut m = Model::maximize();
        let a = m.binary("a", 1.0);
        m.add_constraint("c", [(a, 1.0)], Cmp::Le, 0.0);
        let mut p = SolveParams {
            initial_solution: Some(vec![1.0]), // violates the constraint
            ..Default::default()
        };
        assert!(matches!(m.solve(&p), Err(IlpError::BadInitialSolution(_))));
        p.initial_solution = Some(vec![1.0, 2.0]); // wrong arity
        assert!(matches!(m.solve(&p), Err(IlpError::BadInitialSolution(_))));
    }

    #[test]
    fn node_limit_reports_feasible_or_nothing() {
        // A 12-item knapsack with a node limit of 1: incumbent comes from
        // the rounding heuristic or not at all — never claims optimal
        // unless the gap closed.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| m.binary(format!("x{i}"), 1.0 + (i as f64 % 3.0)))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_constraint("w", terms, Cmp::Le, 11.0);
        let p = SolveParams {
            node_limit: 1,
            ..Default::default()
        };
        let s = m.solve(&p).unwrap();
        assert!(matches!(
            s.status,
            SolveStatus::Feasible | SolveStatus::NoSolutionFound | SolveStatus::Optimal
        ));
        if s.status == SolveStatus::Feasible {
            assert!(s.gap > 0.0 || !s.stats.exact);
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 5x + 4y st 6x + 4y <= 24, x + 2y <= 6, x int, y cont.
        // LP opt (3, 1.5) obj 21; with x integer it stays x=3,y=1.5.
        let mut m = Model::maximize();
        let x = m.add_var("x", VarKind::Integer, 0.0, f64::INFINITY, 5.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 4.0);
        m.add_constraint("c1", [(x, 6.0), (y, 4.0)], Cmp::Le, 24.0);
        m.add_constraint("c2", [(x, 1.0), (y, 2.0)], Cmp::Le, 6.0);
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 21.0).abs() < 1e-6);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_lp_forces_branching() {
        // max x1 + x2 st 2x1 + 2x2 <= 3, binaries → LP gives 1.5 total,
        // MILP optimum is 1.
        let mut m = Model::maximize();
        let a = m.binary("a", 1.0);
        let b = m.binary("b", 1.0);
        m.add_constraint("c", [(a, 2.0), (b, 2.0)], Cmp::Le, 3.0);
        let s = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert!(s.stats.nodes >= 1);
        assert!(s.stats.root_lp_iterations > 0);
        assert!(s.stats.warm_lp_iterations <= s.stats.lp_iterations);
    }

    #[test]
    fn infeasible_node_is_pruned_unless_the_incumbent_lies_inside() {
        // Root LP columns 0 and 1 are model variables 2 and 0.
        let keep = [2, 0];
        let chain =
            Chain::default()
                .extend(0, f64::NEG_INFINITY, 0.0)
                .extend(1, 1.0, f64::INFINITY);
        // No incumbent: nothing contradicts the LP.
        assert_eq!(infeasible_node(&chain, &keep, None), InfeasibleNode::Prune);
        // The incumbent violates a decision: the node may well be empty.
        let outside = [1.0, 5.0, 1.0];
        assert_eq!(
            infeasible_node(&chain, &keep, Some(&outside)),
            InfeasibleNode::Prune
        );
        // The incumbent satisfies every decision (within tolerance), so the
        // node holds a feasible point and "infeasible" is a numerical error.
        let inside = [1.0 - 1e-9, 5.0, 0.0];
        assert_eq!(
            infeasible_node(&chain, &keep, Some(&inside)),
            InfeasibleNode::GiveUp
        );
        // The root (no decisions) always contains the incumbent.
        assert_eq!(
            infeasible_node(&Chain::default(), &keep, Some(&outside)),
            InfeasibleNode::GiveUp
        );
    }

    #[test]
    fn children_tighten_the_root_bounds() {
        let chain = Chain::default()
            .extend(1, f64::NEG_INFINITY, 0.0)
            .extend(0, 1.0, f64::INFINITY)
            .extend(1, f64::NEG_INFINITY, 2.0);
        let mut lower = vec![0.0, 0.0];
        let mut upper = vec![3.0, 3.0];
        chain.tighten(&mut lower, &mut upper);
        assert_eq!((lower, upper), (vec![1.0, 0.0], vec![3.0, 0.0]));
    }
}
