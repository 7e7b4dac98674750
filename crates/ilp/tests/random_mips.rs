//! Property-based validation of the MILP solver against brute force.
//!
//! Small random binary programs are solved both by branch & bound and by
//! exhaustive enumeration; objectives and statuses must agree. Mixed
//! programs with continuous `[0, 1]` columns are checked the same way, each
//! binary completion's continuous part solved as a plain LP.

use proptest::prelude::*;
use vpart_ilp::{Cmp, Model, SolveParams, SolveStatus, VarKind, VarRef};

/// Compact description of a random binary program.
#[derive(Debug, Clone)]
struct BinProgram {
    n: usize,
    obj: Vec<f64>,
    /// rows: (coefficients, cmp selector 0/1/2, rhs)
    rows: Vec<(Vec<f64>, u8, f64)>,
    maximize: bool,
}

fn bin_program() -> impl Strategy<Value = BinProgram> {
    (2usize..7).prop_flat_map(bin_program_of)
}

/// A random program over `n` columns.
fn bin_program_of(n: usize) -> impl Strategy<Value = BinProgram> {
    (0usize..5, any::<bool>()).prop_flat_map(move |(m, maximize)| {
        let obj = proptest::collection::vec(-5.0..5.0f64, n);
        let row = (
            proptest::collection::vec(-3.0..3.0f64, n),
            0u8..3,
            -4.0..6.0f64,
        );
        let rows = proptest::collection::vec(row, m);
        (obj, rows).prop_map(move |(obj, rows)| BinProgram {
            n,
            obj: obj.iter().map(|c| (c * 4.0).round() / 4.0).collect(),
            rows: rows
                .into_iter()
                .map(|(cs, cmp, rhs)| {
                    (
                        cs.iter().map(|c| (c * 4.0).round() / 4.0).collect(),
                        cmp,
                        (rhs * 4.0).round() / 4.0,
                    )
                })
                .collect(),
            maximize,
        })
    })
}

fn build(p: &BinProgram) -> Model {
    let mut m = if p.maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let vars: Vec<_> = (0..p.n)
        .map(|i| m.binary(format!("x{i}"), p.obj[i]))
        .collect();
    add_rows(&mut m, &vars, p);
    m
}

fn add_rows(m: &mut Model, vars: &[VarRef], p: &BinProgram) {
    for (r, (coefs, cmp, rhs)) in p.rows.iter().enumerate() {
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let terms: Vec<_> = vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect();
        m.add_constraint(format!("r{r}"), terms, cmp, *rhs);
    }
}

/// Exhaustive optimum over all 2^n assignments; `None` if infeasible.
fn brute_force(m: &Model) -> Option<f64> {
    let n = m.n_vars();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let vals: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
        if m.is_feasible(&vals, 1e-9) {
            let obj = m.objective_value(&vals);
            best = Some(match (best, m.sense()) {
                (None, _) => obj,
                (Some(b), vpart_ilp::model::Sense::Minimize) => b.min(obj),
                (Some(b), vpart_ilp::model::Sense::Maximize) => b.max(obj),
            });
        }
    }
    best
}

/// A random mixed program: binaries followed by continuous `[0, 1]`
/// columns, so branch & bound re-solves children whose LP optimum moves the
/// continuous part.
#[derive(Debug, Clone)]
struct MixedProgram {
    ints: usize,
    inner: BinProgram,
}

fn mixed_program() -> impl Strategy<Value = MixedProgram> {
    (1usize..5, 1usize..4).prop_flat_map(|(ints, conts)| {
        bin_program_of(ints + conts).prop_map(move |inner| MixedProgram { ints, inner })
    })
}

/// The mixed program with its binaries free, or pinned to `fixed`.
fn build_mixed(p: &MixedProgram, fixed: Option<&[f64]>) -> Model {
    let q = &p.inner;
    let mut m = if q.maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let vars: Vec<_> = (0..q.n)
        .map(|i| match (i < p.ints, fixed) {
            (true, Some(f)) => m.add_var(format!("x{i}"), VarKind::Integer, f[i], f[i], q.obj[i]),
            (true, None) => m.binary(format!("x{i}"), q.obj[i]),
            (false, _) => m.add_var(format!("u{i}"), VarKind::Continuous, 0.0, 1.0, q.obj[i]),
        })
        .collect();
    add_rows(&mut m, &vars, q);
    m
}

/// Exhaustive optimum over the binaries, each completion's continuous part
/// solved as a plain (cold, branch-free) LP; `None` if infeasible.
fn brute_force_mixed(p: &MixedProgram) -> Option<f64> {
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << p.ints) {
        let fixed: Vec<f64> = (0..p.ints).map(|i| ((mask >> i) & 1) as f64).collect();
        let sol = build_mixed(p, Some(&fixed))
            .solve(&SolveParams::default())
            .unwrap();
        match sol.status {
            SolveStatus::Infeasible => {}
            SolveStatus::Optimal => {
                let obj = sol.objective;
                best = Some(match best {
                    None => obj,
                    Some(b) if p.inner.maximize => b.max(obj),
                    Some(b) => b.min(obj),
                });
            }
            other => panic!("completion {fixed:?} ended {other:?}"),
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mixed_programs_match_enumeration(p in mixed_program()) {
        let m = build_mixed(&p, None);
        let params = SolveParams {
            mip_gap: 0.0,
            ..Default::default()
        };
        let sol = m.solve(&params).unwrap();
        match brute_force_mixed(&p) {
            None => prop_assert_eq!(sol.status, SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(sol.status, SolveStatus::Optimal);
                prop_assert!(
                    (sol.objective - best).abs() <= 1e-6 * best.abs().max(1.0),
                    "solver {} vs enumeration {}", sol.objective, best
                );
                prop_assert!(m.is_feasible(&sol.values, 1e-6));
            }
        }
    }

    #[test]
    fn branch_and_bound_matches_brute_force(p in bin_program()) {
        let m = build(&p);
        let params = SolveParams {
            mip_gap: 0.0,
            ..Default::default()
        };
        let sol = m.solve(&params).unwrap();
        let brute = brute_force(&m);
        match brute {
            None => prop_assert_eq!(sol.status, SolveStatus::Infeasible),
            Some(best) => {
                prop_assert!(sol.has_solution(), "solver found nothing, brute force {best}");
                prop_assert!(
                    (sol.objective - best).abs() <= 1e-6 * best.abs().max(1.0),
                    "solver {} vs brute force {}", sol.objective, best
                );
                // The returned assignment must itself be feasible & integral.
                prop_assert!(m.is_feasible(&sol.values, 1e-6));
            }
        }
    }

    #[test]
    fn lp_relaxation_bounds_milp(p in bin_program()) {
        // The LP bound reported must never be beaten by any integral point.
        let m = build(&p);
        let sol = m.solve(&SolveParams::default()).unwrap();
        if let Some(best) = brute_force(&m) {
            match m.sense() {
                vpart_ilp::model::Sense::Minimize => {
                    prop_assert!(sol.best_bound <= best + 1e-6 * best.abs().max(1.0));
                }
                vpart_ilp::model::Sense::Maximize => {
                    prop_assert!(sol.best_bound >= best - 1e-6 * best.abs().max(1.0));
                }
            }
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // symmetric vars[i][j] / vars[j][i]
fn scaled_assignment_with_gap_control() {
    // A 4x4 assignment with large cost spread exercises scaling paths.
    let cost = [
        [1000.0, 2.0, 3.0, 4.0],
        [2.0, 1000.0, 4.0, 3.0],
        [3.0, 4.0, 1000.0, 2.0],
        [4.0, 3.0, 2.0, 1000.0],
    ];
    let mut m = Model::minimize();
    let mut v = vec![vec![]; 4];
    for (i, row) in cost.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            v[i].push(m.binary(format!("x{i}{j}"), c));
        }
    }
    for i in 0..4 {
        let r: Vec<_> = (0..4).map(|j| (v[i][j], 1.0)).collect();
        m.add_constraint(format!("row{i}"), r, Cmp::Eq, 1.0);
        let c: Vec<_> = (0..4).map(|j| (v[j][i], 1.0)).collect();
        m.add_constraint(format!("col{i}"), c, Cmp::Eq, 1.0);
    }
    let params = SolveParams {
        mip_gap: 0.0,
        ..Default::default()
    };
    let s = m.solve(&params).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    // Optimal avoids the diagonal: swap pairs (0,1) and (2,3) → 2+2+2+2 = 8.
    assert!(
        (s.objective - 8.0).abs() < 1e-6,
        "objective {}",
        s.objective
    );
}

#[test]
fn time_limit_zero_reports_no_solution_or_feasible() {
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..20)
        .map(|i| m.binary(format!("x{i}"), (i % 5) as f64 + 1.0))
        .collect();
    let terms: Vec<_> = vars.iter().map(|&v| (v, 3.0)).collect();
    m.add_constraint("w", terms, Cmp::Le, 17.0);
    let mut p = SolveParams::with_time_limit(0.0);
    p.node_limit = 0;
    let s = m.solve(&p).unwrap();
    assert!(matches!(
        s.status,
        SolveStatus::NoSolutionFound | SolveStatus::Feasible
    ));
}
