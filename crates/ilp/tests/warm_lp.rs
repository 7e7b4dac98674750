//! Warm re-solves against cold solves. Branch & bound tightens one bound of
//! an optimal LP and re-solves from the old optimal basis with the dual
//! simplex; that must reach the same status and objective as solving the
//! tightened LP from scratch, including when the child becomes infeasible.

use proptest::prelude::*;
use vpart_ilp::simplex::{resolve_lp, solve_lp, LpForm, LpOutcome};
use vpart_ilp::Cmp;

/// A random LP plus one bound change to apply to its optimum.
#[derive(Debug, Clone)]
struct Case {
    lp: LpForm,
    /// The variable whose bound moves.
    var: usize,
    /// Raise its lower bound above the optimum value (else lower the upper
    /// bound below it).
    up: bool,
    /// How far past the optimum value the new bound lands.
    shift: f64,
}

fn quarter(v: f64) -> f64 {
    (v * 4.0).round() / 4.0
}

fn case() -> impl Strategy<Value = Case> {
    (2usize..7, 1usize..5).prop_flat_map(|(n, m)| {
        let cols = collection::vec(collection::vec(-3.0..3.0f64, m), n);
        let rows = collection::vec((0u8..3, -4.0..6.0f64), m);
        let uppers = collection::vec(0usize..4, n);
        let obj = collection::vec(-5.0..5.0f64, n);
        let change = (0..n, any::<bool>(), 0.0..1.5f64);
        (cols, rows, uppers, obj, change).prop_map(
            move |(cols, rows, uppers, obj, (var, up, shift))| Case {
                lp: LpForm {
                    n,
                    cols: cols
                        .iter()
                        .map(|col| {
                            col.iter()
                                .enumerate()
                                .map(|(r, &v)| (r, quarter(v)))
                                .filter(|&(_, v)| v != 0.0)
                                .collect()
                        })
                        .collect(),
                    cmps: rows
                        .iter()
                        .map(|&(c, _)| match c {
                            0 => Cmp::Le,
                            1 => Cmp::Ge,
                            _ => Cmp::Eq,
                        })
                        .collect(),
                    rhs: rows.iter().map(|&(_, r)| quarter(r)).collect(),
                    lower: vec![0.0; n],
                    upper: uppers
                        .iter()
                        .map(|&u| [1.0, 2.0, 5.0, f64::INFINITY][u])
                        .collect(),
                    obj: obj.iter().map(|&c| quarter(c)).collect(),
                },
                var,
                up,
                shift,
            },
        )
    })
}

/// Largest row or bound violation of `x` in `lp`.
fn violation(lp: &LpForm, x: &[f64]) -> f64 {
    let mut lhs = vec![0.0; lp.rhs.len()];
    for (col, &v) in lp.cols.iter().zip(x) {
        for &(r, a) in col {
            lhs[r] += a * v;
        }
    }
    let rows = lhs
        .iter()
        .zip(&lp.rhs)
        .zip(&lp.cmps)
        .map(|((&l, &b), cmp)| match cmp {
            Cmp::Le => l - b,
            Cmp::Ge => b - l,
            Cmp::Eq => (l - b).abs(),
        });
    let bounds = (0..lp.n).map(|j| (lp.lower[j] - x[j]).max(x[j] - lp.upper[j]));
    rows.chain(bounds).fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn warm_resolve_after_one_bound_change_matches_cold(c in case()) {
        if let LpOutcome::Optimal { x, basis, .. } = solve_lp(&c.lp).unwrap() {
            let mut child = c.lp.clone();
            let v = x[c.var];
            if c.up {
                child.lower[c.var] = quarter(v + 0.25 + c.shift);
            } else {
                child.upper[c.var] = quarter(v - 0.25 - c.shift).max(child.lower[c.var]);
            }
            let warm = resolve_lp(&child, Some(&basis), None).unwrap();
            let cold = solve_lp(&child).unwrap();
            match (&warm.outcome, &cold) {
                (LpOutcome::Optimal { x, obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                    prop_assert!(
                        (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                        "warm objective {a} vs cold {b} for {child:?}"
                    );
                    prop_assert!(violation(&child, x) <= 1e-6, "warm point {x:?} infeasible");
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (w, c) => prop_assert!(false, "warm {w:?} vs cold {c:?} for {child:?}"),
            }
            prop_assert!(warm.warm, "fell back to a cold solve for {child:?}");
        }
    }
}
