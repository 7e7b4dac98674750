//! Lightweight presolve applied once, before the root LP solve.
//!
//! Three reductions are iterated to a fixpoint:
//!
//! 1. **Fixed-variable substitution** — variables with `lower == upper`
//!    (within tolerance) are substituted into constraints and the objective.
//!    A fixed `x[t][s]` cascades through the linearization rows `u ≤ x`.
//! 2. **Singleton rows** — `a·x cmp rhs` becomes a bound update on `x`
//!    (rounded inward for integer variables) and the row is dropped.
//! 3. **Empty rows** — checked for trivial feasibility and dropped.
//!
//! The output maps solved values back to the original variable space.

use crate::model::{Cmp, Model, VarKind};

const TOL: f64 = 1e-9;

/// Outcome of presolving.
#[derive(Debug)]
pub enum Presolved {
    /// The reduced problem plus the mapping back to original variables.
    Reduced(ReducedLp),
    /// Presolve proved infeasibility (crossed bounds or violated empty row).
    Infeasible,
}

/// A reduced LP in the original model's terms.
#[derive(Debug)]
pub struct ReducedLp {
    /// Indices of surviving variables (new → old).
    pub keep: Vec<usize>,
    /// Fixed value per original variable (`None` when surviving).
    pub fixed: Vec<Option<f64>>,
    /// Surviving variables' (possibly tightened) lower bounds.
    pub lower: Vec<f64>,
    /// Surviving variables' (possibly tightened) upper bounds.
    pub upper: Vec<f64>,
    /// Surviving variables' objective coefficients.
    pub obj: Vec<f64>,
    /// Objective constant contributed by fixed variables.
    pub obj_offset: f64,
    /// Surviving constraints as sparse rows over *new* indices.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Surviving row comparisons.
    pub cmps: Vec<Cmp>,
    /// Surviving row right-hand sides.
    pub rhs: Vec<f64>,
}

impl ReducedLp {
    /// Expands reduced-space values to a full original-space assignment.
    pub fn expand(&self, reduced_values: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.fixed.len()];
        for (i, f) in self.fixed.iter().enumerate() {
            if let Some(v) = f {
                full[i] = *v;
            }
        }
        for (new, &old) in self.keep.iter().enumerate() {
            full[old] = reduced_values[new];
        }
        full
    }

    /// Converts the reduced rows to column-major sparse form for the simplex.
    pub fn columns(&self) -> Vec<Vec<(usize, f64)>> {
        let mut cols = vec![Vec::new(); self.keep.len()];
        for (r, row) in self.rows.iter().enumerate() {
            for &(j, v) in row {
                cols[j].push((r, v));
            }
        }
        cols
    }
}

/// Presolves `model` under per-variable bound overrides
/// (`overrides[i] = Some((lo, hi))` replaces variable `i`'s bounds).
pub fn presolve(model: &Model, overrides: &[Option<(f64, f64)>]) -> Presolved {
    let n = model.n_vars();
    let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
    for (i, ov) in overrides.iter().enumerate() {
        if let Some((lo, hi)) = ov {
            lower[i] = lower[i].max(*lo);
            upper[i] = upper[i].min(*hi);
        }
    }

    // Working rows over original indices.
    let mut rows: Vec<Vec<(usize, f64)>> = model
        .cons
        .iter()
        .map(|c| c.expr.terms().iter().map(|&(v, k)| (v.0, k)).collect())
        .collect();
    let cmps: Vec<Cmp> = model.cons.iter().map(|c| c.cmp).collect();
    let mut rhs: Vec<f64> = model.cons.iter().map(|c| c.rhs).collect();
    let mut row_alive = vec![true; rows.len()];
    let mut fixed: Vec<Option<f64>> = vec![None; n];

    // Substitutes newly-fixed vars and tightens via singleton rows until
    // nothing changes.
    for _pass in 0..16 {
        let mut changed = false;

        // 1. Detect fixed variables.
        for j in 0..n {
            if fixed[j].is_none() && upper[j] - lower[j] <= TOL {
                if lower[j] > upper[j] + TOL {
                    return Presolved::Infeasible;
                }
                // Integer variables must have an integral point in range.
                let v = if model.vars[j].kind == VarKind::Integer {
                    let r = lower[j].round();
                    if (r - lower[j]).abs() > 0.5 + TOL {
                        return Presolved::Infeasible;
                    }
                    r
                } else {
                    lower[j]
                };
                fixed[j] = Some(v);
                changed = true;
            }
        }
        if lower.iter().zip(&upper).any(|(l, u)| l > &(u + TOL)) {
            return Presolved::Infeasible;
        }

        // 2. Substitute fixed vars into rows; classify rows.
        for (r, row) in rows.iter_mut().enumerate() {
            if !row_alive[r] {
                continue;
            }
            let before = row.len();
            row.retain(|&(j, coef)| {
                if let Some(v) = fixed[j] {
                    rhs[r] -= coef * v;
                    false
                } else {
                    true
                }
            });
            if row.len() != before {
                changed = true;
            }
            match row.len() {
                0 => {
                    let ok = match cmps[r] {
                        Cmp::Le => 0.0 <= rhs[r] + 1e-7,
                        Cmp::Eq => rhs[r].abs() <= 1e-7,
                        Cmp::Ge => 0.0 >= rhs[r] - 1e-7,
                    };
                    if !ok {
                        return Presolved::Infeasible;
                    }
                    row_alive[r] = false;
                    changed = true;
                }
                1 => {
                    let (j, a) = row[0];
                    let bound = rhs[r] / a;
                    let (mut new_lo, mut new_hi) = (lower[j], upper[j]);
                    match (cmps[r], a > 0.0) {
                        (Cmp::Le, true) | (Cmp::Ge, false) => new_hi = new_hi.min(bound),
                        (Cmp::Le, false) | (Cmp::Ge, true) => new_lo = new_lo.max(bound),
                        (Cmp::Eq, _) => {
                            new_lo = new_lo.max(bound);
                            new_hi = new_hi.min(bound);
                        }
                    }
                    if model.vars[j].kind == VarKind::Integer {
                        new_lo = (new_lo - 1e-7).ceil();
                        new_hi = (new_hi + 1e-7).floor();
                    }
                    if new_lo > lower[j] + TOL || new_hi < upper[j] - TOL {
                        changed = true;
                    }
                    lower[j] = lower[j].max(new_lo);
                    upper[j] = upper[j].min(new_hi);
                    if lower[j] > upper[j] + TOL {
                        return Presolved::Infeasible;
                    }
                    row_alive[r] = false;
                }
                _ => {}
            }
        }

        if !changed {
            break;
        }
    }

    // Assemble the reduced problem.
    let mut new_index = vec![usize::MAX; n];
    let mut keep = Vec::new();
    for j in 0..n {
        if fixed[j].is_none() {
            new_index[j] = keep.len();
            keep.push(j);
        }
    }
    let mut obj_offset = 0.0;
    for j in 0..n {
        if let Some(v) = fixed[j] {
            obj_offset += model.vars[j].obj * v;
        }
    }
    let mut out_rows = Vec::new();
    let mut out_cmps = Vec::new();
    let mut out_rhs = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        if !row_alive[r] {
            continue;
        }
        out_rows.push(row.iter().map(|&(j, v)| (new_index[j], v)).collect());
        out_cmps.push(cmps[r]);
        out_rhs.push(rhs[r]);
    }
    Presolved::Reduced(ReducedLp {
        lower: keep.iter().map(|&j| lower[j]).collect(),
        upper: keep.iter().map(|&j| upper[j]).collect(),
        obj: keep.iter().map(|&j| model.vars[j].obj).collect(),
        keep,
        fixed,
        obj_offset,
        rows: out_rows,
        cmps: out_cmps,
        rhs: out_rhs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn fixes_and_substitutes() {
        let mut m = Model::minimize();
        let x = m.add_var("x", VarKind::Continuous, 2.0, 2.0, 3.0);
        let y = m.continuous("y", 1.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        let Presolved::Reduced(red) = presolve(&m, &[None, None]) else {
            panic!("expected reduction");
        };
        assert_eq!(red.keep, vec![1]);
        assert_eq!(red.fixed[0], Some(2.0));
        assert_eq!(red.obj_offset, 6.0);
        // Row became y <= 3.  Singleton → dropped, bound tightened.
        assert!(red.rows.is_empty());
        assert_eq!(red.upper[0], 3.0);
        let full = red.expand(&[1.5]);
        assert_eq!(full, vec![2.0, 1.5]);
    }

    #[test]
    fn cascading_fixes_through_singletons() {
        // u <= x with x fixed to 0 forces u = 0 (u >= 0 by bound).
        let mut m = Model::minimize();
        let x = m.binary("x", 0.0);
        let u = m.continuous("u", -1.0);
        m.add_constraint("lin", [(u, 1.0), (x, -1.0)], Cmp::Le, 0.0);
        let Presolved::Reduced(red) = presolve(&m, &[Some((0.0, 0.0)), None]) else {
            panic!()
        };
        assert_eq!(red.keep.len(), 0, "everything fixed: {red:?}");
        assert_eq!(red.fixed[x.0], Some(0.0));
        assert_eq!(red.fixed[u.0], Some(0.0));
    }

    #[test]
    fn detects_infeasible_empty_row() {
        let mut m = Model::minimize();
        let x = m.add_var("x", VarKind::Continuous, 1.0, 1.0, 0.0);
        m.add_constraint("c", [(x, 1.0)], Cmp::Ge, 2.0);
        assert!(matches!(presolve(&m, &[None]), Presolved::Infeasible));
    }

    #[test]
    fn detects_crossed_bounds_from_overrides() {
        let mut m = Model::minimize();
        let _x = m.binary("x", 1.0);
        // Branching override narrows to an empty interval.
        assert!(matches!(
            presolve(&m, &[Some((1.0, 0.0))]),
            Presolved::Infeasible
        ));
    }

    #[test]
    fn integer_singleton_rounds_inward() {
        let mut m = Model::minimize();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c", [(x, 2.0)], Cmp::Le, 7.0); // x <= 3.5 → x <= 3
        let Presolved::Reduced(red) = presolve(&m, &[None]) else {
            panic!()
        };
        assert_eq!(red.upper[0], 3.0);
    }

    #[test]
    fn columns_are_transposed_rows() {
        let mut m = Model::minimize();
        let x = m.continuous("x", 1.0);
        let y = m.continuous("y", 1.0);
        m.add_constraint("c1", [(x, 1.0), (y, 2.0)], Cmp::Le, 4.0);
        m.add_constraint("c2", [(y, 3.0), (x, 1.0)], Cmp::Ge, 1.0);
        let Presolved::Reduced(red) = presolve(&m, &[None, None]) else {
            panic!()
        };
        let cols = red.columns();
        assert_eq!(cols[0], vec![(0, 1.0), (1, 1.0)]);
        assert_eq!(cols[1], vec![(0, 2.0), (1, 3.0)]);
    }
}
