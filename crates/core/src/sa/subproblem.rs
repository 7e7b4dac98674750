//! The `findSolution(fix)` subproblems of Algorithm 1.
//!
//! When one decision vector is fixed, objective (4) decomposes:
//!
//! * **`y` given `x`** — per `(a, s)` cell: placing attribute `a` on site
//!   `s` costs `Σ_{t on s} c1(a,t) + c2(a)`. Cells read by a transaction on
//!   `s` are forced (single-sitedness); any other cell is included iff its
//!   marginal is negative; if an attribute ends up nowhere it is placed on
//!   its cheapest site. This is the exact minimizer of the λ-weighted cost
//!   part (and of the whole objective when `λ = 1`).
//! * **`x` given `y`** — per transaction: only sites hosting the whole read
//!   set are feasible; the cost of site `s` is `Σ_a c1(a,t)·y[a,s]`; ties
//!   are broken toward the site with the lowest accumulated read work,
//!   which nudges the max-load term down.
//!
//! ILP-backed variants (`*_ilp`) solve the same subproblems as small MIPs
//! including the `(1−λ)·m` term exactly — the fidelity mode corresponding
//! to the paper's use of GLPK inside the SA loop (30 s per iteration).

use crate::config::CostConfig;
use crate::cost::coeffs::CostCoefficients;
use std::time::Duration;
use vpart_ilp::{Cmp, LinExpr, Model, SolveParams, VarKind};
use vpart_model::{AttrId, BitMatrix, Instance, Partitioning, SiteId, TxnId};

/// Exact (λ-part) re-optimization of `y` for a fixed transaction
/// assignment `x`. Returns a feasible partitioning.
pub fn optimal_y_for_x(
    instance: &Instance,
    coeffs: &CostCoefficients,
    x: &[SiteId],
    n_sites: usize,
    cost: &CostConfig,
) -> Partitioning {
    let n_attrs = instance.n_attrs();
    let lambda = cost.lambda;
    // marginal[a][s] = λ·(Σ_{t on s} c1(a,t) + c2(a)); start with c2.
    let mut marginal = vec![0.0f64; n_attrs * n_sites];
    for a in 0..n_attrs {
        let c2 = coeffs.c2(AttrId::from_index(a));
        for s in 0..n_sites {
            marginal[a * n_sites + s] = lambda * c2;
        }
    }
    for (t, &site) in x.iter().enumerate() {
        for &(a, c1, _) in coeffs.txn_terms(TxnId::from_index(t)) {
            marginal[a.index() * n_sites + site.index()] += lambda * c1;
        }
    }

    let mut y = BitMatrix::new(n_attrs, n_sites);
    // Forced placements (φ closure).
    for (t, &site) in x.iter().enumerate() {
        for &a in instance.read_set(TxnId::from_index(t)) {
            y.set(a.index(), site.index());
        }
    }
    for a in 0..n_attrs {
        let mut placed = y.row_count(a) > 0;
        // Optional replicas with negative marginal.
        for s in 0..n_sites {
            if !y.get(a, s) && marginal[a * n_sites + s] < 0.0 {
                y.set(a, s);
                placed = true;
            }
        }
        if !placed {
            // Nowhere forced and nothing profitable: cheapest single site.
            let best = (0..n_sites)
                .min_by(|&i, &j| marginal[a * n_sites + i].total_cmp(&marginal[a * n_sites + j]))
                .expect("n_sites >= 1");
            y.set(a, best);
        }
    }
    Partitioning::from_parts(n_sites, x.to_vec(), y).expect("shapes consistent")
}

/// Exact (λ-part, greedy tie-break on load) re-optimization of `x` for a
/// fixed attribute placement `y`. Transactions whose read set is hosted
/// nowhere keep their current site *after* extending `y` minimally (cannot
/// happen when `part` was feasible, since neighborhoods only add replicas).
pub fn optimal_x_for_y(
    instance: &Instance,
    coeffs: &CostCoefficients,
    part: &Partitioning,
    cost: &CostConfig,
) -> Partitioning {
    let n_sites = part.n_sites();
    let lambda = cost.lambda;
    let mut new_x = Vec::with_capacity(part.n_txns());
    let mut site_load = vec![0.0f64; n_sites];
    // Seed the load with the y-induced write work (placement-independent).
    for a in 0..part.n_attrs() {
        let attr = AttrId::from_index(a);
        let c4 = coeffs.c4(attr);
        if c4 != 0.0 {
            for s in part.attr_sites(attr) {
                site_load[s.index()] += c4;
            }
        }
    }
    for t in 0..part.n_txns() {
        let txn = TxnId::from_index(t);
        let read_set = instance.read_set(txn);
        let mut best: Option<(usize, f64, f64)> = None; // (site, cost, load)
        for s in 0..n_sites {
            let feasible = read_set
                .iter()
                .all(|&a| part.has_attr(a, SiteId::from_index(s)));
            if !feasible {
                continue;
            }
            let mut c = 0.0;
            let mut work = 0.0;
            for &(a, c1, c3) in coeffs.txn_terms(txn) {
                if part.has_attr(a, SiteId::from_index(s)) {
                    c += lambda * c1;
                    work += c3;
                }
            }
            let cand_load = site_load[s] + work;
            let better = match best {
                None => true,
                Some((_, bc, bl)) => c < bc - 1e-12 || (c <= bc + 1e-12 && cand_load < bl),
            };
            if better {
                best = Some((s, c, cand_load));
            }
        }
        let (site, _, load) = best.unwrap_or((part.site_of(txn).index(), 0.0, 0.0));
        site_load[site] = load.max(site_load[site]);
        new_x.push(SiteId::from_index(site));
    }
    let mut out =
        Partitioning::from_parts(n_sites, new_x, part.y().clone()).expect("shapes consistent");
    out.repair_single_sitedness(instance);
    out
}

/// ILP-backed `y | x`: exact including the `(1−λ)·m` load term.
pub fn optimal_y_for_x_ilp(
    instance: &Instance,
    coeffs: &CostCoefficients,
    x: &[SiteId],
    n_sites: usize,
    cost: &CostConfig,
    time_limit: Duration,
) -> Partitioning {
    let n_attrs = instance.n_attrs();
    let lambda = cost.lambda;
    let mut model = Model::minimize();
    // Aggregate c1/c3 per (a, s) under the fixed x.
    let mut k1 = vec![0.0f64; n_attrs * n_sites];
    let mut k3 = vec![0.0f64; n_attrs * n_sites];
    for (t, &site) in x.iter().enumerate() {
        for &(a, c1, c3) in coeffs.txn_terms(TxnId::from_index(t)) {
            k1[a.index() * n_sites + site.index()] += c1;
            k3[a.index() * n_sites + site.index()] += c3;
        }
    }
    let mut forced = BitMatrix::new(n_attrs, n_sites);
    for (t, &site) in x.iter().enumerate() {
        for &a in instance.read_set(TxnId::from_index(t)) {
            forced.set(a.index(), site.index());
        }
    }
    let y: Vec<Vec<_>> = (0..n_attrs)
        .map(|a| {
            (0..n_sites)
                .map(|s| {
                    let obj = lambda * (k1[a * n_sites + s] + coeffs.c2(AttrId::from_index(a)));
                    let lo = if forced.get(a, s) { 1.0 } else { 0.0 };
                    model.add_var(format!("y_{a}_{s}"), VarKind::Integer, lo, 1.0, obj)
                })
                .collect()
        })
        .collect();
    for a in 0..n_attrs {
        let expr: LinExpr = (0..n_sites).map(|s| (y[a][s], 1.0)).collect();
        model.add_constraint(format!("cover_{a}"), expr, Cmp::Ge, 1.0);
    }
    if lambda < 1.0 {
        let m = model.add_var("m", VarKind::Continuous, 0.0, f64::INFINITY, 1.0 - lambda);
        for s in 0..n_sites {
            let mut expr = LinExpr::new();
            for a in 0..n_attrs {
                let w = k3[a * n_sites + s] + coeffs.c4(AttrId::from_index(a));
                if w != 0.0 {
                    expr.push(y[a][s], w);
                }
            }
            expr.push(m, -1.0);
            model.add_constraint(format!("load_{s}"), expr, Cmp::Le, 0.0);
        }
    }
    let params = SolveParams {
        time_limit,
        ..SolveParams::default()
    };
    match model.solve(&params) {
        Ok(sol) if sol.has_solution() => {
            let mut ym = BitMatrix::new(n_attrs, n_sites);
            for a in 0..n_attrs {
                for s in 0..n_sites {
                    if sol.values[y[a][s].0] > 0.5 {
                        ym.set(a, s);
                    }
                }
            }
            Partitioning::from_parts(n_sites, x.to_vec(), ym).expect("shapes consistent")
        }
        // Fall back to the greedy closed form on any solver hiccup.
        _ => optimal_y_for_x(instance, coeffs, x, n_sites, cost),
    }
}

/// ILP-backed `x | y`: exact including the `(1−λ)·m` load term.
pub fn optimal_x_for_y_ilp(
    instance: &Instance,
    coeffs: &CostCoefficients,
    part: &Partitioning,
    cost: &CostConfig,
    time_limit: Duration,
) -> Partitioning {
    let n_sites = part.n_sites();
    let n_txns = part.n_txns();
    let lambda = cost.lambda;
    let mut model = Model::minimize();
    let x: Vec<Vec<_>> = (0..n_txns)
        .map(|t| {
            let txn = TxnId::from_index(t);
            (0..n_sites)
                .map(|s| {
                    let site = SiteId::from_index(s);
                    let feasible = instance
                        .read_set(txn)
                        .iter()
                        .all(|&a| part.has_attr(a, site));
                    let mut obj = 0.0;
                    for &(a, c1, _) in coeffs.txn_terms(txn) {
                        if part.has_attr(a, site) {
                            obj += lambda * c1;
                        }
                    }
                    let hi = if feasible { 1.0 } else { 0.0 };
                    model.add_var(format!("x_{t}_{s}"), VarKind::Integer, 0.0, hi, obj)
                })
                .collect()
        })
        .collect();
    for t in 0..n_txns {
        let expr: LinExpr = (0..n_sites).map(|s| (x[t][s], 1.0)).collect();
        model.add_constraint(format!("assign_{t}"), expr, Cmp::Eq, 1.0);
    }
    if lambda < 1.0 {
        let m = model.add_var("m", VarKind::Continuous, 0.0, f64::INFINITY, 1.0 - lambda);
        for s in 0..n_sites {
            let site = SiteId::from_index(s);
            let mut base = 0.0; // y-induced write work on s
            for a in 0..part.n_attrs() {
                let attr = AttrId::from_index(a);
                if part.has_attr(attr, site) {
                    base += coeffs.c4(attr);
                }
            }
            let mut expr = LinExpr::new();
            for t in 0..n_txns {
                let txn = TxnId::from_index(t);
                let mut work = 0.0;
                for &(a, _, c3) in coeffs.txn_terms(txn) {
                    if part.has_attr(a, site) {
                        work += c3;
                    }
                }
                if work != 0.0 {
                    expr.push(x[t][s], work);
                }
            }
            expr.push(m, -1.0);
            model.add_constraint(format!("load_{s}"), expr, Cmp::Le, -base);
        }
    }
    let params = SolveParams {
        time_limit,
        ..SolveParams::default()
    };
    match model.solve(&params) {
        Ok(sol) if sol.has_solution() => {
            let xs: Vec<SiteId> = (0..n_txns)
                .map(|t| {
                    let s = (0..n_sites)
                        .max_by(|&i, &j| sol.values[x[t][i].0].total_cmp(&sol.values[x[t][j].0]))
                        .expect("n_sites >= 1");
                    SiteId::from_index(s)
                })
                .collect();
            let mut out =
                Partitioning::from_parts(n_sites, xs, part.y().clone()).expect("shapes consistent");
            out.repair_single_sitedness(instance);
            out
        }
        _ => optimal_x_for_y(instance, coeffs, part, cost),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::objective::{coefficient_score, evaluate};
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, Workload};

    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 10.0), ("b", 1.0)]).unwrap();
        sb.table("S", &[("c", 10.0), ("d", 1.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(2)]))
            .unwrap();
        let q2 = wb
            .add_query(QuerySpec::write("q2").access(&[AttrId(1)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        wb.transaction("T2", &[q2]).unwrap();
        Instance::new("sub", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn y_given_x_is_feasible_and_exact_for_lambda_one() {
        let ins = instance();
        let cfg = CostConfig::default().with_lambda(1.0);
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let x = vec![SiteId(0), SiteId(1), SiteId(0)];
        let part = optimal_y_for_x(&ins, &coeffs, &x, 2, &cfg);
        part.validate(&ins, false).unwrap();
        // Brute force over all y assignments (2 attrs touched per site
        // would be 2^(4·2) = 256 options).
        let n_attrs = ins.n_attrs();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << (n_attrs * 2)) {
            let mut y = BitMatrix::new(n_attrs, 2);
            for cell in 0..n_attrs * 2 {
                if mask >> cell & 1 == 1 {
                    y.set(cell / 2, cell % 2);
                }
            }
            let cand = match Partitioning::from_parts(2, x.clone(), y) {
                Ok(p) => p,
                Err(_) => continue,
            };
            if cand.validate(&ins, false).is_err() {
                continue;
            }
            best = best.min(coefficient_score(&coeffs, &cand).0);
        }
        let got = coefficient_score(&coeffs, &part).0;
        assert!(
            (got - best).abs() < 1e-9,
            "greedy y {got} vs brute force {best}"
        );
    }

    #[test]
    fn x_given_y_picks_cheapest_feasible_site() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        // y: R fully on site 0, S fully on site 1.
        let mut y = BitMatrix::new(4, 2);
        y.set(0, 0);
        y.set(1, 0);
        y.set(2, 1);
        y.set(3, 1);
        let part = Partitioning::from_parts(2, vec![SiteId(0); 3], y).unwrap();
        let opt = optimal_x_for_y(&ins, &coeffs, &part, &cfg);
        opt.validate(&ins, false).unwrap();
        // T0 reads a (site 0 only) → site 0; T1 reads c → site 1.
        assert_eq!(opt.site_of(TxnId(0)), SiteId(0));
        assert_eq!(opt.site_of(TxnId(1)), SiteId(1));
    }

    #[test]
    fn ilp_backed_variants_match_or_beat_greedy() {
        let ins = instance();
        let cfg = CostConfig::default(); // λ = 0.1: load matters
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let x = vec![SiteId(0), SiteId(1), SiteId(1)];
        let greedy = optimal_y_for_x(&ins, &coeffs, &x, 2, &cfg);
        let exact = optimal_y_for_x_ilp(&ins, &coeffs, &x, 2, &cfg, Duration::from_secs(10));
        exact.validate(&ins, false).unwrap();
        let g6 = evaluate(&ins, &greedy, &cfg).objective6;
        let e6 = evaluate(&ins, &exact, &cfg).objective6;
        assert!(e6 <= g6 + 1e-9, "ilp {e6} worse than greedy {g6}");

        let gx = optimal_x_for_y(&ins, &coeffs, &greedy, &cfg);
        let ex = optimal_x_for_y_ilp(&ins, &coeffs, &greedy, &cfg, Duration::from_secs(10));
        ex.validate(&ins, false).unwrap();
        let gx6 = evaluate(&ins, &gx, &cfg).objective6;
        let ex6 = evaluate(&ins, &ex, &cfg).objective6;
        assert!(ex6 <= gx6 + 1e-9, "ilp {ex6} worse than greedy {gx6}");
    }

    #[test]
    fn unread_attributes_get_single_cheapest_placement() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = optimal_y_for_x(&ins, &coeffs, &[SiteId(0), SiteId(1), SiteId(0)], 2, &cfg);
        // b (written, never read) and d (never accessed) must appear
        // exactly once: replication would only add write cost.
        assert_eq!(part.replication(AttrId(1)), 1);
        assert_eq!(part.replication(AttrId(3)), 1);
    }
}
