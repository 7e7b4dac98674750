//! The QP solver's promises: its optimum does not depend on the scale of
//! the workload statistics, it never loses to the SA multi-start that
//! primes it, any labeling of a warm start is kept as the incumbent, and
//! branch & bound stops at its deadline even inside a long root LP.

use std::time::{Duration, Instant};
use vpart_core::qp::{build_qp_model, priming_config, QpConfig, QpOptions, QpSolver};
use vpart_core::reduce::Reduction;
use vpart_core::sa::SaSolver;
use vpart_core::{evaluate, CostCoefficients, CostConfig};
use vpart_ilp::{SolveParams, SolveStatus};
use vpart_instances::{by_name, tpcc};
use vpart_model::workload::QuerySpec;
use vpart_model::{Instance, Partitioning, SiteId, TxnId, Workload};

/// `instance` with every query frequency multiplied by `factor`.
fn scaled_frequencies(instance: &Instance, factor: f64) -> Instance {
    let workload = instance.workload();
    let mut wb = Workload::builder(instance.schema());
    for t in 0..instance.n_txns() {
        let txn = workload.txn(TxnId::from_index(t));
        let mut qids = Vec::new();
        for &qid in &txn.queries {
            let q = workload.query(qid);
            let mut spec = if q.kind.is_write() {
                QuerySpec::write(q.name.clone())
            } else {
                QuerySpec::read(q.name.clone())
            }
            .access(&q.attrs)
            .frequency(q.frequency * factor);
            for &(table, rows) in &q.table_rows {
                spec = spec.rows(table, rows);
            }
            qids.push(wb.add_query(spec).unwrap());
        }
        wb.transaction(txn.name.clone(), &qids).unwrap();
    }
    let workload = wb.build().unwrap();
    Instance::new(instance.name(), instance.schema().clone(), workload).unwrap()
}

#[test]
fn tpcc_optimum_is_invariant_under_power_of_two_frequency_scaling() {
    // ×2^12 shrinks the max-load column below the pricing tolerance after
    // row scaling unless columns are scaled too.
    let cost = CostConfig::default();
    let base = tpcc();
    let factor = 4096.0;
    let solve = |ins: &Instance| {
        QpSolver::new(QpConfig::with_time_limit(120.0))
            .solve(ins, 3, &cost)
            .unwrap()
    };
    let plain = solve(&base);
    let scaled = solve(&scaled_frequencies(&base, factor));
    assert!(plain.is_optimal(), "{}", plain.detail);
    assert!(scaled.is_optimal(), "{}", scaled.detail);
    let want = plain.breakdown.objective6 * factor;
    let got = scaled.breakdown.objective6;
    assert!(
        (got - want).abs() <= 1e-6 * want,
        "×2^12 optimum {got} != 2^12 × {} ({})",
        plain.breakdown.objective6,
        scaled.detail
    );
}

#[test]
fn qp_is_never_worse_than_sa_multistart() {
    let cost = CostConfig::default();
    for name in ["tpcc", "rndAt8x15", "rndBt8x15"] {
        let ins = by_name(name).unwrap();
        let sa = SaSolver::new(priming_config(Duration::from_secs(2)))
            .solve(&ins, 3, &cost)
            .unwrap();
        let qp = QpSolver::new(QpConfig::with_time_limit(2.0))
            .solve(&ins, 3, &cost)
            .unwrap();
        assert!(
            qp.breakdown.objective6 <= sa.breakdown.objective6 * (1.0 + 1e-12),
            "{name}: QP {} worse than SA multi-start {} ({})",
            qp.breakdown.objective6,
            sa.breakdown.objective6,
            qp.detail
        );
    }
}

#[test]
fn non_canonical_warm_start_is_the_incumbent() {
    // Transaction 0 on site 2: the symmetry-breaking rows reject this
    // labeling unless it is canonicalized first.
    let ins = tpcc();
    let cost = CostConfig::default();
    let x = [2, 0, 2, 2, 1].map(SiteId::from_index).to_vec();
    let warm = Partitioning::minimal_for_x(&ins, x, 4).unwrap();
    let want = evaluate(&ins, &warm, &cost).objective6;
    let report = QpSolver::new(QpConfig {
        warm_start: Some(warm),
        node_limit: 0,
        ..QpConfig::with_time_limit(60.0)
    })
    .solve(&ins, 4, &cost)
    .unwrap();
    assert!(!report.is_optimal());
    assert!(
        report.breakdown.objective6 <= want * (1.0 + 1e-12),
        "incumbent {} vs warm start {want}",
        report.breakdown.objective6
    );
}

#[test]
fn rnd_at16x15_model_honours_a_short_time_limit() {
    // Its root LP alone runs ~10^4 pivots, so only a deadline inside the
    // pivot loop can stop it in time.
    let ins = by_name("rndAt16x15").unwrap();
    let cost = CostConfig::default();
    let red = Reduction::compute(&ins);
    let work = red.as_ref().map_or(&ins, |r| &r.reduced);
    let coeffs = CostCoefficients::compute(work, &cost);
    let art = build_qp_model(work, &coeffs, 4, &cost, &QpOptions::default());
    let limit = Duration::from_secs_f64(0.3);
    let start = Instant::now();
    let sol = art
        .model
        .solve(&SolveParams {
            time_limit: limit,
            ..SolveParams::default()
        })
        .unwrap();
    let took = start.elapsed();
    assert!(
        took <= limit.mul_f64(1.1) + Duration::from_millis(200),
        "a {limit:?} limit took {took:?}"
    );
    assert!(matches!(
        sol.status,
        SolveStatus::Feasible | SolveStatus::NoSolutionFound
    ));
}
