//! The central validation experiment: the execution engine's *measured*
//! bytes must equal the cost model's *predicted* bytes.
//!
//! The engine (`vpart-engine`) and the cost model (`vpart-core`) are
//! independent implementations of the same semantics, so exact agreement
//! on TPC-C and on random instances validates both sides.

use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{evaluate, CostConfig};
use vpart_engine::{Deployment, ReplayStream};
use vpart_instances::{by_name, tpcc};
use vpart_model::Partitioning;

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
        "{what}: engine {a} vs model {b}"
    );
}

fn check_agreement(ins: &vpart_model::Instance, part: &Partitioning, rounds: usize) {
    let cfg = CostConfig::default();
    let predicted = evaluate(ins, part, &cfg);
    let mut dep = Deployment::new(ins, part, 32).unwrap();
    let report = dep
        .execute(&ReplayStream::uniform(ins, rounds, 0).executions)
        .unwrap();
    let k = rounds as f64;
    let totals = report.totals();
    assert_close(totals.bytes_read, k * predicted.read, "A_R");
    assert_close(totals.bytes_written, k * predicted.write, "A_W");
    assert_close(report.transfer_bytes, k * predicted.transfer, "B");
    assert_close(
        report.measured_objective4(cfg.p),
        k * predicted.objective4,
        "objective (4)",
    );
    for (s, (&measured, &pred)) in report
        .site_work()
        .iter()
        .zip(&predicted.site_work)
        .enumerate()
    {
        assert_close(measured, k * pred, &format!("work(site {s})"));
    }
}

#[test]
fn tpcc_single_site_agrees() {
    let ins = tpcc();
    let part = Partitioning::single_site(&ins, 1).unwrap();
    check_agreement(&ins, &part, 3);
}

#[test]
fn tpcc_partitioned_agrees() {
    let ins = tpcc();
    let r = SaSolver::new(SaConfig::fast_deterministic(5))
        .solve(&ins, 3, &CostConfig::default())
        .unwrap();
    check_agreement(&ins, &r.partitioning, 2);
}

#[test]
fn random_instances_agree() {
    for name in ["rndAt8x15", "rndBt16x15", "rndAt8x15u50"] {
        let ins = by_name(name).unwrap();
        let r = SaSolver::new(SaConfig::fast_deterministic(9))
            .solve(&ins, 2, &CostConfig::default())
            .unwrap();
        check_agreement(&ins, &r.partitioning, 1);
    }
}

#[test]
fn partitioning_reduces_measured_bytes_not_just_predicted() {
    // The 37%-style headline must hold in *measured* bytes too.
    let ins = tpcc();
    let cfg = CostConfig::default();
    let single = Partitioning::single_site(&ins, 1).unwrap();
    let mut dep = Deployment::new(&ins, &single, 32).unwrap();
    let base = dep
        .execute(&ReplayStream::uniform(&ins, 2, 0).executions)
        .unwrap();

    let r = SaSolver::new(SaConfig::fast_deterministic(5))
        .solve(&ins, 2, &cfg)
        .unwrap();
    let mut dep = Deployment::new(&ins, &r.partitioning, 32).unwrap();
    let split = dep
        .execute(&ReplayStream::uniform(&ins, 2, 0).executions)
        .unwrap();

    let base_cost = base.measured_objective4(cfg.p);
    let split_cost = split.measured_objective4(cfg.p);
    assert!(
        split_cost < base_cost * 0.8,
        "measured cost should drop ≥20%: {base_cost} -> {split_cost}"
    );
}

#[test]
fn single_sitedness_of_reads_is_preserved_in_execution() {
    // Read-only transactions never transfer, regardless of partitioning.
    let ins = tpcc();
    let r = SaSolver::new(SaConfig::fast_deterministic(5))
        .solve(&ins, 4, &CostConfig::default())
        .unwrap();
    let mut dep = Deployment::new(&ins, &r.partitioning, 16).unwrap();
    let report = dep
        .execute(&[
            ins.workload().txn_by_name("OrderStatus").unwrap(),
            ins.workload().txn_by_name("StockLevel").unwrap(),
        ])
        .unwrap();
    assert_eq!(report.transfer_bytes, 0.0);
    assert_eq!(report.single_sited_executions, 2);
}
