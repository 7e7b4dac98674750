//! The central validation experiment: the bytes replay *measures* must
//! equal the bytes the cost model *predicts*.
//!
//! Replay (`vpart-engine`) and the cost model (`vpart-core`) are
//! independent implementations of the same semantics. On TPC-C and the
//! random catalog instances below, widths, frequencies and row counts are
//! integers, so physical and fractional bytes coincide and agreement must
//! be exact — with `==`, not a tolerance.

use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{evaluate, CostConfig};
use vpart_engine::{ReplayConfig, ReplayDeployment, ReplayReport, ReplayStream};
use vpart_instances::{by_name, tpcc};
use vpart_model::{Instance, Partitioning};

/// Replays `stream` on `part` (32 rows per table, 4 shards, 2 threads).
fn replay(ins: &Instance, part: &Partitioning, stream: &ReplayStream) -> ReplayReport {
    ReplayDeployment::new(ins, part, 32, 4)
        .unwrap()
        .replay(stream, &ReplayConfig::deterministic(2), None)
        .unwrap()
}

/// `A_R + A_W + p·B` from measured bytes.
fn measured_objective4(report: &ReplayReport, p: f64) -> f64 {
    let t = report.totals();
    t.bytes_read as f64 + t.bytes_written as f64 + p * report.transfer_bytes as f64
}

fn check_agreement(ins: &Instance, part: &Partitioning, rounds: usize) {
    let cfg = CostConfig::default();
    let predicted = evaluate(ins, part, &cfg);
    let report = replay(ins, part, &ReplayStream::uniform(ins, rounds, 0));
    let k = rounds as f64;
    let totals = report.totals();
    assert_eq!(totals.bytes_read as f64, k * predicted.read, "A_R");
    assert_eq!(totals.bytes_written as f64, k * predicted.write, "A_W");
    assert_eq!(report.transfer_bytes as f64, k * predicted.transfer, "B");
    assert_eq!(
        measured_objective4(&report, cfg.p),
        k * predicted.objective4,
        "objective (4)"
    );
    assert_eq!(report.per_site.len(), predicted.site_work.len());
    for (s, (measured, &pred)) in report.per_site.iter().zip(&predicted.site_work).enumerate() {
        assert_eq!(measured.work() as f64, k * pred, "work(site {s})");
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
    let stream = ReplayStream::uniform(&ins, 2, 0);
    let single = Partitioning::single_site(&ins, 1).unwrap();
    let base = replay(&ins, &single, &stream);

    let r = SaSolver::new(SaConfig::fast_deterministic(5))
        .solve(&ins, 2, &cfg)
        .unwrap();
    let split = replay(&ins, &r.partitioning, &stream);

    let base_cost = measured_objective4(&base, cfg.p);
    let split_cost = measured_objective4(&split, cfg.p);
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
    let stream = ReplayStream {
        executions: vec![
            ins.workload().txn_by_name("OrderStatus").unwrap(),
            ins.workload().txn_by_name("StockLevel").unwrap(),
        ],
        seed: 0,
    };
    let report = replay(&ins, &r.partitioning, &stream);
    assert_eq!(report.transfer_bytes, 0);
    assert_eq!(report.rows_written, 0);
    assert!(report.rows_read > 0);
}
