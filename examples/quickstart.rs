//! Quickstart: define a small schema and workload, partition it over two
//! sites with both solvers, and print the resulting layout.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vpart::core::{evaluate, CostConfig};
use vpart::model::report::render_partitioning;
use vpart::model::workload::QuerySpec;
use vpart::prelude::*;

fn main() {
    // Schema: a 6-column `Account` table and a 3-column `AuditLog`.
    let mut sb = Schema::builder();
    let account = sb
        .table(
            "Account",
            &[
                ("id", 8.0),
                ("owner", 32.0),
                ("balance", 8.0),
                ("opened_at", 8.0),
                ("notes", 200.0),
                ("flags", 4.0),
            ],
        )
        .unwrap();
    sb.table(
        "AuditLog",
        &[("account_id", 8.0), ("when", 8.0), ("what", 64.0)],
    )
    .unwrap();
    let schema = sb.build().unwrap();

    let id = schema.attr_by_name("Account", "id").unwrap();
    let owner = schema.attr_by_name("Account", "owner").unwrap();
    let balance = schema.attr_by_name("Account", "balance").unwrap();
    let notes = schema.attr_by_name("Account", "notes").unwrap();
    let log_attrs: Vec<AttrId> = schema
        .table_attrs(TableId(1))
        .map(AttrId::from_index)
        .collect();

    // Workload: a hot balance-check transaction, a rarer full-profile
    // reader, and an audit writer.
    let mut wb = Workload::builder(&schema);
    let check = wb
        .add_query(
            QuerySpec::read("check_balance")
                .access(&[id, balance])
                .frequency(100.0),
        )
        .unwrap();
    let profile = wb
        .add_query(
            QuerySpec::read("load_profile")
                .access(&[id, owner, notes])
                .frequency(5.0),
        )
        .unwrap();
    let (audit_r, audit_w) = wb
        .add_update("append_audit", 20.0, &[id], &log_attrs, &[])
        .unwrap();
    wb.transaction("CheckBalance", &[check]).unwrap();
    wb.transaction("LoadProfile", &[profile]).unwrap();
    wb.transaction("Audit", &[audit_r, audit_w]).unwrap();
    let instance = Instance::new("quickstart", schema, wb.build().unwrap()).unwrap();
    let _ = account;

    let cost = CostConfig::default(); // p = 8, λ = 0.9 (cost-dominant; see CostConfig::lambda)

    // Baseline: everything on one site.
    let single = Partitioning::single_site(&instance, 1).unwrap();
    let base = evaluate(&instance, &single, &cost);
    println!("single-site cost: {:.0}\n", base.objective4);

    // Heuristic solve (fast), then exact solve (proves optimality).
    let sa = SaSolver::new(SaConfig::fast_deterministic(42))
        .solve(&instance, 2, &cost)
        .unwrap();
    println!(
        "SA solver:  cost {:.0} ({:.0}% reduction) in {:.2?}",
        sa.cost(),
        (1.0 - sa.cost() / base.objective4) * 100.0,
        sa.elapsed
    );

    let qp = QpSolver::new(QpConfig::with_time_limit(60.0))
        .solve(&instance, 2, &cost)
        .unwrap();
    println!(
        "QP solver:  cost {:.0} ({:.0}% reduction, optimal: {}) in {:.2?}\n",
        qp.cost(),
        (1.0 - qp.cost() / base.objective4) * 100.0,
        qp.is_optimal(),
        qp.elapsed
    );

    println!("{}", render_partitioning(&instance, &qp.partitioning));
    println!(
        "breakdown: read {:.0}, write {:.0}, transfer {:.0} bytes",
        qp.breakdown.read, qp.breakdown.write, qp.breakdown.transfer
    );
}
