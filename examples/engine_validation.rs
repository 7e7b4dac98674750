//! Deploys a computed TPC-C partitioning onto the H-store-like execution
//! engine and compares *measured* bytes against the cost model's
//! *predictions* — they must agree exactly under the paper's assumptions.
//!
//! ```sh
//! cargo run --release --example engine_validation
//! ```

use vpart::core::CostConfig;
use vpart::prelude::*;

fn main() {
    let instance = vpart::instances::tpcc();
    let cost = CostConfig::default();
    let rounds = 10;

    let solved = SaSolver::new(SaConfig::fast_deterministic(7))
        .solve(&instance, 3, &cost)
        .unwrap();
    let predicted = &solved.breakdown;

    let mut dep = Deployment::new(&instance, &solved.partitioning, 128).unwrap();
    println!(
        "deployed TPC-C over 3 sites: {} bytes materialized across fragments",
        dep.stored_bytes()
    );
    let measured = dep
        .execute(&ReplayStream::uniform(&instance, rounds, 0).executions)
        .unwrap();
    let k = rounds as f64;
    let t = measured.totals();

    println!("\n{:<22} {:>14} {:>14}", "", "predicted", "measured");
    for (label, pred, got) in [
        ("bytes read (A_R)", k * predicted.read, t.bytes_read),
        ("bytes written (A_W)", k * predicted.write, t.bytes_written),
        (
            "bytes shipped (B)",
            k * predicted.transfer,
            measured.transfer_bytes,
        ),
        (
            "objective (4)",
            k * predicted.objective4,
            measured.measured_objective4(cost.p),
        ),
    ] {
        let status = if (pred - got).abs() <= 1e-6 * (1.0 + pred.abs()) {
            "✓"
        } else {
            "✗"
        };
        println!("{label:<22} {pred:>14.1} {got:>14.1}  {status}");
    }

    println!("\nper-site work (read+write bytes):");
    for (s, (pred, got)) in predicted
        .site_work
        .iter()
        .zip(measured.site_work())
        .enumerate()
    {
        println!(
            "  site {s}: predicted {:>12.1}  measured {:>12.1}",
            k * pred,
            got
        );
    }
    println!(
        "\nsingle-sited executions: {}/{} — read queries never leave their site",
        measured.single_sited_executions, measured.executions
    );
}
