//! Deploys a computed TPC-C partitioning onto the H-store-like execution
//! engine, replays uniform rounds of the workload and compares *measured*
//! bytes against the cost model's *predictions* — they must agree exactly
//! under the paper's assumptions (TPC-C has integer widths). Exits
//! non-zero when any meter differs from the model.
//!
//! ```sh
//! cargo run --release --example engine_validation
//! ```

use std::process::ExitCode;
use vpart::core::CostConfig;
use vpart::prelude::*;

fn main() -> ExitCode {
    let instance = vpart::instances::tpcc();
    let cost = CostConfig::default();
    let rounds = 10;

    let solved = SaSolver::new(SaConfig::fast_deterministic(7))
        .solve(&instance, 3, &cost)
        .unwrap();
    let predicted = &solved.breakdown;

    let mut dep = ReplayDeployment::new(&instance, &solved.partitioning, 128, 8).unwrap();
    println!(
        "deployed TPC-C over 3 sites: {} bytes materialized across fragments",
        dep.stored_bytes()
    );
    let measured = dep
        .replay(
            &ReplayStream::uniform(&instance, rounds, 0),
            &ReplayConfig::deterministic(2),
            None,
        )
        .unwrap();
    let k = rounds as f64;
    let t = measured.totals();
    let (read, written) = (t.bytes_read as f64, t.bytes_written as f64);
    let transfer = measured.transfer_bytes as f64;

    let mut agree = true;
    let mut row = |label: &str, pred: f64, got: f64| {
        let ok = pred == got;
        agree &= ok;
        let status = if ok { "✓" } else { "✗" };
        println!("{label:<22} {pred:>14.1} {got:>14.1}  {status}");
    };
    println!("\n{:<22} {:>14} {:>14}", "", "predicted", "measured");
    row("bytes read (A_R)", k * predicted.read, read);
    row("bytes written (A_W)", k * predicted.write, written);
    row("bytes shipped (B)", k * predicted.transfer, transfer);
    row(
        "objective (4)",
        k * predicted.objective4,
        read + written + cost.p * transfer,
    );
    println!("\nper-site work (read+write bytes):");
    for (s, (pred, got)) in predicted
        .site_work
        .iter()
        .zip(&measured.per_site)
        .enumerate()
    {
        row(&format!("  site {s}"), k * pred, got.work() as f64);
    }

    if agree {
        println!("\nreplay meters equal the model's prediction");
        ExitCode::SUCCESS
    } else {
        eprintln!("replay meters differ from the model's prediction");
        ExitCode::FAILURE
    }
}
