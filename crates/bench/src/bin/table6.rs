//! Table 6 — local (`p = 0`) vs remote (`p > 0`) partition placement,
//! with attribute replication allowed, QP and SA side by side.
//!
//! Costs in 10⁵. Only updates cause inter-site transfer, so the update-
//! heavy `…u50` instances benefit most from local placement.
//!
//! ```sh
//! cargo run --release -p vpart-bench --bin table6 [-- --full]
//! ```

use vpart_bench::{row, run_qp, run_sa, Mode};
use vpart_core::CostConfig;
use vpart_instances::by_name;

fn main() {
    let mode = Mode::from_args();
    let rows: Vec<(&str, usize)> = vec![
        ("tpcc", 1),
        ("tpcc", 2),
        ("tpcc", 3),
        ("rndAt4x15", 2),
        ("rndAt8x15", 2),
        ("rndAt8x15u50", 2),
        ("rndBt8x15", 2),
        ("rndBt16x15", 2),
        ("rndBt16x15u50", 2),
    ];

    let widths = [14usize, 6, 5, 4, 11, 11, 11, 11];
    println!("Table 6 — local (p=0) vs remote (p=8) placement, replication allowed");
    println!("costs ×10^5, λ = 0.9 (see CostConfig::lambda)\n");
    println!(
        "{}",
        row(
            &[
                "instance".into(),
                "|A|".into(),
                "|T|".into(),
                "|S|".into(),
                "loc QP".into(),
                "loc SA".into(),
                "rem QP".into(),
                "rem SA".into(),
            ],
            &widths
        )
    );

    for (name, sites) in rows {
        let instance = by_name(name).expect("catalog instance");
        let mut cells = vec![
            name.to_string(),
            instance.n_attrs().to_string(),
            instance.n_txns().to_string(),
            sites.to_string(),
        ];
        for p in [0.0, 8.0] {
            let cost = CostConfig::default().with_p(p);
            let qp = run_qp(&instance, sites, &cost, mode.qp_config());
            let sa = run_sa(&instance, sites, &cost, mode.sa_config());
            cells.push(qp.fmt_cost(5));
            cells.push(sa.fmt_cost(5));
        }
        println!("{}", row(&cells, &widths));
    }
    println!("\nreading: write-rarely instances barely notice remote placement;");
    println!("the 50%-update variants pay visibly more remotely — only updates");
    println!("cause inter-site transfer (the paper's Table 6 conclusion).");
}
