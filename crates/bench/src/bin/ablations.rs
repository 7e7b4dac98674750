//! Ablation studies for five solver design choices (README "Design
//! notes" lists the modelling ones):
//!
//! 1. reasonable-cuts reduction on/off (QP model size & time),
//! 2. linearization-constraint pruning on/off,
//! 3. site-symmetry breaking on/off,
//! 4. write-accounting strategy (evaluation of one fixed layout),
//! 5. SA subproblem mode: greedy closed form vs ILP-backed.
//!
//! All variants must agree on the optimal cost where they prove
//! optimality — the ablation varies *effort*, not *answers*.
//!
//! ```sh
//! cargo run --release -p vpart-bench --bin ablations [-- --full]
//! ```

use std::time::Duration;
use vpart_bench::{row, run_qp, Mode};
use vpart_core::qp::QpConfig;
use vpart_core::sa::{SaConfig, SaSolver, SubproblemMode};
use vpart_core::{evaluate, CostConfig, WriteAccounting};

fn main() {
    let mode = Mode::from_args();
    let instance = vpart_instances::tpcc();
    let cost = CostConfig::default();

    println!("Ablation 1-3 — QP structural options on TPC-C, |S| = 3\n");
    let widths = [34usize, 12, 9, 9];
    println!(
        "{}",
        row(
            &[
                "variant".into(),
                "cost".into(),
                "time s".into(),
                "optimal".into()
            ],
            &widths
        )
    );
    type Tweak = Box<dyn Fn(&mut QpConfig)>;
    let variants: Vec<(&str, Tweak)> = vec![
        ("baseline (cuts+prune+symmetry)", Box::new(|_| {})),
        (
            "no reasonable-cuts reduction",
            Box::new(|c| c.reasonable_cuts = false),
        ),
        (
            "no linearization pruning",
            Box::new(|c| c.options.prune_linearization = false),
        ),
        (
            "no symmetry breaking",
            Box::new(|c| c.options.symmetry_breaking = false),
        ),
        (
            "nothing (raw model (7))",
            Box::new(|c| {
                c.reasonable_cuts = false;
                c.options.prune_linearization = false;
                c.options.symmetry_breaking = false;
            }),
        ),
    ];
    for (label, tweak) in variants {
        let mut cfg = mode.qp_config();
        tweak(&mut cfg);
        let cell = run_qp(&instance, 3, &cost, cfg);
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    cell.fmt_cost(0),
                    format!("{:.2}", cell.secs),
                    if cell.optimal {
                        "yes".into()
                    } else {
                        "no".into()
                    },
                ],
                &widths
            )
        );
    }

    println!("\nAblation 4 — write-accounting strategies (fixed 2-site SA layout)\n");
    let layout = SaSolver::new(SaConfig::fast_deterministic(3))
        .solve(&instance, 2, &cost)
        .expect("sa solves tpcc")
        .partitioning;
    println!(
        "{}",
        row(
            &["strategy".into(), "A_W".into(), "obj (4)".into()],
            &[22, 12, 12]
        )
    );
    for wa in [
        WriteAccounting::AllAttributes,
        WriteAccounting::RelevantAttributes,
        WriteAccounting::NoAttributes,
    ] {
        let b = evaluate(&instance, &layout, &cost.clone().with_write_accounting(wa));
        println!(
            "{}",
            row(
                &[
                    format!("{wa:?}"),
                    format!("{:.0}", b.write),
                    format!("{:.0}", b.objective4)
                ],
                &[22, 12, 12]
            )
        );
    }
    println!("(AllAttributes ≥ RelevantAttributes ≥ NoAttributes, §2.1)");

    println!("\nAblation 5 — SA subproblem solver on rndAt8x15, |S| = 2\n");
    let rnd = vpart_instances::by_name("rndAt8x15").unwrap();
    println!(
        "{}",
        row(
            &["mode".into(), "cost".into(), "time s".into()],
            &[22, 12, 9]
        )
    );
    for (label, sub) in [
        ("greedy closed form", SubproblemMode::Greedy),
        (
            "ILP-backed (30s cap)",
            SubproblemMode::IlpBacked {
                time_limit: Duration::from_secs(30),
            },
        ),
    ] {
        let mut sa_cfg = mode.sa_config();
        sa_cfg.subproblem = sub;
        if matches!(sub, SubproblemMode::IlpBacked { .. }) {
            // The exact subproblem is ~100× slower per iteration; shrink the
            // schedule so the ablation finishes (paper used 30 s/iteration).
            sa_cfg.inner_loops = sa_cfg.inner_loops.min(10);
            sa_cfg.freeze_levels = 3;
        }
        let start = std::time::Instant::now();
        let r = SaSolver::new(sa_cfg)
            .solve(&rnd, 2, &cost)
            .expect("sa solves");
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    format!("{:.0}", r.cost()),
                    format!("{:.2}", start.elapsed().as_secs_f64()),
                ],
                &[22, 12, 9]
            )
        );
    }
}
