//! Table 1 — effect of the six instance parameters (A–F) on the SA cost.
//!
//! Varies one parameter at a time around the defaults
//! `A=3 B=10 C=15 D=5 E=15 F={4,8}`, for two class sizes
//! (`#tables = |T| = 20` and `100`) and `|S| ∈ {1,2,3}`. Costs in 10⁶.
//!
//! ```sh
//! cargo run --release -p vpart-bench --bin table1 [-- --full]
//! ```

use vpart_bench::{row, run_sa, sig4, single_site_cost, Mode};
use vpart_core::CostConfig;
use vpart_instances::RandomParams;

type ParamTweak = Box<dyn Fn(&mut RandomParams)>;

struct Variation {
    label: &'static str,
    name: &'static str,
    values: Vec<(String, ParamTweak)>,
    default_idx: usize,
}

fn variations() -> Vec<Variation> {
    vec![
        Variation {
            label: "A",
            name: "Max queries per transaction",
            values: [1usize, 3, 5]
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut RandomParams)> =
                        Box::new(move |p: &mut RandomParams| p.max_queries_per_txn = v);
                    (v.to_string(), f)
                })
                .collect(),
            default_idx: 1,
        },
        Variation {
            label: "B",
            name: "Percent update queries",
            values: [0u32, 10, 30]
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut RandomParams)> =
                        Box::new(move |p: &mut RandomParams| p.update_pct = v);
                    (v.to_string(), f)
                })
                .collect(),
            default_idx: 1,
        },
        Variation {
            label: "C",
            name: "Max attributes per table",
            values: [5usize, 15, 35]
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut RandomParams)> =
                        Box::new(move |p: &mut RandomParams| p.max_attrs_per_table = v);
                    (v.to_string(), f)
                })
                .collect(),
            default_idx: 1,
        },
        Variation {
            label: "D",
            name: "Max table references per query",
            values: [2usize, 5, 10]
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut RandomParams)> =
                        Box::new(move |p: &mut RandomParams| p.max_table_refs = v);
                    (v.to_string(), f)
                })
                .collect(),
            default_idx: 1,
        },
        Variation {
            label: "E",
            name: "Max attribute references per query",
            values: [5usize, 15, 25]
                .iter()
                .map(|&v| {
                    let f: Box<dyn Fn(&mut RandomParams)> =
                        Box::new(move |p: &mut RandomParams| p.max_attr_refs = v);
                    (v.to_string(), f)
                })
                .collect(),
            default_idx: 1,
        },
        Variation {
            label: "F",
            name: "Allowed attribute widths",
            values: vec![
                (
                    "{2,4,8}".to_owned(),
                    Box::new(|p: &mut RandomParams| p.widths = vec![2.0, 4.0, 8.0])
                        as Box<dyn Fn(&mut RandomParams)>,
                ),
                (
                    "{4,8}".to_owned(),
                    Box::new(|p: &mut RandomParams| p.widths = vec![4.0, 8.0]),
                ),
                (
                    "{4,8,16}".to_owned(),
                    Box::new(|p: &mut RandomParams| p.widths = vec![4.0, 8.0, 16.0]),
                ),
            ],
            default_idx: 1,
        },
    ]
}

fn main() {
    let mode = Mode::from_args();
    let cost = CostConfig::default();
    let widths = [1usize, 28, 8, 8, 8, 8, 8, 8];

    println!(
        "Table 1 — parameter influence on SA cost (units of 10^6, p = 8, λ = 0.9 (see CostConfig::lambda))"
    );
    println!("defaults marked with *; columns per class: |S| = 1, 2, 3\n");
    println!(
        "{}",
        row(
            &[
                "".into(),
                "parameter / value".into(),
                "20:S1".into(),
                "20:S2".into(),
                "20:S3".into(),
                "100:S1".into(),
                "100:S2".into(),
                "100:S3".into(),
            ],
            &widths
        )
    );

    for variation in variations() {
        for (vi, (value_label, apply)) in variation.values.iter().enumerate() {
            let marker = if vi == variation.default_idx {
                "*"
            } else {
                " "
            };
            let mut cells: Vec<String> = vec![
                variation.label.into(),
                format!("{} = {}{marker}", variation.name, value_label),
            ];
            for n in [20usize, 100] {
                let mut params = RandomParams::table1_default(n);
                apply(&mut params);
                params.name = format!("t1-{}-{}-{}", variation.label, value_label, n);
                // One instance per row (seed from the row), shared by the
                // three site counts — as in the paper.
                let seed = 0x7AB1E1u64
                    ^ (n as u64) << 32
                    ^ (variation.label.as_bytes()[0] as u64) << 16
                    ^ vi as u64;
                let instance = params.generate(seed);
                for sites in [1usize, 2, 3] {
                    let c = if sites == 1 {
                        single_site_cost(&instance, &cost)
                    } else {
                        run_sa(&instance, sites, &cost, mode.sa_config())
                            .cost
                            .expect("sa always returns a layout")
                    };
                    cells.push(sig4(c / 1e6));
                }
            }
            println!("{}", row(&cells, &widths));
        }
        println!();
    }
    println!("reading: costs fall with more sites; the drop is largest for few");
    println!("queries/txn (A=1), few updates (B=0), wide tables (C=35) and");
    println!("moderate attribute references — matching the paper's Table 1.");
}
