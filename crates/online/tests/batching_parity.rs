//! Batching parity goldens: the batched form of fixed migration plans,
//! pinned exactly.
//!
//! Each case splits one migration plan at budgets of 1, 64, 4096, 10⁹ and
//! ∞ bytes and compares, per budget, the plan fingerprint (which folds
//! every micro-op in application order, install bytes included), the
//! batch count, every batch's `bytes` and `transient_bytes`, and the peak
//! transient bytes with `tests/data/batching/<case>.json`. The plans:
//!
//! * the TPC-C (3 sites, SA seeds 1 → 99) and web-shop (2 sites, seeds
//!   7 → 31) solver pairs of `migration.rs`;
//! * TPC-C single-site → solved, at 3 and at 4 sites;
//! * the first 20 repairs of a drift-watch-style run on rndAt64x100: 4
//!   sites, no memory of closed epochs (decay factor 0), and 10 hot
//!   templates observed at 200× their weight, redrawn every 8 epochs.
//!
//! The goldens were recorded with the fixpoint scheduler that rescanned
//! every pending move and drop after each install; the event-driven
//! scheduler must reproduce them bit for bit. Floats are stored as their
//! shortest round-trip decimal, so equal text means equal bits.
//!
//! To re-record after an intended change, run
//! `VPART_BLESS_BATCHING=1 cargo test -p vpart_online --test batching_parity`
//! and review the diff of `tests/data/batching/`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::path::PathBuf;
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::CostConfig;
use vpart_model::{Instance, MigrationPlan, Partitioning, TxnId};
use vpart_online::{
    plan_migration, DecayMode, OnlineWorkload, TrackerConfig, WatchConfig, Watcher,
};

const BUDGETS: [(&str, f64); 5] = [
    ("1", 1.0),
    ("64", 64.0),
    ("4096", 4096.0),
    ("1e9", 1e9),
    ("inf", f64::INFINITY),
];

fn web_shop() -> Instance {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let schema = std::fs::read_to_string(format!("{dir}/schema.sql"))
        .expect("examples/data/schema.sql is checked in");
    let log = std::fs::read_to_string(format!("{dir}/queries.log"))
        .expect("examples/data/queries.log is checked in");
    vpart_ingest::ingest(
        &schema,
        &log,
        &vpart_ingest::IngestOptions::default().with_name("web-shop"),
    )
    .expect("the checked-in workload ingests cleanly")
    .instance
}

fn solved(instance: &Instance, sites: usize, seed: u64) -> Partitioning {
    SaSolver::new(SaConfig::fast_deterministic(seed))
        .solve(instance, sites, &CostConfig::default())
        .expect("SA solves")
        .partitioning
}

/// One plan batched at every budget.
fn batchings(instance: &Instance, plan: &MigrationPlan) -> Value {
    let per_budget: Vec<Value> = BUDGETS
        .iter()
        .map(|&(label, budget)| {
            let b = plan.batched(instance, budget).expect("the plan batches");
            let batches: Vec<String> = b
                .batches
                .iter()
                .map(|x| format!("{}/{}", x.bytes, x.transient_bytes))
                .collect();
            json!({
                "budget": label,
                "fingerprint": format!("{:016x}", b.fingerprint()),
                "n_batches": b.n_batches(),
                "peak_transient_bytes": b.peak_transient_bytes,
                "batches": batches.join(" "),
            })
        })
        .collect();
    json!({
        "installs": plan.installs(),
        "drops": plan.drops(),
        "txn_moves": plan.txn_moves.len(),
        "estimated_bytes": plan.estimated_bytes(),
        "budgets": per_budget,
    })
}

fn solver_pairs() -> Vec<(&'static str, Value)> {
    let tpcc = vpart_instances::tpcc();
    let shop = web_shop();
    let pair = |ins: &Instance, sites, from_seed, to_seed, rows| {
        let from = solved(ins, sites, from_seed);
        let to = solved(ins, sites, to_seed);
        batchings(ins, &plan_migration(ins, &from, &to, rows).expect("plan"))
    };
    let from_single = |ins: &Instance, sites| {
        let from = Partitioning::single_site(ins, sites).expect("single site");
        let to = solved(ins, sites, 1);
        batchings(ins, &plan_migration(ins, &from, &to, 64).expect("plan"))
    };
    vec![
        ("tpcc_pair_3_sites", pair(&tpcc, 3, 1, 99, 64)),
        ("web_shop_pair_2_sites", pair(&shop, 2, 7, 31, 32)),
        ("tpcc_single_to_3_sites", from_single(&tpcc, 3)),
        ("tpcc_single_to_4_sites", from_single(&tpcc, 4)),
    ]
}

/// The first 20 repairs of a drifting watch loop on rndAt64x100.
fn drift_repairs() -> Value {
    const REPAIRS: usize = 20;
    const PHASE: usize = 8;
    const HOT: usize = 10;
    let instance = vpart_instances::by_name("rndAt64x100").expect("catalog instance");
    let n = instance.n_txns();
    let weights: Vec<f64> = (0..n)
        .map(|t| {
            let w = instance.workload();
            w.txn(TxnId::from_index(t))
                .queries
                .iter()
                .map(|&q| w.query(q).frequency)
                .fold(0.0, f64::max)
        })
        .collect();
    let config = TrackerConfig {
        decay: DecayMode::Exponential { factor: 0.0 },
        ..TrackerConfig::default()
    };
    let tracker = OnlineWorkload::from_instance(&instance, config).expect("tracker");
    let watch = WatchConfig {
        sites: 4,
        seed: 1,
        threads: 1,
        migration_batch_bytes: 4096.0,
        ..WatchConfig::default()
    };
    let mut watcher = Watcher::new(tracker, watch).expect("watcher");
    let mut rng = StdRng::seed_from_u64(7);
    let mut templates: Vec<usize> = (0..n).collect();
    let mut hot = Vec::new();
    let mut repairs = Vec::new();
    for epoch in 0..40 * PHASE {
        if epoch.is_multiple_of(PHASE) {
            templates.shuffle(&mut rng);
            hot = templates[..HOT].to_vec();
        }
        for (t, &w) in weights.iter().enumerate() {
            let mult = if hot.contains(&t) { 200.0 } else { 1.0 };
            watcher
                .tracker_mut()
                .observe(t, w * 10.0 * mult)
                .expect("observe");
        }
        let snapshot = watcher.tracker().snapshot().expect("snapshot");
        let outcome = watcher.end_epoch("drift").expect("epoch");
        if let Some(m) = &outcome.migration {
            repairs.push(json!({
                "epoch": epoch,
                "plan": batchings(&snapshot, &m.plan),
            }));
            if repairs.len() == REPAIRS {
                return Value::Array(repairs);
            }
        }
    }
    panic!("only {} repairs in {} epochs", repairs.len(), 40 * PHASE);
}

#[test]
fn batched_plans_match_the_recorded_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/batching");
    let bless = std::env::var_os("VPART_BLESS_BATCHING").is_some();
    let mut cases = solver_pairs();
    cases.push(("drift_watch_rnd_a64", drift_repairs()));
    let mut mismatches = Vec::new();
    for (name, value) in cases {
        let actual = serde_json::to_string_pretty(&value).expect("golden serializes") + "\n";
        let path = dir.join(format!("{name}.json"));
        if bless {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &actual).expect("golden written");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (record with VPART_BLESS_BATCHING=1)",
                path.display()
            )
        });
        if actual != expected {
            let line = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .map_or(actual.lines().count().min(expected.lines().count()), |i| i)
                + 1;
            mismatches.push(format!("{name}: first difference at line {line}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches:\n{}",
        mismatches.join("\n")
    );
}
