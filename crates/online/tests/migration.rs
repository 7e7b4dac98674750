//! Migration correctness across the stack: canonicalization is idempotent
//! on real solver outputs, zero-drift snapshots plan zero movement, and
//! the engine's journaled migration byte meter equals the plan estimate
//! exactly on TPC-C and the web-shop workload, whether the plan runs as
//! one batch or many.

use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::CostConfig;
use vpart_engine::{
    BatchedMigrationReport, Deployment, FaultInjector, JournalRecord, MigrationJournal,
};
use vpart_model::{Instance, MigrationPlan, Partitioning, SiteId};
use vpart_online::{canonicalize_against, plan_migration};

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

/// Install-byte budgets per batch: one atomic batch, and a budget small
/// enough to split the plans into many batches.
const BUDGETS: [f64; 2] = [f64::INFINITY, 512.0];

/// Migrates a fresh deployment at `plan.from` to completion through a
/// journal, batched at `budget`. Every commit record must meter exactly
/// its batch's estimate.
fn migrate<'a>(
    ins: &'a Instance,
    plan: &MigrationPlan,
    budget: f64,
) -> (Deployment<'a>, BatchedMigrationReport) {
    let batched = plan.batched(ins, budget).unwrap();
    let mut dep = Deployment::new(ins, &plan.from, plan.rows_per_fragment).unwrap();
    let mut journal = MigrationJournal::new();
    let report = dep
        .migrate_batched(&batched, &mut journal, &mut FaultInjector::disabled())
        .unwrap();
    assert!(report.completed);
    let committed: Vec<f64> = journal
        .records()
        .iter()
        .filter_map(|r| match r {
            JournalRecord::BatchCommit { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    let estimated: Vec<f64> = batched.batches.iter().map(|b| b.bytes).collect();
    assert_eq!(committed, estimated, "per-batch meter at budget {budget}");
    (dep, report)
}

/// Applies a site-label permutation.
fn permuted(p: &Partitioning, perm: &[usize]) -> Partitioning {
    let x = p
        .x()
        .iter()
        .map(|s| SiteId::from_index(perm[s.index()]))
        .collect();
    let mut y = vpart_model::BitMatrix::new(p.n_attrs(), p.n_sites());
    for a in 0..p.n_attrs() {
        for s in p.y().row_iter(a) {
            y.set(a, perm[s]);
        }
    }
    Partitioning::from_parts(p.n_sites(), x, y).unwrap()
}

#[test]
fn meter_equals_estimate_on_tpcc() {
    let ins = vpart_instances::tpcc();
    let old = solved(&ins, 3, 1);
    let new = solved(&ins, 3, 99);
    let plan = plan_migration(&ins, &old, &new, 64).unwrap();
    for budget in BUDGETS {
        let (dep, report) = migrate(&ins, &plan, budget);
        assert_eq!(
            report.bytes_moved,
            plan.estimated_bytes(),
            "TPC-C migration meter must equal the plan estimate exactly (budget {budget})"
        );
        assert_eq!(dep.partitioning(), &plan.to);
        // The migrated deployment holds the storage of one built at plan.to.
        let fresh = Deployment::new(&ins, &plan.to, plan.rows_per_fragment).unwrap();
        assert_eq!(dep.state_fingerprint(), fresh.state_fingerprint());
    }
    assert!(plan.batched(&ins, 512.0).unwrap().n_batches() > 1);
}

#[test]
fn meter_equals_estimate_on_web_shop() {
    let ins = web_shop();
    let old = solved(&ins, 2, 7);
    let new = solved(&ins, 2, 31);
    let plan = plan_migration(&ins, &old, &new, 32).unwrap();
    for budget in BUDGETS {
        let (_, report) = migrate(&ins, &plan, budget);
        assert_eq!(
            report.bytes_moved,
            plan.estimated_bytes(),
            "web-shop migration meter must equal the plan estimate exactly (budget {budget})"
        );
        assert_eq!(report.installs, plan.installs());
        assert_eq!(report.drops, plan.drops());
        assert_eq!(report.txns_rerouted, plan.txn_moves.len());
    }
}

#[test]
fn canonicalization_is_idempotent_on_solver_outputs() {
    for (ins, sites) in [(vpart_instances::tpcc(), 3), (web_shop(), 2)] {
        let old = solved(&ins, sites, 5);
        let new = solved(&ins, sites, 17);
        let once = canonicalize_against(&ins, &old, &new).unwrap();
        let twice = canonicalize_against(&ins, &old, &once).unwrap();
        assert_eq!(once, twice, "{}: relabeling must be stable", ins.name());
        once.validate(&ins, false).unwrap();
    }
}

#[test]
fn zero_drift_produces_an_empty_plan() {
    // A re-solve that lands on a site-renumbered copy of the incumbent
    // must migrate nothing, on both workloads.
    for (ins, sites, perm) in [
        (vpart_instances::tpcc(), 3usize, vec![2usize, 0, 1]),
        (web_shop(), 2, vec![1, 0]),
    ] {
        let old = solved(&ins, sites, 11);
        let relabeled = permuted(&old, &perm);
        let plan = plan_migration(&ins, &old, &relabeled, 16).unwrap();
        assert!(
            plan.is_empty(),
            "{}: renumbered-identical layout must plan zero movement",
            ins.name()
        );
        assert_eq!(plan.to, old);
        // And the empty plan applies as a no-op.
        let (dep, report) = migrate(&ins, &plan, f64::INFINITY);
        assert_eq!(report.bytes_moved, 0.0);
        assert_eq!(dep.partitioning(), &old);
    }
}

#[test]
fn warm_resolve_is_never_worse_than_the_incumbent_cost() {
    // The warm-start guarantee end to end on the web-shop instance: the
    // warm re-solve's objective (6) never exceeds the incumbent's.
    let ins = web_shop();
    let cost = CostConfig::default();
    let incumbent = solved(&ins, 2, 7);
    let incumbent_cost = vpart_core::evaluate(&ins, &incumbent, &cost).objective6;
    let warm = SaSolver::new(SaConfig::fast_deterministic(123).warm_started(incumbent))
        .solve(&ins, 2, &cost)
        .unwrap();
    assert!(warm.breakdown.objective6 <= incumbent_cost + 1e-9 * (1.0 + incumbent_cost));
}
