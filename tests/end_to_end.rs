//! Cross-crate integration: instance → solver → partitioning → engine.

use vpart::core::{evaluate, CostConfig};
use vpart::prelude::*;

#[test]
fn full_pipeline_on_tpcc() {
    let instance = vpart::instances::tpcc();
    let cost = CostConfig::default();

    // Heuristic solve.
    let sa = SaSolver::new(SaConfig::fast_deterministic(21))
        .solve(&instance, 2, &cost)
        .unwrap();
    sa.partitioning.validate(&instance, false).unwrap();

    // SA solution warm-starts the exact solver; the QP may only improve it
    // in the blended objective (6).
    let qp = QpSolver::new(QpConfig {
        warm_start: Some(sa.partitioning.clone()),
        ..QpConfig::with_time_limit(120.0)
    })
    .solve(&instance, 2, &cost)
    .unwrap();
    assert!(qp.breakdown.objective6 <= sa.breakdown.objective6 + 1e-9);

    // Deploy the QP layout and replay two rounds: measured == predicted.
    let measured = ReplayDeployment::new(&instance, &qp.partitioning, 32, 4)
        .unwrap()
        .replay(
            &ReplayStream::uniform(&instance, 2, 0),
            &ReplayConfig::deterministic(2),
            None,
        )
        .unwrap();
    let predicted = evaluate(&instance, &qp.partitioning, &cost);
    let t = measured.totals();
    let objective4 =
        t.bytes_read as f64 + t.bytes_written as f64 + cost.p * measured.transfer_bytes as f64;
    assert_eq!(objective4, 2.0 * predicted.objective4);
}

#[test]
fn facade_algorithm_dispatch_and_serde() {
    let instance = vpart::instances::by_name("rndBt4x15").unwrap();
    let cost = CostConfig::default();
    let report = vpart::solve(&instance, 2, &vpart::Algorithm::sa(3), &cost).unwrap();

    // Instance and partitioning round-trip through JSON.
    let json = serde_json::to_string(&instance).unwrap();
    let back: Instance = serde_json::from_str(&json).unwrap();
    assert_eq!(instance, back);
    let pjson = serde_json::to_string(&report.partitioning).unwrap();
    let pback: Partitioning = serde_json::from_str(&pjson).unwrap();
    assert_eq!(report.partitioning, pback);
    // The deserialized pair still validates together.
    pback.validate(&back, false).unwrap();
}

#[test]
fn canonicalization_preserves_cost() {
    let instance = vpart::instances::tpcc();
    let cost = CostConfig::default();
    let sa = SaSolver::new(SaConfig::fast_deterministic(4))
        .solve(&instance, 3, &cost)
        .unwrap();
    let canon = sa.partitioning.canonicalized();
    canon.validate(&instance, false).unwrap();
    let a = evaluate(&instance, &sa.partitioning, &cost);
    let b = evaluate(&instance, &canon, &cost);
    assert!((a.objective4 - b.objective4).abs() < 1e-9);
    assert!((a.objective6 - b.objective6).abs() < 1e-9);
    // Canonical form: the first transaction sits on site 0.
    assert_eq!(canon.site_of(TxnId(0)), SiteId(0));
}

#[test]
fn more_sites_never_raise_the_optimum() {
    // With replication allowed, a k-site solution embeds into k+1 sites,
    // so the QP optimum is non-increasing in |S|.
    let instance = vpart::instances::by_name("rndBt4x15").unwrap();
    let cost = CostConfig::default().with_lambda(1.0);
    let mut prev = f64::INFINITY;
    for sites in 1..=3 {
        let mut qc = QpConfig::with_time_limit(120.0);
        qc.mip_gap = 0.0;
        let r = QpSolver::new(qc).solve(&instance, sites, &cost).unwrap();
        assert!(r.is_optimal(), "|S|={sites} must solve");
        assert!(
            r.breakdown.objective4 <= prev + 1e-9,
            "|S|={sites}: {} > previous {prev}",
            r.breakdown.objective4
        );
        prev = r.breakdown.objective4;
    }
}

#[test]
fn latency_extension_only_adds_cost_for_remote_writes() {
    let instance = vpart::instances::tpcc();
    let base = CostConfig::default();
    let with_latency = CostConfig::default().with_latency(50.0);
    let sa = SaSolver::new(SaConfig::fast_deterministic(8))
        .solve(&instance, 2, &base)
        .unwrap();
    let b0 = evaluate(&instance, &sa.partitioning, &base);
    let b1 = evaluate(&instance, &sa.partitioning, &with_latency);
    assert_eq!(
        b0.objective4, b1.objective4,
        "latency never changes objective (4)"
    );
    assert!(b1.latency >= 0.0);
    assert!(b1.objective6 >= b0.objective6);
    // Single-site layouts have zero latency term.
    let single = Partitioning::single_site(&instance, 1).unwrap();
    assert_eq!(evaluate(&instance, &single, &with_latency).latency, 0.0);
}

#[test]
fn multi_start_facade_beats_or_matches_single_start_on_tpcc() {
    let instance = vpart::instances::tpcc();
    let cost = CostConfig::default();
    // Equal per-chain budget: multi-start chain 0 replays the single-start
    // chain (seeds derive as seed + restart index), so best-of-4 can only
    // match or beat it.
    let single = vpart::solve(&instance, 3, &vpart::Algorithm::sa(9), &cost).unwrap();
    let multi = vpart::solve(
        &instance,
        3,
        &vpart::Algorithm::sa_multi_start(9, 4, 4),
        &cost,
    )
    .unwrap();
    multi.partitioning.validate(&instance, false).unwrap();
    assert_eq!(multi.restarts.len(), 4);
    assert_eq!(multi.restarts.iter().filter(|s| s.winner).count(), 1);
    // Exact-replay guarantees (chain 0 == single-start; thread-count
    // independence) hold only when every chain froze naturally — TPC-C
    // freezes in milliseconds against the 600 s default budget, so a
    // timeout here means a pathologically loaded machine, not a bug.
    let serial = vpart::solve(
        &instance,
        3,
        &vpart::Algorithm::sa_multi_start(9, 4, 1),
        &cost,
    )
    .unwrap();
    let all_froze = [&single, &multi, &serial]
        .iter()
        .all(|r| r.restarts.iter().all(|s| !s.timed_out));
    if all_froze {
        assert!(multi.breakdown.objective6 <= single.breakdown.objective6 + 1e-9);
        assert_eq!(serial.partitioning, multi.partitioning);
        assert_eq!(serial.breakdown.objective6, multi.breakdown.objective6);
    }
}
