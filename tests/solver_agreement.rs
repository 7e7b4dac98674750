//! Property-based cross-solver agreement on random small instances.
//!
//! With `λ = 1` (pure cost) the exhaustive solver is provably optimal, so:
//!
//! * the QP solver (gap 0) must return the same objective-(4) cost,
//! * the SA solver must never beat it and should usually match it,
//! * evaluation identities must hold for every produced layout.

use proptest::prelude::*;
use vpart::core::{evaluate, CostConfig};
use vpart::prelude::*;
use vpart_instances::RandomParams;

fn small_params() -> impl Strategy<Value = (RandomParams, u64)> {
    (2usize..6, 1usize..4, 0u32..60, 2usize..8, any::<u64>()).prop_map(
        |(n_txns, n_tables, update_pct, max_attrs, seed)| {
            (
                RandomParams {
                    name: format!("prop-{n_txns}-{n_tables}-{seed}"),
                    n_txns,
                    n_tables,
                    max_queries_per_txn: 2,
                    update_pct,
                    max_attrs_per_table: max_attrs,
                    max_table_refs: 2,
                    max_attr_refs: 4,
                    widths: vec![2.0, 8.0],
                },
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn qp_matches_exhaustive_at_lambda_one((params, seed) in small_params()) {
        let instance = params.generate(seed);
        let cost = CostConfig::default().with_lambda(1.0);
        let exact = ExactSolver::default().solve(&instance, 2, &cost).unwrap();
        let mut qc = QpConfig::with_time_limit(120.0);
        qc.mip_gap = 0.0;
        let qp = QpSolver::new(qc).solve(&instance, 2, &cost).unwrap();
        prop_assert!(qp.is_optimal());
        prop_assert!(
            (exact.breakdown.objective4 - qp.breakdown.objective4).abs()
                <= 1e-6 * (1.0 + exact.breakdown.objective4),
            "exhaustive {} vs qp {}",
            exact.breakdown.objective4,
            qp.breakdown.objective4
        );
    }

    #[test]
    fn sa_never_beats_the_optimum((params, seed) in small_params()) {
        let instance = params.generate(seed);
        let cost = CostConfig::default().with_lambda(1.0);
        let exact = ExactSolver::default().solve(&instance, 2, &cost).unwrap();
        let sa = SaSolver::new(SaConfig::fast_deterministic(seed))
            .solve(&instance, 2, &cost)
            .unwrap();
        sa.partitioning.validate(&instance, false).unwrap();
        prop_assert!(
            sa.breakdown.objective4 >= exact.breakdown.objective4 - 1e-6,
            "sa {} below proven optimum {}",
            sa.breakdown.objective4,
            exact.breakdown.objective4
        );
    }

    #[test]
    fn evaluation_identities_hold((params, seed) in small_params()) {
        let instance = params.generate(seed);
        let cost = CostConfig::default();
        let sa = SaSolver::new(SaConfig::fast_deterministic(seed ^ 1))
            .solve(&instance, 3, &cost)
            .unwrap();
        let b = evaluate(&instance, &sa.partitioning, &cost);
        // Objective (4) is exactly A_R + A_W + p·B.
        prop_assert!(
            (b.objective4 - (b.read + b.write + cost.p * b.transfer)).abs()
                <= 1e-9 * (1.0 + b.objective4)
        );
        // m is the max of per-site work.
        let max = b.site_work.iter().fold(0.0f64, |m, &w| m.max(w));
        prop_assert_eq!(max, b.max_work);
        // Objective (6) blends (4) and m by λ.
        prop_assert!(
            (b.objective6 - (cost.lambda * b.objective4 + (1.0 - cost.lambda) * b.max_work))
                .abs()
                <= 1e-9 * (1.0 + b.objective6)
        );
        // Single-site baselines never transfer.
        let single = Partitioning::single_site(&instance, 1).unwrap();
        prop_assert_eq!(evaluate(&instance, &single, &cost).transfer, 0.0);
    }

    #[test]
    fn engine_agrees_on_random_instances((params, seed) in small_params()) {
        let instance = params.generate(seed);
        let cost = CostConfig::default();
        let sa = SaSolver::new(SaConfig::fast_deterministic(seed ^ 2))
            .solve(&instance, 2, &cost)
            .unwrap();
        let predicted = evaluate(&instance, &sa.partitioning, &cost);
        let mut dep = Deployment::new(&instance, &sa.partitioning, 8).unwrap();
        let measured = dep
            .execute(&vpart::engine::ReplayStream::uniform(&instance, 1, 0).executions)
            .unwrap();
        let t = measured.totals();
        prop_assert!((t.bytes_read - predicted.read).abs() <= 1e-6 * (1.0 + predicted.read));
        prop_assert!(
            (t.bytes_written - predicted.write).abs() <= 1e-6 * (1.0 + predicted.write)
        );
        prop_assert!(
            (measured.transfer_bytes - predicted.transfer).abs()
                <= 1e-6 * (1.0 + predicted.transfer)
        );
    }
}
