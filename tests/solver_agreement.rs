//! Property-based cross-solver agreement on random small instances.
//!
//! With `λ = 1` (pure cost) the exhaustive solver is provably optimal, so:
//!
//! * the QP solver (gap 0) must return the same objective-(4) cost,
//! * the SA solver must never beat it and should usually match it,
//! * evaluation identities must hold for every produced layout,
//! * replay must meter exactly the bytes the model predicts (integer
//!   widths, unit frequencies and rows).

use proptest::prelude::*;
use vpart::core::{evaluate, predicted_txn_bytes, CostConfig};
use vpart::engine::{PredictedBytes, ReplayConfig, ReplayDeployment, ReplayStream};
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Replay meters physical bytes; with integer widths, unit
    /// frequencies and unit rows they equal the model's prediction
    /// exactly, and they do not depend on the thread count — also with
    /// more workers than shards, fewer rows than shards, and workers
    /// whose slice of the stream is empty.
    #[test]
    fn replay_agrees_with_the_model_on_random_instances(
        ((params, seed), sites, rows, shards) in (small_params(), 2usize..4, 1usize..100, 1usize..40)
    ) {
        let instance = params.generate(seed);
        let cost = CostConfig::default();
        let sa = SaSolver::new(SaConfig::fast_deterministic(seed ^ 3))
            .solve(&instance, sites, &cost)
            .unwrap();
        let stream = ReplayStream::uniform(&instance, 2, seed);
        let per_txn = predicted_txn_bytes(&instance, &sa.partitioning, &cost);
        let mut predicted = PredictedBytes::default();
        for (t, &c) in stream.counts(instance.n_txns()).iter().enumerate() {
            predicted.read += c as f64 * per_txn[t].read;
            predicted.written += c as f64 * per_txn[t].written;
            predicted.transferred += c as f64 * per_txn[t].transferred;
        }
        let mut reference = None;
        for threads in [1usize, 2, 3, 5] {
            let report = ReplayDeployment::new(&instance, &sa.partitioning, rows, shards)
                .unwrap()
                .replay(&stream, &ReplayConfig::deterministic(threads), Some(&predicted))
                .unwrap();
            let me = report.model_error.unwrap();
            prop_assert_eq!(
                [me.read_ratio, me.write_ratio, me.transfer_ratio, me.overall_ratio],
                [0.0; 4],
                "{} sites, {} rows, {} shards, {} threads: predicted {:?}, measured {:?}",
                sites,
                rows,
                shards,
                threads,
                me.predicted,
                me.measured
            );
            let fp = report.meter_fingerprint();
            match &reference {
                None => reference = Some(fp),
                Some(r) => prop_assert_eq!(r, &fp, "meters differ at {} threads", threads),
            }
        }
    }
}
