//! Drift detection: is the incumbent partitioning still good enough?
//!
//! Re-solving from scratch on every snapshot would burn the multi-start
//! budget on workloads that did not move. [`assess_drift`] instead
//! re-scores the incumbent against the current snapshot with the
//! coefficient scorer [`vpart_core::fast_objective6`] and compares it with
//! a *fresh bound*: the best of a few deterministic alternating
//! `findSolution` passes (refining the incumbent's transaction assignment
//! and a handful of seeded random ones), scored the same way. The
//! **drift score** is the incumbent's relative regression over that
//! bound,
//!
//! ```text
//! score = (cost(incumbent | snapshot) − bound) / bound
//! ```
//!
//! and a re-solve triggers when the score exceeds
//! [`DriftConfig::threshold`]. One scorer prices both sides, so an
//! incumbent that no probe beats scores exactly 0. The bound is itself a
//! feasible layout, so a triggered re-solve can warm-start from whichever
//! of incumbent/bound is better.

use crate::OnlineError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpart_core::cost::coeffs::CostCoefficients;
use vpart_core::sa::subproblem::{optimal_x_for_y, optimal_y_for_x};
use vpart_core::{fast_objective6, CostConfig};
use vpart_model::{Instance, Partitioning, SiteId};

/// Drift detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Relative regression of the incumbent over the fresh bound that
    /// triggers a re-solve (e.g. `0.05` = 5%).
    pub threshold: f64,
    /// Number of seeded random starting points probed for the fresh bound
    /// (on top of the incumbent refinement). More probes tighten the
    /// bound at proportional cost.
    pub bound_probes: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            threshold: 0.05,
            bound_probes: 2,
        }
    }
}

impl DriftConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), OnlineError> {
        if !(self.threshold >= 0.0) || !self.threshold.is_finite() {
            return Err(OnlineError::BadConfig(format!(
                "drift threshold must be finite and non-negative, got {}",
                self.threshold
            )));
        }
        Ok(())
    }
}

/// Outcome of one drift assessment.
#[derive(Debug, Clone)]
pub struct DriftAssessment {
    /// Objective (6) of the (adapted) incumbent on the snapshot.
    pub incumbent_cost: f64,
    /// The fresh bound: best objective (6) among the probe layouts (never
    /// above `incumbent_cost`).
    pub bound: f64,
    /// `(incumbent_cost − bound) / bound`, clamped at 0.
    pub score: f64,
    /// `score > threshold`.
    pub triggered: bool,
    /// The incumbent mapped onto the snapshot (see [`adapt_incumbent`]) —
    /// the layout `incumbent_cost` was measured on, and the migration
    /// source when the re-solve triggers.
    pub adapted: Partitioning,
    /// The layout achieving `bound` (the adapted incumbent itself when
    /// nothing beat it) — a ready-made warm start for the re-solve.
    pub bound_partitioning: Partitioning,
}

/// Maps an incumbent onto a (possibly grown) snapshot: templates that
/// appeared after the incumbent was solved are placed on site 0 and the
/// single-sitedness closure is repaired. An incumbent whose transaction
/// count exceeds the snapshot's is rejected — tracker template indices
/// are append-only, so that means the snapshot is not from the same
/// tracker lineage.
pub fn adapt_incumbent(
    snapshot: &Instance,
    incumbent: &Partitioning,
) -> Result<Partitioning, OnlineError> {
    if incumbent.n_txns() > snapshot.n_txns() || incumbent.n_attrs() != snapshot.n_attrs() {
        return Err(OnlineError::IncumbentShape {
            txns: incumbent.n_txns(),
            snapshot_txns: snapshot.n_txns(),
            attrs: incumbent.n_attrs(),
            snapshot_attrs: snapshot.n_attrs(),
        });
    }
    let mut x = incumbent.x().to_vec();
    x.resize(snapshot.n_txns(), SiteId(0));
    let mut adapted = Partitioning::from_parts(incumbent.n_sites(), x, incumbent.y().clone())?;
    adapted.repair_single_sitedness(snapshot);
    adapted.validate(snapshot, false)?;
    Ok(adapted)
}

/// Deterministic fresh bound: alternating subproblem passes from the
/// incumbent's `x` and from `probes` seeded random assignments. Returns
/// the best layout and its cost; the incumbent, scored as
/// `incumbent_cost`, stands until a probe beats it.
fn fresh_bound(
    snapshot: &Instance,
    coeffs: &CostCoefficients,
    incumbent: &Partitioning,
    incumbent_cost: f64,
    cost: &CostConfig,
    probes: u64,
) -> (Partitioning, f64) {
    let n_sites = incumbent.n_sites();
    let score = |p: &Partitioning| fast_objective6(snapshot, coeffs, p, cost);

    let mut best = incumbent.clone();
    let mut best_cost = incumbent_cost;
    let mut consider = |mut p: Partitioning| {
        for _ in 0..2 {
            p = optimal_x_for_y(snapshot, coeffs, &p, cost);
            p = optimal_y_for_x(snapshot, coeffs, p.x(), n_sites, cost);
        }
        let c = score(&p);
        if c < best_cost {
            best = p;
            best_cost = c;
        }
    };

    consider(optimal_y_for_x(
        snapshot,
        coeffs,
        incumbent.x(),
        n_sites,
        cost,
    ));
    for seed in 0..probes {
        let mut rng = StdRng::seed_from_u64(0xD41F7 ^ seed);
        let x: Vec<SiteId> = (0..snapshot.n_txns())
            .map(|_| SiteId::from_index(rng.gen_range(0..n_sites)))
            .collect();
        consider(optimal_y_for_x(snapshot, coeffs, &x, n_sites, cost));
    }
    (best, best_cost)
}

/// Re-scores `incumbent` against `snapshot` and decides whether the drift
/// warrants a re-solve. The incumbent is adapted first (see
/// [`adapt_incumbent`]); it and every probe of the bound are priced by
/// [`fast_objective6`] on the snapshot's coefficients.
pub fn assess_drift(
    snapshot: &Instance,
    incumbent: &Partitioning,
    cost: &CostConfig,
    config: &DriftConfig,
) -> Result<DriftAssessment, OnlineError> {
    config.validate()?;
    let adapted = adapt_incumbent(snapshot, incumbent)?;
    let coeffs = CostCoefficients::compute(snapshot, cost);
    let incumbent_cost = fast_objective6(snapshot, &coeffs, &adapted, cost);
    let (bound_partitioning, bound) = fresh_bound(
        snapshot,
        &coeffs,
        &adapted,
        incumbent_cost,
        cost,
        config.bound_probes,
    );
    let score = ((incumbent_cost - bound) / bound.max(f64::MIN_POSITIVE)).max(0.0);
    Ok(DriftAssessment {
        incumbent_cost,
        bound,
        score,
        triggered: score > config.threshold,
        adapted,
        bound_partitioning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{AttrId, Schema, Workload};

    /// Pinned reader/writer pairs on R and S, two mobile readers of the
    /// shared hot attribute `h`, and a writer of `h` at `write_freq`:
    /// cheap to replicate `h` when writes are rare, worth centralizing
    /// its readers when writes dominate.
    fn instance(write_freq: f64) -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("r1", 50.0)]).unwrap();
        sb.table("S", &[("s1", 50.0)]).unwrap();
        sb.table("H", &[("h", 100.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let r_read = wb
            .add_query(
                QuerySpec::read("r_read")
                    .access(&[AttrId(0)])
                    .frequency(10.0),
            )
            .unwrap();
        let r_write = wb
            .add_query(
                QuerySpec::write("r_write")
                    .access(&[AttrId(0)])
                    .frequency(10.0),
            )
            .unwrap();
        let s_read = wb
            .add_query(
                QuerySpec::read("s_read")
                    .access(&[AttrId(1)])
                    .frequency(10.0),
            )
            .unwrap();
        let s_write = wb
            .add_query(
                QuerySpec::write("s_write")
                    .access(&[AttrId(1)])
                    .frequency(10.0),
            )
            .unwrap();
        let h_read_a = wb
            .add_query(
                QuerySpec::read("h_read_a")
                    .access(&[AttrId(2)])
                    .frequency(40.0),
            )
            .unwrap();
        let h_read_b = wb
            .add_query(
                QuerySpec::read("h_read_b")
                    .access(&[AttrId(2)])
                    .frequency(40.0),
            )
            .unwrap();
        let h_write = wb
            .add_query(
                QuerySpec::write("h_write")
                    .access(&[AttrId(2)])
                    .frequency(write_freq),
            )
            .unwrap();
        wb.transaction("T0", &[r_read, r_write]).unwrap();
        wb.transaction("T1", &[s_read, s_write]).unwrap();
        wb.transaction("T2", &[h_read_a]).unwrap();
        wb.transaction("T3", &[h_read_b]).unwrap();
        wb.transaction("TW", &[h_write]).unwrap();
        Instance::new("drift", schema, wb.build().unwrap()).unwrap()
    }

    fn solve(ins: &Instance, cost: &CostConfig) -> Partitioning {
        vpart_core::sa::SaSolver::new(vpart_core::sa::SaConfig::fast_deterministic(3))
            .solve(ins, 2, cost)
            .unwrap()
            .partitioning
    }

    #[test]
    fn stationary_snapshot_scores_zero() {
        let cost = CostConfig::default().with_lambda(0.5);
        let ins = instance(1.0);
        let incumbent = solve(&ins, &cost);
        let a = assess_drift(&ins, &incumbent, &cost, &DriftConfig::default()).unwrap();
        assert!(
            a.score <= 1e-9,
            "optimal incumbent has no drift: {}",
            a.score
        );
        assert!(!a.triggered);
        assert!(a.bound <= a.incumbent_cost);
    }

    #[test]
    fn write_flip_triggers_a_resolve() {
        // Phase 1: `h` writes are rare, so the incumbent replicates `h`
        // and spreads its readers for load balance. Phase 2: `h` writes
        // dominate, so every extra replica costs a full write stream —
        // centralizing the readers wins, the incumbent regresses, and the
        // drift detector must notice.
        let cost = CostConfig::default().with_lambda(0.5);
        let incumbent = solve(&instance(1.0), &cost);
        let after = instance(150.0);
        let a = assess_drift(&after, &incumbent, &cost, &DriftConfig::default()).unwrap();
        assert!(a.bound < a.incumbent_cost, "a re-fit must help");
        assert!(a.triggered, "score {} should exceed 5%", a.score);
        // The reported bound layout really achieves the bound.
        let coeffs = CostCoefficients::compute(&after, &cost);
        let c = fast_objective6(&after, &coeffs, &a.bound_partitioning, &cost);
        assert!((c - a.bound).abs() <= 1e-9 * (1.0 + a.bound));
    }

    /// The drift schema with only the first `txns` transaction templates.
    fn truncated(write_freq: f64, txns: usize) -> Instance {
        let full = instance(write_freq);
        let schema = full.schema().clone();
        let mut wb = Workload::builder(&schema);
        for t in 0..txns {
            let txn = full.workload().txn(vpart_model::TxnId::from_index(t));
            let mut qids = Vec::new();
            for &q in &txn.queries {
                let src = full.workload().query(q);
                let mut spec = if src.kind.is_write() {
                    QuerySpec::write(&src.name)
                } else {
                    QuerySpec::read(&src.name)
                };
                spec = spec.access(&src.attrs).frequency(src.frequency);
                qids.push(wb.add_query(spec).unwrap());
            }
            wb.transaction(&txn.name, &qids).unwrap();
        }
        Instance::new("truncated", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn incumbent_with_more_txns_than_snapshot_is_rejected() {
        let big = instance(1.0);
        let solved = solve(&big, &CostConfig::default());
        let small = truncated(1.0, 2);
        assert!(matches!(
            adapt_incumbent(&small, &solved),
            Err(OnlineError::IncumbentShape { .. })
        ));
    }

    #[test]
    fn grown_snapshot_extends_the_incumbent() {
        // Solve on the first three templates, then assess against the
        // full five-template snapshot: the two new transactions land on
        // site 0 with their read sets repaired.
        let cost = CostConfig::default().with_lambda(0.5);
        let small = truncated(1.0, 3);
        let solved = solve(&small, &cost);
        let grown = instance(1.0);
        let adapted = adapt_incumbent(&grown, &solved).unwrap();
        assert_eq!(adapted.n_txns(), 5);
        adapted.validate(&grown, false).unwrap();
        assert_eq!(adapted.site_of(vpart_model::TxnId(3)), SiteId(0));
        assert_eq!(adapted.site_of(vpart_model::TxnId(4)), SiteId(0));
        // Assessment runs end to end on the grown snapshot.
        assess_drift(&grown, &solved, &cost, &DriftConfig::default()).unwrap();
    }

    #[test]
    fn bad_threshold_is_rejected() {
        let ins = instance(1.0);
        let p = Partitioning::single_site(&ins, 2).unwrap();
        let cfg = DriftConfig {
            threshold: f64::NAN,
            bound_probes: 1,
        };
        assert!(assess_drift(&ins, &p, &CostConfig::default(), &cfg).is_err());
    }
}
