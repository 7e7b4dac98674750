//! Metamorphic relations: how an answer must change when its input
//! changes in a known way. They need no reference answer.
//!
//! Site relabeling: sites are interchangeable, so renaming them changes
//! nothing but the labels — not the model's costs, not the bytes replay
//! moves, not the bytes a deployment stores.

use vpart::core::{evaluate, CostConfig};
use vpart::engine::{Deployment, ReplayConfig, ReplayDeployment, ReplayReport, ReplayStream};
use vpart::prelude::*;

/// Every permutation of three site labels.
const PERMUTATIONS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// `p` with site `s` renamed `perm[s]`.
fn relabeled(p: &Partitioning, perm: &[usize]) -> Partitioning {
    let x = p
        .x()
        .iter()
        .map(|s| SiteId::from_index(perm[s.index()]))
        .collect();
    let mut y = vpart::model::BitMatrix::new(p.n_attrs(), p.n_sites());
    for a in 0..p.n_attrs() {
        for s in p.y().row_iter(a) {
            y.set(a, perm[s]);
        }
    }
    Partitioning::from_parts(p.n_sites(), x, y).unwrap()
}

fn replay(ins: &Instance, part: &Partitioning) -> ReplayReport {
    ReplayDeployment::new(ins, part, 64, 8)
        .unwrap()
        .replay(
            &ReplayStream::weighted(ins, 500, 3),
            &ReplayConfig::deterministic(2),
            None,
        )
        .unwrap()
}

#[test]
fn relabeling_sites_changes_nothing_but_the_labels() {
    let cost = CostConfig::default();
    for name in ["tpcc", "rndAt8x15", "rndBt16x15"] {
        let ins = vpart::instances::by_name(name).unwrap();
        let base = SaSolver::new(SaConfig::fast_deterministic(7))
            .solve(&ins, 3, &cost)
            .unwrap()
            .partitioning;
        let model = evaluate(&ins, &base, &cost);
        let meters = replay(&ins, &base);
        let stored = Deployment::new(&ins, &base, 64).unwrap().stored_bytes();
        for perm in PERMUTATIONS {
            let part = relabeled(&base, &perm);
            let at = format!("{name} relabeled {perm:?}");

            let b = evaluate(&ins, &part, &cost);
            assert_eq!(
                (b.read, b.write, b.transfer, b.objective4),
                (model.read, model.write, model.transfer, model.objective4),
                "{at}: model"
            );
            for (s, &work) in model.site_work.iter().enumerate() {
                assert_eq!(b.site_work[perm[s]], work, "{at}: work of site {s}");
            }

            // Equal totals, transfer, rows and checksum; permuted sites.
            let mut r = replay(&ins, &part);
            assert_eq!(r.totals(), meters.totals(), "{at}: replay totals");
            r.per_site = (0..3).map(|s| r.per_site[perm[s]]).collect();
            assert_eq!(r.meter_fingerprint(), meters.meter_fingerprint(), "{at}");

            let dep = Deployment::new(&ins, &part, 64).unwrap();
            assert_eq!(dep.stored_bytes(), stored, "{at}: stored bytes");
        }
    }
}
