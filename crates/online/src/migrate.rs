//! Minimum-movement migration planning.
//!
//! Solvers treat site labels as interchangeable — a re-solve can return
//! the incumbent's layout with sites renumbered, and a naive diff would
//! then "move" every byte in the cluster. [`canonicalize_against`]
//! removes that freedom: it relabels the new partitioning's sites by a
//! min-cost assignment (the Hungarian algorithm on fragment-byte overlap,
//! ties broken toward keeping labels), so a renumbered-but-identical
//! layout maps back onto itself and moves zero bytes. [`plan_migration`]
//! canonicalizes and then diffs with
//! [`MigrationPlan::between`](vpart_model::MigrationPlan::between).
//!
//! The relabeling is idempotent: canonicalizing an already-canonical
//! layout returns it unchanged (the identity assignment is optimal and
//! wins every tie).

use crate::OnlineError;
use vpart_model::{AttrId, Instance, MigrationPlan, Partitioning, SiteId};

/// Maximum-weight perfect assignment on a square matrix via the Hungarian
/// algorithm (potentials form, `O(n³)`): returns `assign` with
/// `assign[col] = row`.
fn max_assignment(weight: &[Vec<f64>]) -> Vec<usize> {
    let n = weight.len();
    if n == 0 {
        return Vec::new();
    }
    // Minimize cost = max_w − w. The classic potentials algorithm below
    // (e-maxx form, 1-indexed with a dummy 0 row/column) computes a
    // minimum-cost perfect matching.
    let max_w = weight
        .iter()
        .flatten()
        .fold(f64::NEG_INFINITY, |m, &w| m.max(w));
    let cost = |i: usize, j: usize| max_w - weight[i][j];

    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut way = vec![0usize; n + 1];
    // p[j] = the row matched to column j (0 = unmatched dummy).
    let mut p = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assign = vec![0usize; n];
    for j in 1..=n {
        assign[j - 1] = p[j] - 1;
    }
    assign
}

/// Relabels `new`'s sites to maximize fragment-byte overlap with `old`:
/// new site `j` takes the label of the old site it shares the most
/// attribute-fraction bytes with (exact min-cost assignment). Ties prefer
/// keeping a site's label, which makes the relabeling idempotent. The
/// returned partitioning is `new` with permuted site indices — identical
/// cost, identical structure.
pub fn canonicalize_against(
    instance: &Instance,
    old: &Partitioning,
    new: &Partitioning,
) -> Result<Partitioning, OnlineError> {
    if old.n_sites() != new.n_sites() {
        return Err(OnlineError::SiteCountMismatch {
            old: old.n_sites(),
            new: new.n_sites(),
        });
    }
    let n = old.n_sites();
    let schema = instance.schema();

    // overlap[i][j] = bytes per row shared when new site j is labeled i.
    let mut overlap = vec![vec![0.0f64; n]; n];
    for a in 0..instance.n_attrs() {
        let attr = AttrId::from_index(a);
        let w = schema.width(attr);
        for i in old.attr_sites(attr) {
            for j in new.attr_sites(attr) {
                overlap[i.index()][j.index()] += w;
            }
        }
    }
    // Tie-break bonus: prefer the identity mapping among equal-overlap
    // assignments. The bonus is orders of magnitude below any real width,
    // so it never overrides a genuine overlap difference.
    let scale = overlap
        .iter()
        .flatten()
        .fold(1.0f64, |m, &w| m.max(w.abs()));
    let eps = scale * 1e-9;
    for (i, row) in overlap.iter_mut().enumerate() {
        row[i] += eps;
    }

    // assign[j] = old label for new site j.
    let assign = max_assignment(&overlap);
    let x = new
        .x()
        .iter()
        .map(|s| SiteId::from_index(assign[s.index()]))
        .collect();
    let mut y = vpart_model::BitMatrix::new(new.n_attrs(), n);
    for a in 0..new.n_attrs() {
        for j in new.y().row_iter(a) {
            y.set(a, assign[j]);
        }
    }
    Ok(Partitioning::from_parts(n, x, y)?)
}

/// The full planner: relabels `new` against `old`
/// ([`canonicalize_against`]) and diffs the result into a
/// [`MigrationPlan`] whose byte estimates assume `rows_per_fragment` rows
/// per fragment (the `vpart_engine::Deployment` materialization
/// parameter — plans built with the deployment's row count are metered
/// exactly by `migrate_batched`).
pub fn plan_migration(
    instance: &Instance,
    old: &Partitioning,
    new: &Partitioning,
    rows_per_fragment: usize,
) -> Result<MigrationPlan, OnlineError> {
    let canonical = canonicalize_against(instance, old, new)?;
    Ok(MigrationPlan::between(
        instance,
        old,
        &canonical,
        rows_per_fragment,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, TxnId, Workload};

    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        sb.table("S", &[("c", 2.0), ("d", 16.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0), AttrId(1)]))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(2), AttrId(3)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("mig", schema, wb.build().unwrap()).unwrap()
    }

    /// Applies a site-label permutation to a partitioning.
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
    fn hungarian_picks_the_obvious_diagonal() {
        let w = vec![
            vec![10.0, 1.0, 0.0],
            vec![0.0, 9.0, 2.0],
            vec![1.0, 0.0, 8.0],
        ];
        assert_eq!(max_assignment(&w), vec![0, 1, 2]);
        // And the anti-diagonal when that is where the weight sits.
        let w = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        assert_eq!(max_assignment(&w), vec![1, 0]);
    }

    #[test]
    fn renumbered_identical_layout_moves_zero_bytes() {
        let ins = instance();
        let old = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 3).unwrap();
        // The same layout with sites rotated 0→2→1→0.
        let rotated = permuted(&old, &[2, 0, 1]);
        assert_ne!(old, rotated, "labels differ");
        let plan = plan_migration(&ins, &old, &rotated, 32).unwrap();
        assert!(plan.is_empty(), "canonicalization undoes the renumbering");
        assert_eq!(plan.to, old);
        assert_eq!(plan.estimated_bytes(), 0.0);
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let ins = instance();
        let old = Partitioning::minimal_for_x(&ins, vec![SiteId(1), SiteId(2)], 3).unwrap();
        let new = Partitioning::minimal_for_x(&ins, vec![SiteId(2), SiteId(0)], 3).unwrap();
        let once = canonicalize_against(&ins, &old, &new).unwrap();
        let twice = canonicalize_against(&ins, &old, &once).unwrap();
        assert_eq!(once, twice);
        once.validate(&ins, false).unwrap();
    }

    #[test]
    fn overlap_matching_moves_only_the_difference() {
        let ins = instance();
        // Old: R on site 0 (T0), S on site 1 (T1).
        let old = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        // New, with flipped labels AND d additionally replicated: after
        // relabeling, only the extra d replica moves.
        let mut new = Partitioning::minimal_for_x(&ins, vec![SiteId(1), SiteId(0)], 2).unwrap();
        new.add_replica(AttrId(3), SiteId(1));
        let plan = plan_migration(&ins, &old, &new, 10).unwrap();
        assert_eq!(plan.installs(), 1);
        assert_eq!(plan.drops(), 0);
        assert!(plan.txn_moves.is_empty(), "homes align after relabeling");
        // d is 16 bytes × 10 rows, landing on the site that lacked it.
        assert_eq!(plan.estimated_bytes(), 160.0);
    }

    #[test]
    fn random_relabelings_always_cancel() {
        // Deterministic pseudo-random sweep over layouts and
        // permutations: a relabeled copy of any layout must always plan
        // to zero movement.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ins = instance();
        let mut rng = StdRng::seed_from_u64(0xCA11);
        for sites in [2usize, 3, 4] {
            for _ in 0..10 {
                let x: Vec<SiteId> = (0..ins.n_txns())
                    .map(|_| SiteId::from_index(rng.gen_range(0..sites)))
                    .collect();
                let mut p = Partitioning::minimal_for_x(&ins, x, sites).unwrap();
                // Sprinkle extra replicas.
                for a in 0..ins.n_attrs() {
                    if rng.gen::<f64>() < 0.3 {
                        p.add_replica(
                            AttrId::from_index(a),
                            SiteId::from_index(rng.gen_range(0..sites)),
                        );
                    }
                }
                // Random permutation via repeated swaps.
                let mut perm: Vec<usize> = (0..sites).collect();
                for i in (1..sites).rev() {
                    perm.swap(i, rng.gen_range(0..i + 1));
                }
                let relabeled = permuted(&p, &perm);
                let plan = plan_migration(&ins, &p, &relabeled, 8).unwrap();
                assert!(
                    plan.is_empty(),
                    "perm {perm:?} of a {sites}-site layout must cancel"
                );
            }
        }
    }

    #[test]
    fn site_count_mismatch_is_rejected() {
        let ins = instance();
        let a = Partitioning::single_site(&ins, 2).unwrap();
        let b = Partitioning::single_site(&ins, 3).unwrap();
        assert!(matches!(
            canonicalize_against(&ins, &a, &b),
            Err(OnlineError::SiteCountMismatch { .. })
        ));
    }

    #[test]
    fn canonicalization_minimizes_bytes_not_label_churn() {
        let ins = instance();
        // Old: everything on site 0. New: T0/{a,b} on one site, T1/{c,d}
        // on the other. Keeping {c,d} (18 bytes/row) in place beats
        // keeping {a,b} (12 bytes/row), so the matching relabels the new
        // layout to move only the R fraction — and T0 with it.
        let old = Partitioning::single_site(&ins, 2).unwrap();
        let new = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        let plan = plan_migration(&ins, &old, &new, 4).unwrap();
        assert_eq!(plan.txn_moves.len(), 1);
        assert_eq!(plan.txn_moves[0].txn, TxnId(0));
        assert_eq!(plan.txn_moves[0].to, SiteId(1));
        assert_eq!(plan.installs(), 2, "a and b install on site 1");
        assert_eq!(plan.drops(), 2, "a and b leave site 0");
        assert_eq!(plan.estimated_bytes(), (4.0 + 8.0) * 4.0);
    }
}
