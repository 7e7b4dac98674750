//! Metamorphic relations: how an answer must change when its input
//! changes in a known way. They need no reference answer.
//!
//! Site relabeling: sites are interchangeable, so renaming them changes
//! nothing but the labels — not the model's costs, not the bytes replay
//! moves, not the bytes a deployment stores.
//!
//! The cost walks: adding the queries in reverse id order, splitting a
//! query into two copies at half frequency in its transaction, or
//! appending a table no query touches changes none of `evaluate`'s
//! totals, the per-transaction view or the coefficient scorer — exactly,
//! since the catalog's widths, frequencies and row counts are integers.

use vpart::core::{
    evaluate, fast_objective6, predicted_txn_bytes, CostCoefficients, CostConfig, TxnBytes,
};
use vpart::engine::{Deployment, ReplayConfig, ReplayDeployment, ReplayReport, ReplayStream};
use vpart::model::workload::QuerySpec;
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

/// What the cost walks report for `part`: `evaluate`'s read, write,
/// transfer, objectives (4) and (6) and the coefficient scorer's
/// objective (6); the site work; the per-transaction bytes.
fn walks(
    ins: &Instance,
    part: &Partitioning,
    cost: &CostConfig,
) -> ([f64; 6], Vec<f64>, Vec<TxnBytes>) {
    let b = evaluate(ins, part, cost);
    let coeffs = CostCoefficients::compute(ins, cost);
    let fast6 = fast_objective6(ins, &coeffs, part, cost);
    let totals = [
        b.read,
        b.write,
        b.transfer,
        b.objective4,
        b.objective6,
        fast6,
    ];
    (totals, b.site_work, predicted_txn_bytes(ins, part, cost))
}

/// `ins` over `schema`, its queries added in reverse id order when
/// `reverse`, and query `split` replaced by two half-frequency copies.
fn rebuilt(ins: &Instance, schema: &Schema, reverse: bool, split: Option<usize>) -> Instance {
    let workload = ins.workload();
    let mut wb = Workload::builder(schema);
    let mut ids = vec![Vec::new(); ins.n_queries()];
    let mut order: Vec<usize> = (0..ins.n_queries()).collect();
    if reverse {
        order.reverse();
    }
    for qi in order {
        let q = workload.query(QueryId::from_index(qi));
        let copies = if split == Some(qi) { 2 } else { 1 };
        for c in 0..copies {
            let name = format!("{}#{c}", q.name);
            let spec = if q.kind.is_write() {
                QuerySpec::write(name)
            } else {
                QuerySpec::read(name)
            };
            let spec = q.table_rows.iter().fold(spec, |s, &(t, n)| s.rows(t, n));
            let spec = spec.access(&q.attrs).frequency(q.frequency / copies as f64);
            ids[qi].push(wb.add_query(spec).unwrap());
        }
    }
    for txn in workload.transactions() {
        let qids: Vec<QueryId> = txn
            .queries
            .iter()
            .flat_map(|q| ids[q.index()].clone())
            .collect();
        wb.transaction(txn.name.clone(), &qids).unwrap();
    }
    Instance::new(ins.name(), schema.clone(), wb.build().unwrap()).unwrap()
}

#[test]
fn cost_walks_ignore_query_order_splits_and_untouched_tables() {
    let cost = CostConfig::default();
    for name in ["tpcc", "rndAt8x15", "rndBt16x15"] {
        let ins = vpart::instances::by_name(name).unwrap();
        let part = SaSolver::new(SaConfig::fast_deterministic(7))
            .solve(&ins, 3, &cost)
            .unwrap()
            .partitioning;
        let base = walks(&ins, &part, &cost);

        let reversed = rebuilt(&ins, ins.schema(), true, None);
        assert_eq!(
            walks(&reversed, &part, &cost),
            base,
            "{name}: reversed queries"
        );
        for q in 0..ins.n_queries() {
            let split = rebuilt(&ins, ins.schema(), false, Some(q));
            assert_eq!(walks(&split, &part, &cost), base, "{name}: query {q} split");
        }

        let schema = ins.schema();
        let mut sb = Schema::builder();
        for table in schema.tables() {
            let attrs = &schema.attrs()[table.attrs()];
            let cols: Vec<(&str, f64)> = attrs.iter().map(|a| (a.name.as_str(), a.width)).collect();
            sb.table(table.name.clone(), &cols).unwrap();
        }
        sb.table("untouched", &[("u1", 8.0), ("u2", 3.0)]).unwrap();
        let wider = rebuilt(&ins, &sb.build().unwrap(), false, None);
        let mut y = vpart::model::BitMatrix::new(wider.n_attrs(), 3);
        for a in 0..part.n_attrs() {
            part.y().row_iter(a).for_each(|s| y.set(a, s));
        }
        (part.n_attrs()..wider.n_attrs()).for_each(|a| y.set(a, 0));
        let placed = Partitioning::from_parts(3, part.x().to_vec(), y).unwrap();
        assert_eq!(
            walks(&wider, &placed, &cost),
            base,
            "{name}: untouched table"
        );
    }
}
