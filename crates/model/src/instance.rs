//! A validated problem instance with the paper's derived constants.
//!
//! [`Instance`] couples a [`Schema`] and a [`Workload`] and precomputes the
//! five static binary constants of §2.1 in bit-matrix form plus the weight
//! `W_{a,q} = w_a · f_q · n_{a,q}`:
//!
//! * `α[a][q]` — query `q` accesses attribute `a` itself,
//! * `β[a][q]` — `a` belongs to a table that `q` accesses,
//! * `γ[q][t]` — query `q` is used in transaction `t` (stored as the inverse
//!   map, since γ partitions queries),
//! * `δ[q]`    — `q` is a write query,
//! * `φ[a][t]` — some query in `t` *reads* `a` (drives single-sitedness).

use crate::bitset::BitMatrix;
use crate::error::ModelError;
use crate::ids::{AttrId, QueryId, TableId, TxnId};
use crate::schema::Schema;
use crate::workload::{QueryKind, Workload};
use serde::{Deserialize, Serialize};

/// Precomputed incidence matrices (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedStats {
    /// `α`: query × attribute access incidence.
    pub alpha: BitMatrix,
    /// `φ`: transaction × attribute read incidence.
    pub phi: BitMatrix,
    /// query × table touch incidence (β support: `β[a][q]` ⇔ the owning
    /// table of `a` is touched by `q`).
    pub query_tables: BitMatrix,
    /// transaction × table touch incidence (union over the txn's queries).
    pub txn_tables: BitMatrix,
    /// `φ` as per-transaction sorted attribute lists (for iteration).
    pub phi_lists: Vec<Vec<AttrId>>,
}

/// A validated `(schema, workload)` pair with derived statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "InstanceData", into = "InstanceData")]
pub struct Instance {
    name: String,
    schema: Schema,
    workload: Workload,
    derived: DerivedStats,
}

/// Serialized form of an [`Instance`] (derived stats are recomputed on load).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceData {
    /// Instance name.
    pub name: String,
    /// The schema.
    pub schema: Schema,
    /// The workload.
    pub workload: Workload,
}

impl TryFrom<InstanceData> for Instance {
    type Error = ModelError;
    fn try_from(d: InstanceData) -> Result<Self, Self::Error> {
        Instance::new(d.name, d.schema, d.workload)
    }
}

impl From<Instance> for InstanceData {
    fn from(i: Instance) -> Self {
        InstanceData {
            name: i.name,
            schema: i.schema,
            workload: i.workload,
        }
    }
}

impl Instance {
    /// Validates cross-references and derives `α`, `φ` and the table-touch
    /// matrices.
    pub fn new<S: Into<String>>(
        name: S,
        schema: Schema,
        workload: Workload,
    ) -> Result<Self, ModelError> {
        let n_attrs = schema.n_attrs();
        let n_tables = schema.n_tables();
        let n_queries = workload.n_queries();
        let n_txns = workload.n_txns();

        let mut alpha = BitMatrix::new(n_queries, n_attrs);
        let mut query_tables = BitMatrix::new(n_queries, n_tables);
        for (qi, q) in workload.queries().iter().enumerate() {
            for &a in &q.attrs {
                if a.index() >= n_attrs {
                    return Err(ModelError::UnknownAttr(a));
                }
                alpha.set(qi, a.index());
            }
            for &(t, _) in &q.table_rows {
                if t.index() >= n_tables {
                    return Err(ModelError::UnknownTable(t));
                }
                query_tables.set(qi, t.index());
                // Workload builders derive table_rows from accessed attrs, but
                // instances can be deserialized: re-check the containment.
                let range = schema.table_attrs(t);
                if !q.attrs.iter().any(|a| range.contains(&a.index())) {
                    return Err(ModelError::RowCountMismatch {
                        query: q.name.clone(),
                        table: t,
                    });
                }
            }
            // Every accessed attribute's table must have a row count.
            for &a in &q.attrs {
                if !q.touches_table(schema.table_of(a)) {
                    return Err(ModelError::RowCountMismatch {
                        query: q.name.clone(),
                        table: schema.table_of(a),
                    });
                }
            }
        }

        let mut phi = BitMatrix::new(n_txns, n_attrs);
        let mut txn_tables = BitMatrix::new(n_txns, n_tables);
        for (ti, txn) in workload.transactions().iter().enumerate() {
            for &q in &txn.queries {
                let query = workload.query(q);
                for &(tb, _) in &query.table_rows {
                    txn_tables.set(ti, tb.index());
                }
                if query.kind == QueryKind::Read {
                    for &a in &query.attrs {
                        phi.set(ti, a.index());
                    }
                }
            }
        }
        let phi_lists = (0..n_txns)
            .map(|t| phi.row_iter(t).map(AttrId::from_index).collect())
            .collect();

        Ok(Self {
            name: name.into(),
            schema,
            workload,
            derived: DerivedStats {
                alpha,
                phi,
                query_tables,
                txn_tables,
                phi_lists,
            },
        })
    }

    /// A copy named `name` whose queries run at `frequencies`, one per
    /// query in id order. The schema, the workload's structure and the
    /// derived incidence do not depend on frequencies and are copied as
    /// they are, so this costs a clone, not a [`Workload`] rebuild. Each
    /// frequency passes the workload builder's check (positive and
    /// finite): the first query that fails yields the builder's
    /// [`ModelError::InvalidFrequency`]. Any other count than one
    /// frequency per query is a [`ModelError::DimensionMismatch`].
    pub fn with_frequencies<S: Into<String>>(
        &self,
        name: S,
        frequencies: impl IntoIterator<Item = f64>,
    ) -> Result<Self, ModelError> {
        let mut workload = self.workload.clone();
        let n = workload.n_queries();
        let mut given = frequencies.into_iter();
        for (i, q) in workload.queries_mut().iter_mut().enumerate() {
            let f = given.next().ok_or(ModelError::DimensionMismatch {
                what: "query frequencies",
                expected: n,
                got: i,
            })?;
            if !(f > 0.0) || !f.is_finite() {
                return Err(ModelError::InvalidFrequency {
                    query: q.name.clone(),
                    frequency: f,
                });
            }
            q.frequency = f;
        }
        let extra = given.count();
        if extra > 0 {
            return Err(ModelError::DimensionMismatch {
                what: "query frequencies",
                expected: n,
                got: n + extra,
            });
        }
        Ok(Self {
            name: name.into(),
            schema: self.schema.clone(),
            workload,
            derived: self.derived.clone(),
        })
    }

    /// Instance name (used in reports and bench tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Derived incidence matrices.
    pub fn derived(&self) -> &DerivedStats {
        &self.derived
    }

    /// `|A|`: number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.schema.n_attrs()
    }

    /// `|T|`: number of transactions.
    pub fn n_txns(&self) -> usize {
        self.workload.n_txns()
    }

    /// Number of queries.
    pub fn n_queries(&self) -> usize {
        self.workload.n_queries()
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.schema.n_tables()
    }

    /// `α[a][q]`: does query `q` access attribute `a` itself?
    #[inline]
    pub fn alpha(&self, a: AttrId, q: QueryId) -> bool {
        self.derived.alpha.get(q.index(), a.index())
    }

    /// `β[a][q]`: is `a` part of a table that `q` accesses?
    #[inline]
    pub fn beta(&self, a: AttrId, q: QueryId) -> bool {
        self.derived
            .query_tables
            .get(q.index(), self.schema.table_of(a).index())
    }

    /// `δ[q]`: is `q` a write query?
    #[inline]
    pub fn delta(&self, q: QueryId) -> bool {
        self.workload.query(q).kind.is_write()
    }

    /// `γ`: the transaction holding `q`.
    #[inline]
    pub fn gamma(&self, q: QueryId) -> TxnId {
        self.workload.txn_of(q)
    }

    /// `φ[a][t]`: does any query in `t` read `a`?
    #[inline]
    pub fn phi(&self, a: AttrId, t: TxnId) -> bool {
        self.derived.phi.get(t.index(), a.index())
    }

    /// Sorted attributes read by transaction `t` (the φ row).
    pub fn read_set(&self, t: TxnId) -> &[AttrId] {
        &self.derived.phi_lists[t.index()]
    }

    /// `W_{a,q} = w_a · f_q · n_{a,q}` — the estimated cost in bytes of
    /// reading/writing `a` over all executions of `q`. Zero when `β[a][q]=0`.
    pub fn weight(&self, a: AttrId, q: QueryId) -> f64 {
        let query = self.workload.query(q);
        let t = self.schema.table_of(a);
        let n = query.rows_for_table(t);
        if n == 0.0 {
            return 0.0;
        }
        self.schema.width(a) * query.frequency * n
    }

    /// Tables touched by transaction `t`.
    pub fn txn_tables(&self, t: TxnId) -> impl Iterator<Item = TableId> + '_ {
        self.derived
            .txn_tables
            .row_iter(t.index())
            .map(TableId::from_index)
    }

    /// Total size of the instance in "decision cells" (`(|A|+|T|)·|S|` for a
    /// given site count); a rough difficulty measure used by solvers to pick
    /// defaults.
    pub fn decision_cells(&self, n_sites: usize) -> usize {
        (self.n_attrs() + self.n_txns()) * n_sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QuerySpec;

    fn tiny() -> Instance {
        let mut sb = Schema::builder();
        let c = sb.table("C", &[("id", 4.0), ("bal", 8.0)]).unwrap();
        sb.table("O", &[("id", 4.0), ("cid", 4.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(
                QuerySpec::read("q0")
                    .access(&[AttrId(0), AttrId(1)])
                    .frequency(2.0),
            )
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("q1")
                    .access(&[AttrId(3)])
                    .rows(TableId(1), 10.0),
            )
            .unwrap();
        let _ = c;
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("tiny", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn derived_constants_match_definitions() {
        let ins = tiny();
        let (q0, q1) = (QueryId(0), QueryId(1));
        // α: q0 accesses a0,a1; q1 accesses a3 only.
        assert!(ins.alpha(AttrId(0), q0) && ins.alpha(AttrId(1), q0));
        assert!(!ins.alpha(AttrId(2), q1) && ins.alpha(AttrId(3), q1));
        // β: q1 touches table O, so both a2 and a3 have β=1.
        assert!(ins.beta(AttrId(2), q1) && ins.beta(AttrId(3), q1));
        assert!(!ins.beta(AttrId(0), q1));
        // δ.
        assert!(!ins.delta(q0));
        assert!(ins.delta(q1));
        // γ.
        assert_eq!(ins.gamma(q0), TxnId(0));
        assert_eq!(ins.gamma(q1), TxnId(1));
        // φ: T0 reads a0,a1; T1 (write-only) reads nothing.
        assert!(ins.phi(AttrId(0), TxnId(0)));
        assert!(!ins.phi(AttrId(3), TxnId(1)));
        assert_eq!(ins.read_set(TxnId(0)), &[AttrId(0), AttrId(1)]);
        assert!(ins.read_set(TxnId(1)).is_empty());
    }

    #[test]
    fn weight_formula() {
        let ins = tiny();
        // W_{a0,q0} = w(4) * f(2) * n(1) = 8.
        assert_eq!(ins.weight(AttrId(0), QueryId(0)), 8.0);
        // W_{a2,q1} = w(4) * f(1) * n(10) = 40 (β support, even though α=0).
        assert_eq!(ins.weight(AttrId(2), QueryId(1)), 40.0);
        // Outside β support the weight is 0.
        assert_eq!(ins.weight(AttrId(0), QueryId(1)), 0.0);
    }

    #[test]
    fn txn_tables_union() {
        let ins = tiny();
        let t0: Vec<TableId> = ins.txn_tables(TxnId(0)).collect();
        assert_eq!(t0, vec![TableId(0)]);
        let t1: Vec<TableId> = ins.txn_tables(TxnId(1)).collect();
        assert_eq!(t1, vec![TableId(1)]);
    }

    #[test]
    fn serde_round_trip_recomputes_derived() {
        let ins = tiny();
        let json = serde_json::to_string(&ins).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(ins, back);
    }

    #[test]
    fn decision_cells() {
        let ins = tiny();
        assert_eq!(ins.decision_cells(3), (4 + 2) * 3);
    }

    #[test]
    fn with_frequencies_equals_a_rebuild_at_those_frequencies() {
        let ins = tiny();
        let re = ins.with_frequencies("re", [5.0, 0.25]).unwrap();
        let mut workload = ins.workload().clone();
        workload.queries_mut()[0].frequency = 5.0;
        workload.queries_mut()[1].frequency = 0.25;
        let rebuilt = Instance::new("re", ins.schema().clone(), workload).unwrap();
        assert_eq!(re, rebuilt);
        assert_eq!(re.weight(AttrId(0), QueryId(0)), 4.0 * 5.0);

        // The builder's frequency check, naming the first bad query.
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            match ins.with_frequencies("x", [1.0, bad]) {
                Err(ModelError::InvalidFrequency { query, frequency }) => {
                    assert_eq!(query, "q1");
                    assert_eq!(frequency.to_bits(), bad.to_bits());
                }
                other => panic!("expected InvalidFrequency, got {other:?}"),
            }
        }
        for freqs in [vec![1.0], vec![1.0, 2.0, 3.0]] {
            assert!(matches!(
                ins.with_frequencies("x", freqs),
                Err(ModelError::DimensionMismatch { expected: 2, .. })
            ));
        }
    }
}
