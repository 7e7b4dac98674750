//! Workload: queries with statistics, grouped into transactions.
//!
//! A [`Query`] carries the per-query statistics of the paper's §1.1/§2.1:
//! its kind (`δ_q`: read or write), its frequency `f_q`, the set of
//! attributes it accesses (`α_{a,q}`), and for every table it touches the
//! average number of rows retrieved/written (`n_{a,q}`, constant per table).
//! A [`Transaction`] groups queries (`γ_{q,t}`); every query belongs to
//! exactly one transaction.
//!
//! UPDATE statements are modeled per the paper's §5.2 as two sub-queries: a
//! read sub-query over all referenced attributes and a write sub-query over
//! the written attributes ([`WorkloadBuilder::add_update`]).

use crate::error::ModelError;
use crate::ids::{AttrId, QueryId, TableId, TxnId};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Whether a query reads or writes (the paper's `δ_q`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryKind {
    /// `δ_q = 0`: retrieval only.
    Read,
    /// `δ_q = 1`: insert/update/delete; writes are distributed to all
    /// replicas and never break single-sitedness constraints.
    Write,
}

impl QueryKind {
    /// `δ_q` as used in the cost formulas.
    #[inline]
    pub fn delta(self) -> f64 {
        match self {
            QueryKind::Read => 0.0,
            QueryKind::Write => 1.0,
        }
    }

    /// True for [`QueryKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, QueryKind::Write)
    }
}

/// A single query with its statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Query name (unique within the workload; used in reports).
    pub name: String,
    /// Read or write.
    pub kind: QueryKind,
    /// Frequency `f_q` (relative execution rate; any positive scale).
    pub frequency: f64,
    /// Attributes accessed by the query (`α_{a,q} = 1`), sorted by id.
    pub attrs: Vec<AttrId>,
    /// `(table, n_r)`: average rows retrieved from / written to each touched
    /// table, sorted by table id. Tables listed here are exactly the tables
    /// owning some attribute in `attrs`.
    pub table_rows: Vec<(TableId, f64)>,
}

impl Query {
    /// Average rows accessed in the table owning attribute `a`
    /// (the paper's `n_{a,q}`), or 0.0 if the query does not touch it.
    pub fn rows_for_table(&self, t: TableId) -> f64 {
        self.table_rows
            .binary_search_by_key(&t, |&(tt, _)| tt)
            .map(|i| self.table_rows[i].1)
            .unwrap_or(0.0)
    }

    /// True if the query touches table `t` (β support).
    pub fn touches_table(&self, t: TableId) -> bool {
        self.table_rows
            .binary_search_by_key(&t, |&(tt, _)| tt)
            .is_ok()
    }

    /// True if the query accesses attribute `a` (`α_{a,q}`).
    pub fn accesses_attr(&self, a: AttrId) -> bool {
        self.attrs.binary_search(&a).is_ok()
    }
}

/// A transaction: an ordered group of queries with a primary executing site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transaction {
    /// Transaction name (unique within the workload).
    pub name: String,
    /// Queries executed by this transaction (`γ_{q,t} = 1`).
    pub queries: Vec<QueryId>,
}

/// A validated workload: queries partitioned into transactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    queries: Vec<Query>,
    transactions: Vec<Transaction>,
    /// `query_txn[q]` = the unique transaction holding query `q` (γ inverse).
    query_txn: Vec<TxnId>,
}

impl Workload {
    /// Starts building a workload against `schema`.
    pub fn builder(schema: &Schema) -> WorkloadBuilder {
        WorkloadBuilder::new(schema)
    }

    /// All queries in id order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Mutable queries, for rewrites that keep the workload valid.
    pub(crate) fn queries_mut(&mut self) -> &mut [Query] {
        &mut self.queries
    }

    /// All transactions in id order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of queries.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of transactions (the paper's `|T|`).
    pub fn n_txns(&self) -> usize {
        self.transactions.len()
    }

    /// Query by id.
    pub fn query(&self, q: QueryId) -> &Query {
        &self.queries[q.index()]
    }

    /// Transaction by id.
    pub fn txn(&self, t: TxnId) -> &Transaction {
        &self.transactions[t.index()]
    }

    /// The transaction holding query `q` (γ).
    pub fn txn_of(&self, q: QueryId) -> TxnId {
        self.query_txn[q.index()]
    }

    /// Looks up a transaction by name.
    pub fn txn_by_name(&self, name: &str) -> Option<TxnId> {
        self.transactions
            .iter()
            .position(|t| t.name == name)
            .map(TxnId::from_index)
    }

    /// Looks up a query by name.
    pub fn query_by_name(&self, name: &str) -> Option<QueryId> {
        self.queries
            .iter()
            .position(|q| q.name == name)
            .map(QueryId::from_index)
    }
}

/// A query under construction; create via [`QuerySpec::read`] /
/// [`QuerySpec::write`] and register with [`WorkloadBuilder::add_query`].
#[derive(Debug, Clone)]
pub struct QuerySpec {
    name: String,
    kind: QueryKind,
    frequency: f64,
    attrs: Vec<AttrId>,
    explicit_rows: Vec<(TableId, f64)>,
    default_rows: f64,
}

impl QuerySpec {
    /// A read query (`δ_q = 0`) with frequency 1 and 1 row per table.
    pub fn read<S: Into<String>>(name: S) -> Self {
        Self::new(name, QueryKind::Read)
    }

    /// A write query (`δ_q = 1`) with frequency 1 and 1 row per table.
    pub fn write<S: Into<String>>(name: S) -> Self {
        Self::new(name, QueryKind::Write)
    }

    fn new<S: Into<String>>(name: S, kind: QueryKind) -> Self {
        Self {
            name: name.into(),
            kind,
            frequency: 1.0,
            attrs: Vec::new(),
            explicit_rows: Vec::new(),
            default_rows: 1.0,
        }
    }

    /// Sets the frequency `f_q`.
    pub fn frequency(mut self, f: f64) -> Self {
        self.frequency = f;
        self
    }

    /// Adds accessed attributes (`α`). Duplicates are deduplicated.
    pub fn access(mut self, attrs: &[AttrId]) -> Self {
        self.attrs.extend_from_slice(attrs);
        self
    }

    /// Declares `n_r` rows accessed for `table`, overriding the default.
    pub fn rows(mut self, table: TableId, n: f64) -> Self {
        self.explicit_rows.push((table, n));
        self
    }

    /// Sets the row count applied to every touched table without an explicit
    /// [`QuerySpec::rows`] declaration (defaults to 1.0 — the paper's §5.2
    /// single-row assumption; use 10.0 for iterated/aggregate access).
    pub fn default_rows(mut self, n: f64) -> Self {
        self.default_rows = n;
        self
    }
}

/// Incremental [`Workload`] construction with validation.
#[derive(Debug)]
pub struct WorkloadBuilder {
    n_attrs: usize,
    attr_table: Vec<TableId>,
    queries: Vec<Query>,
    transactions: Vec<Transaction>,
    query_txn: Vec<Option<TxnId>>,
    names: std::collections::HashSet<String>,
    txn_names: std::collections::HashSet<String>,
}

impl WorkloadBuilder {
    /// Creates a builder validating against `schema`.
    pub fn new(schema: &Schema) -> Self {
        Self {
            n_attrs: schema.n_attrs(),
            attr_table: schema.attrs().iter().map(|a| a.table).collect(),
            queries: Vec::new(),
            transactions: Vec::new(),
            query_txn: Vec::new(),
            names: Default::default(),
            txn_names: Default::default(),
        }
    }

    /// Registers a query; returns its id.
    pub fn add_query(&mut self, spec: QuerySpec) -> Result<QueryId, ModelError> {
        if spec.name.is_empty() {
            return Err(ModelError::EmptyName);
        }
        if self.names.contains(&spec.name) {
            return Err(ModelError::DuplicateName(spec.name));
        }
        if !(spec.frequency > 0.0) || !spec.frequency.is_finite() {
            return Err(ModelError::InvalidFrequency {
                query: spec.name,
                frequency: spec.frequency,
            });
        }
        let mut attrs = spec.attrs;
        attrs.sort_unstable();
        attrs.dedup();
        if attrs.is_empty() {
            return Err(ModelError::EmptyQuery(spec.name));
        }
        for &a in &attrs {
            if a.index() >= self.n_attrs {
                return Err(ModelError::UnknownAttr(a));
            }
        }
        // Touched tables = tables owning an accessed attribute; attach rows.
        let mut rows: BTreeMap<TableId, f64> = BTreeMap::new();
        for &a in &attrs {
            rows.entry(self.attr_table[a.index()])
                .or_insert(spec.default_rows);
        }
        for (t, n) in spec.explicit_rows {
            match rows.get_mut(&t) {
                Some(slot) => *slot = n,
                None => {
                    return Err(ModelError::RowCountMismatch {
                        query: spec.name,
                        table: t,
                    });
                }
            }
        }
        for (&t, &n) in &rows {
            if !(n > 0.0) || !n.is_finite() {
                return Err(ModelError::InvalidRowCount {
                    query: spec.name,
                    table: t,
                    rows: n,
                });
            }
        }
        let id = QueryId::from_index(self.queries.len());
        self.names.insert(spec.name.clone());
        self.queries.push(Query {
            name: spec.name,
            kind: spec.kind,
            frequency: spec.frequency,
            attrs,
            table_rows: rows.into_iter().collect(),
        });
        self.query_txn.push(None);
        Ok(id)
    }

    /// Models an UPDATE per the paper's §5.2: a read sub-query accessing all
    /// attributes the statement references (`read_attrs ∪ write_attrs`) and
    /// a write sub-query accessing only the attributes actually written.
    /// Both inherit `frequency` and the same per-table row counts.
    ///
    /// Returns `(read_query, write_query)`.
    pub fn add_update<S: AsRef<str>>(
        &mut self,
        name: S,
        frequency: f64,
        read_attrs: &[AttrId],
        write_attrs: &[AttrId],
        rows: &[(TableId, f64)],
    ) -> Result<(QueryId, QueryId), ModelError> {
        let name = name.as_ref();
        let mut all: Vec<AttrId> = read_attrs.iter().chain(write_attrs).copied().collect();
        all.sort_unstable();
        all.dedup();
        let mut rspec = QuerySpec::read(format!("{name}/read"))
            .frequency(frequency)
            .access(&all);
        let mut wspec = QuerySpec::write(format!("{name}/write"))
            .frequency(frequency)
            .access(write_attrs);
        for &(t, n) in rows {
            rspec = rspec.rows(t, n);
            wspec = wspec.rows(t, n);
        }
        let r = self.add_query(rspec)?;
        let w = self.add_query(wspec)?;
        Ok((r, w))
    }

    /// Registers a transaction holding `queries`; returns its id.
    ///
    /// Each query must belong to exactly one transaction.
    pub fn transaction<S: Into<String>>(
        &mut self,
        name: S,
        queries: &[QueryId],
    ) -> Result<TxnId, ModelError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ModelError::EmptyName);
        }
        if !self.txn_names.insert(name.clone()) {
            return Err(ModelError::DuplicateName(name));
        }
        if queries.is_empty() {
            return Err(ModelError::EmptyTransaction(name));
        }
        let id = TxnId::from_index(self.transactions.len());
        for &q in queries {
            let slot = self
                .query_txn
                .get_mut(q.index())
                .ok_or(ModelError::UnknownQuery(q))?;
            if let Some(first) = *slot {
                return Err(ModelError::QueryReused {
                    query: q,
                    first,
                    second: id,
                });
            }
            *slot = Some(id);
        }
        self.transactions.push(Transaction {
            name,
            queries: queries.to_vec(),
        });
        Ok(id)
    }

    /// Finishes the workload: every query must be assigned to a transaction.
    pub fn build(self) -> Result<Workload, ModelError> {
        if self.transactions.is_empty() {
            return Err(ModelError::EmptyWorkload);
        }
        let mut query_txn = Vec::with_capacity(self.query_txn.len());
        for (i, slot) in self.query_txn.iter().enumerate() {
            match slot {
                Some(t) => query_txn.push(*t),
                None => return Err(ModelError::OrphanQuery(QueryId::from_index(i))),
            }
        }
        Ok(Workload {
            queries: self.queries,
            transactions: self.transactions,
            query_txn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        let mut b = Schema::builder();
        b.table("C", &[("id", 4.0), ("name", 16.0), ("bal", 8.0)])
            .unwrap();
        b.table("O", &[("id", 4.0), ("cid", 4.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_simple_workload() {
        let s = schema();
        let mut b = Workload::builder(&s);
        let q0 = b
            .add_query(QuerySpec::read("q0").access(&[AttrId(0), AttrId(2)]))
            .unwrap();
        let q1 = b
            .add_query(
                QuerySpec::write("q1")
                    .access(&[AttrId(3), AttrId(4)])
                    .rows(TableId(1), 10.0),
            )
            .unwrap();
        b.transaction("T0", &[q0, q1]).unwrap();
        let w = b.build().unwrap();
        assert_eq!(w.n_queries(), 2);
        assert_eq!(w.n_txns(), 1);
        assert_eq!(w.txn_of(q1), TxnId(0));
        assert_eq!(w.query(q0).rows_for_table(TableId(0)), 1.0);
        assert_eq!(w.query(q1).rows_for_table(TableId(1)), 10.0);
        assert!(w.query(q0).accesses_attr(AttrId(2)));
        assert!(!w.query(q0).accesses_attr(AttrId(1)));
        assert!(w.query(q0).touches_table(TableId(0)));
        assert!(!w.query(q0).touches_table(TableId(1)));
    }

    #[test]
    fn update_splits_into_read_and_write() {
        let s = schema();
        let mut b = Workload::builder(&s);
        let (r, w) = b
            .add_update("upd", 2.0, &[AttrId(0)], &[AttrId(2)], &[(TableId(0), 1.0)])
            .unwrap();
        b.transaction("T", &[r, w]).unwrap();
        let wl = b.build().unwrap();
        let rq = wl.query(r);
        let wq = wl.query(w);
        assert_eq!(rq.kind, QueryKind::Read);
        assert_eq!(wq.kind, QueryKind::Write);
        // Read sub-query sees both referenced and written attributes.
        assert_eq!(rq.attrs, vec![AttrId(0), AttrId(2)]);
        // Write sub-query sees only the written attributes.
        assert_eq!(wq.attrs, vec![AttrId(2)]);
        assert_eq!(rq.frequency, 2.0);
        assert_eq!(wq.frequency, 2.0);
    }

    #[test]
    fn rejects_orphan_query() {
        let s = schema();
        let mut b = Workload::builder(&s);
        b.add_query(QuerySpec::read("q").access(&[AttrId(0)]))
            .unwrap();
        let q2 = b
            .add_query(QuerySpec::read("q2").access(&[AttrId(0)]))
            .unwrap();
        b.transaction("T", &[q2]).unwrap();
        assert_eq!(b.build().unwrap_err(), ModelError::OrphanQuery(QueryId(0)));
    }

    #[test]
    fn rejects_query_in_two_transactions() {
        let s = schema();
        let mut b = Workload::builder(&s);
        let q = b
            .add_query(QuerySpec::read("q").access(&[AttrId(0)]))
            .unwrap();
        b.transaction("T0", &[q]).unwrap();
        assert!(matches!(
            b.transaction("T1", &[q]),
            Err(ModelError::QueryReused { .. })
        ));
    }

    #[test]
    fn rejects_unknown_attr_and_bad_stats() {
        let s = schema();
        let mut b = Workload::builder(&s);
        assert_eq!(
            b.add_query(QuerySpec::read("q").access(&[AttrId(99)]))
                .unwrap_err(),
            ModelError::UnknownAttr(AttrId(99))
        );
        assert!(matches!(
            b.add_query(QuerySpec::read("q").access(&[AttrId(0)]).frequency(0.0)),
            Err(ModelError::InvalidFrequency { .. })
        ));
        assert!(matches!(
            b.add_query(
                QuerySpec::read("q")
                    .access(&[AttrId(0)])
                    .rows(TableId(0), -1.0)
            ),
            Err(ModelError::InvalidRowCount { .. })
        ));
        // rows() for a table the query does not touch:
        assert!(matches!(
            b.add_query(
                QuerySpec::read("q")
                    .access(&[AttrId(0)])
                    .rows(TableId(1), 5.0)
            ),
            Err(ModelError::RowCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty_query_and_workload() {
        let s = schema();
        let mut b = Workload::builder(&s);
        assert!(matches!(
            b.add_query(QuerySpec::read("q")),
            Err(ModelError::EmptyQuery(_))
        ));
        assert_eq!(
            Workload::builder(&s).build().unwrap_err(),
            ModelError::EmptyWorkload
        );
    }

    #[test]
    fn access_dedups_attrs() {
        let s = schema();
        let mut b = Workload::builder(&s);
        let q = b
            .add_query(QuerySpec::read("q").access(&[AttrId(1), AttrId(1), AttrId(0)]))
            .unwrap();
        b.transaction("T", &[q]).unwrap();
        let w = b.build().unwrap();
        assert_eq!(w.query(q).attrs, vec![AttrId(0), AttrId(1)]);
    }

    #[test]
    fn name_lookups() {
        let s = schema();
        let mut b = Workload::builder(&s);
        let q = b
            .add_query(QuerySpec::read("lookup").access(&[AttrId(0)]))
            .unwrap();
        b.transaction("Txn", &[q]).unwrap();
        let w = b.build().unwrap();
        assert_eq!(w.query_by_name("lookup"), Some(q));
        assert_eq!(w.txn_by_name("Txn"), Some(TxnId(0)));
        assert_eq!(w.txn_by_name("nope"), None);
    }
}
