//! Deterministic SQL synthesis: an [`Instance`] becomes the DDL and query
//! log a user would hand to `vpart ingest`.
//!
//! Every column gets a type whose ingested width is exactly the model
//! width (`SMALLINT`/`INTEGER`/`BIGINT` for 2/4/8 bytes, `CHAR(n)`
//! otherwise), so ingestion reports no width fallback. Each model query
//! becomes one statement per table it touches: reads are `SELECT`s,
//! writes are `INSERT`s with an explicit column list (a pure write, as in
//! the model), and every statement carries a `-- rows=N` annotation.
//! Each transaction template is one `BEGIN; -- txn=<name>` … `COMMIT;`
//! block, repeated in proportion to its weight.
//!
//! The first occurrence of every template comes in instance order, so the
//! ingested instance numbers its transactions like the source does. The
//! seed shuffles the remaining occurrences and picks the literals.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use vpart_model::{Instance, TableId, TxnId};

/// A synthesized workload: DDL, log and what went into it.
pub struct SqlWorkload {
    /// `CREATE TABLE` script.
    pub schema: String,
    /// The query log.
    pub log: String,
    /// DML statements in the log (brackets excluded).
    pub statements: usize,
    /// Transaction occurrences in the log.
    pub occurrences: usize,
}

/// Table identifier in the synthesized SQL. The prefix keeps model table
/// names that are SQL keywords (TPC-C's `Order`) out of the parser's way.
fn table_ident(instance: &Instance, t: TableId) -> String {
    format!("t_{}", instance.schema().table(t).name)
}

fn column_type(width: f64) -> Result<String, String> {
    if width.fract() != 0.0 || width < 1.0 {
        return Err(format!("width {width} has no integer-width SQL type"));
    }
    Ok(match width as u64 {
        2 => "SMALLINT".to_string(),
        4 => "INTEGER".to_string(),
        8 => "BIGINT".to_string(),
        w => format!("CHAR({w})"),
    })
}

/// The `CREATE TABLE` script of `instance`'s schema.
pub fn schema_sql(instance: &Instance) -> Result<String, String> {
    let schema = instance.schema();
    let mut out = String::new();
    for t in 0..schema.n_tables() {
        let table = TableId::from_index(t);
        let cols = schema
            .table_attrs(table)
            .map(|a| {
                let attr = &schema.attrs()[a];
                Ok(format!("  {} {}", attr.name, column_type(attr.width)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let _ = writeln!(
            out,
            "CREATE TABLE {} (\n{}\n);",
            table_ident(instance, table),
            cols.join(",\n")
        );
    }
    Ok(out)
}

/// One statement of a template: `head`, then `literals` comma-separated
/// seeded literals, then `tail`.
#[derive(Clone)]
struct StmtTemplate {
    head: String,
    literals: usize,
    tail: String,
}

/// The statements of one transaction execution, in query order. A query
/// whose frequency is `m` times the template weight repeats `m` times.
fn txn_statements(instance: &Instance, t: TxnId) -> Result<Vec<StmtTemplate>, String> {
    let schema = instance.schema();
    let workload = instance.workload();
    let txn = workload.txn(t);
    let weight = txn_weight(instance, t);
    let mut out = Vec::new();
    for &qid in &txn.queries {
        let q = workload.query(qid);
        let mult = q.frequency / weight;
        if (mult - mult.round()).abs() > 1e-9 || mult < 0.5 {
            return Err(format!(
                "query {} runs {mult} times per execution of {}; only whole multiples synthesize",
                q.name, txn.name
            ));
        }
        for &(table, rows) in &q.table_rows {
            let cols: Vec<&str> = q
                .attrs
                .iter()
                .filter(|&&a| schema.table_of(a) == table)
                .map(|&a| schema.attr(a).name.as_str())
                .collect();
            let name = table_ident(instance, table);
            let stmt = if q.kind.is_write() {
                StmtTemplate {
                    head: format!("INSERT INTO {name} ({}) VALUES (", cols.join(", ")),
                    literals: cols.len(),
                    tail: format!("); -- rows={rows}"),
                }
            } else {
                StmtTemplate {
                    head: format!(
                        "SELECT {} FROM {name} WHERE {} = ",
                        cols.join(", "),
                        cols[0]
                    ),
                    literals: 1,
                    tail: format!("; -- rows={rows}"),
                }
            };
            out.extend(std::iter::repeat_n(stmt, mult.round() as usize));
        }
    }
    Ok(out)
}

/// A template's weight: its largest query frequency (the convention
/// ingestion and the online tracker share).
pub fn txn_weight(instance: &Instance, t: TxnId) -> f64 {
    let workload = instance.workload();
    workload
        .txn(t)
        .queries
        .iter()
        .map(|&q| workload.query(q).frequency)
        .fold(0.0f64, f64::max)
}

/// Synthesizes a log of about `target_statements` DML statements.
pub fn synthesize(
    instance: &Instance,
    target_statements: usize,
    seed: u64,
) -> Result<SqlWorkload, String> {
    let schema = schema_sql(instance)?;
    let n = instance.n_txns();
    let templates = (0..n)
        .map(|t| txn_statements(instance, TxnId::from_index(t)))
        .collect::<Result<Vec<_>, String>>()?;
    let weights: Vec<f64> = (0..n)
        .map(|t| txn_weight(instance, TxnId::from_index(t)))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    // Statements per unit of weight, so counts follow the weights.
    let stmts_per_weight: f64 = (0..n)
        .map(|t| weights[t] * templates[t].len() as f64)
        .sum::<f64>()
        / total_weight;
    let occurrences_total = target_statements as f64 / stmts_per_weight;
    let counts: Vec<usize> = weights
        .iter()
        .map(|w| ((occurrences_total * w / total_weight).round() as usize).max(1))
        .collect();

    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(t, &c)| std::iter::repeat_n(t, c - 1))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let order = (0..n).chain(order);

    let workload = instance.workload();
    let mut log = String::new();
    let mut statements = 0usize;
    let mut occurrences = 0usize;
    for t in order {
        let _ = writeln!(
            log,
            "BEGIN; -- txn={}",
            workload.txn(TxnId::from_index(t)).name
        );
        for stmt in &templates[t] {
            log.push_str(&stmt.head);
            for i in 0..stmt.literals {
                if i > 0 {
                    log.push_str(", ");
                }
                let _ = write!(log, "{}", rng.gen_range(0..1_000_000u32));
            }
            log.push_str(&stmt.tail);
            log.push('\n');
        }
        log.push_str("COMMIT;\n");
        statements += templates[t].len();
        occurrences += 1;
    }
    Ok(SqlWorkload {
        schema,
        log,
        statements,
        occurrences,
    })
}
