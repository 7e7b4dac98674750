//! Workload ingestion: SQL DDL + query logs → partitioning instances.
//!
//! The paper derives its cost model from a schema and a workload of
//! transactions; real deployments express those as a `CREATE TABLE` script
//! plus a query log. This crate converts that pair into a validated
//! [`vpart_model::Instance`] ready for any solver in `vpart_core`:
//!
//! ```
//! use vpart_ingest::{ingest, IngestOptions};
//!
//! let schema = "CREATE TABLE acct (id BIGINT PRIMARY KEY, owner VARCHAR(16), bal DECIMAL(12,2));";
//! let log = "\
//!     BEGIN; -- txn=withdraw
//!     SELECT bal FROM acct WHERE id = 1;
//!     UPDATE acct SET bal = bal - 100 WHERE id = 1;
//!     COMMIT;";
//! let out = ingest(schema, log, &IngestOptions::default()).unwrap();
//! assert_eq!(out.instance.n_txns(), 1);
//! assert_eq!(out.instance.n_queries(), 3); // select + update read/write
//! // `WHERE id = 1` binds the full primary key → rows = 1, no annotation
//! // needed, and the estimate is principled (lossless).
//! assert!(out.report.is_lossless());
//! assert!(out.report.row_estimates.iter().all(|e| e.pk_equality));
//! ```
//!
//! # Workload frontends
//!
//! The query log is one of several [`frontend::WorkloadFrontend`]s. The
//! same schema can instead be paired with pre-aggregated statistics —
//! a `pg_stat_statements` dump (CSV or JSON) or a MySQL
//! `performance_schema` digest summary — via [`ingest_stats`]: each dump
//! row is a normalized `(template, calls, rows)` record whose template
//! text goes through the same flattening and row-estimation pipeline as
//! log statements. Sampled inputs scale up to population estimates with
//! [`IngestOptions::sample_rate`], and rarely-seen templates are flagged
//! [`report::ConfidenceLevel::LowConfidence`] in the report:
//!
//! ```
//! use vpart_ingest::{ingest_stats, IngestOptions, StatsFormat};
//!
//! let schema = "CREATE TABLE acct (id BIGINT PRIMARY KEY, bal DECIMAL(12,2));";
//! let dump = "query,calls,rows\n\
//!             \"SELECT bal FROM acct WHERE id = $1\",1200,1200\n\
//!             \"UPDATE acct SET bal = bal - $1 WHERE id = $2\",400,400\n";
//! let out = ingest_stats(
//!     schema,
//!     dump,
//!     StatsFormat::PgssCsv,
//!     &IngestOptions::default().with_sample_rate(0.5),
//! )
//! .unwrap();
//! assert_eq!(out.instance.n_txns(), 2);
//! // calls scale by 1/sample_rate; both templates clear the confidence bar.
//! assert_eq!(out.instance.workload().query(vpart_model::QueryId(0)).frequency, 2400.0);
//! assert!(out.report.low_confidence().next().is_none());
//! ```
//!
//! # Supported SQL subset
//!
//! **DDL** — `CREATE TABLE name (col TYPE [constraints], ..., [table
//! constraints])`, with optional `IF NOT EXISTS` and quoted identifiers.
//! Types map to average widths `w_a` by their natural binary width:
//! integer/float widths as usual, `DECIMAL(p,s)` by precision (4 bytes up
//! to 9 digits, 8 up to 18, packed beyond), `CHAR(n)`/`VARCHAR(n)` as `n`,
//! date/time types 4–8 bytes, `UUID` 16. Unbounded or unknown types
//! (`TEXT`, `BLOB`, vendor types) use [`IngestOptions::text_width`] and
//! are reported as width fallbacks. `PRIMARY KEY` declarations are kept
//! for row estimation; other constraints (`FOREIGN KEY`, `UNIQUE`,
//! `CHECK`, ...) are accepted and ignored; non-`CREATE TABLE` DDL is
//! skipped with a diagnostic.
//!
//! **Query log** — `SELECT` / `INSERT` / `UPDATE` / `DELETE` (table
//! aliases, `AS` output aliases and schema-qualified names are accepted),
//! plus `BEGIN`/`COMMIT`/`ROLLBACK` brackets. Multi-table statements are
//! *flattened* into one access per touched table, exactly as the
//! hand-built TPC-C model expresses its multi-table transactions:
//!
//! * `JOIN ... ON` / `USING` and comma joins — one read per joined table
//!   over the columns each table contributes,
//! * `IN (SELECT ...)`, `EXISTS (...)` and other parenthesized subqueries
//!   (correlated ones included) — the inner tables become reads,
//! * `INSERT ... SELECT` — a write on the target plus reads on the
//!   sources.
//!
//! Selection predicates count as attribute accesses (as in the hand-built
//! TPC-C model); `SELECT *` and unpredicated `DELETE` touch every column;
//! UPDATEs split into read + write sub-queries per the paper's §5.2.
//! Identical statements/blocks aggregate into query frequencies. The log
//! is streamed one statement at a time and each distinct statement shape
//! (the statement with its literal values erased) is parsed once — see
//! [`frontend::log`]; the report counts the shapes
//! ([`IngestReport::statement_shapes`]).
//!
//! # Row counts
//!
//! Per-table row counts `n_{a,q}` come from, in priority order:
//!
//! 1. a `-- rows=N` annotation (authoritative),
//! 2. the `VALUES` tuple count of a plain `INSERT` (exact),
//! 3. a full `PRIMARY KEY` equality binding (`WHERE pk = ?`, every key
//!    column `=` a constant, no `OR`) → 1 row,
//! 4. otherwise [`IngestOptions::default_rows`] scaled by the `-- sel=F`
//!    annotation (join selectivity / fan-out), recorded in the report as
//!    a guess.
//!
//! Other annotations: `-- freq=N` (execution weight, on a bare statement
//! or either transaction bracket), `-- txn=Name` (template name);
//! `/*+ ... */` hint comments work inline.
//!
//! # Known limits (by design, see the ingest report for visibility)
//!
//! * no set operations (`UNION`, ...), no derived tables
//!   (`FROM (SELECT ...) alias`) and no multi-table `UPDATE` targets —
//!   skipped with [`report::SkipReason`] diagnostics,
//! * `COUNT(*)` and arithmetic `*` are read as whole-row references (an
//!   over-approximation),
//! * statement order inside a transaction is part of its aggregation
//!   identity: two blocks with the same statements in different order
//!   count as two templates.
//!
//! # Error policy
//!
//! Truncated input and schema/log mismatches (unknown tables/columns,
//! ambiguous join columns, unbalanced `BEGIN`/`COMMIT`, conflicting
//! bracket annotations) are typed [`IngestError`]s — silently dropping
//! workload would corrupt the cost model. Well-formed but unsupported SQL
//! is *skipped and reported* instead ([`IngestOptions::strict`] = `false`
//! extends this to unknown references). Nothing panics on malformed text.

pub mod ddl;
pub mod error;
pub mod frontend;
pub mod lexer;
pub mod report;
pub mod stmt;

pub use frontend::log;
pub use frontend::{
    FrontendCtx, MinerStats, RecordBatch, StatsFormat, StatsReader, StatsRecord, WorkloadFrontend,
};

pub use error::IngestError;
pub use report::{
    ConfidenceEntry, ConfidenceLevel, IngestReport, RowEstimate, SkipReason, Skipped, WidthFallback,
};

use vpart_model::Instance;

/// Ingestion knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOptions {
    /// Name of the produced instance.
    pub name: String,
    /// Fallback width in bytes for unbounded/unknown SQL types.
    pub text_width: f64,
    /// Fallback per-table row count for statements with neither a `rows=`
    /// annotation nor a full primary-key equality predicate.
    pub default_rows: f64,
    /// When `true` (default), unknown tables/columns and in-statement
    /// grammar violations abort ingestion; when `false` they skip the
    /// statement with a diagnostic.
    pub strict: bool,
    /// Fraction of the real traffic the input covers, in `(0, 1]`.
    /// Ingested frequencies are scaled by `1 / sample_rate` to population
    /// estimates; any value below 1 also turns on per-template confidence
    /// reporting ([`report::ConfidenceEntry`]).
    pub sample_rate: f64,
    /// When sampling, templates observed fewer than this many times are
    /// flagged [`report::ConfidenceLevel::LowConfidence`]: their scaled
    /// frequency rests on too few observations to trust.
    pub confidence_min_calls: f64,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            name: "ingested".to_string(),
            text_width: 64.0,
            default_rows: 1.0,
            strict: true,
            sample_rate: 1.0,
            confidence_min_calls: 10.0,
        }
    }
}

impl IngestOptions {
    /// Sets the instance name.
    pub fn with_name<S: Into<String>>(mut self, name: S) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the fallback width for unbounded types.
    pub fn with_text_width(mut self, width: f64) -> Self {
        self.text_width = width;
        self
    }

    /// Sets the fallback row count for unestimable statements.
    pub fn with_default_rows(mut self, rows: f64) -> Self {
        self.default_rows = rows;
        self
    }

    /// Switches to lenient handling of unknown references.
    pub fn lenient(mut self) -> Self {
        self.strict = false;
        self
    }

    /// Sets the sampling rate the input was collected at (validated on
    /// ingestion: must be in `(0, 1]`).
    pub fn with_sample_rate(mut self, rate: f64) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Sets the minimum observations below which a sampled template is
    /// flagged low-confidence.
    pub fn with_confidence_min_calls(mut self, calls: f64) -> Self {
        self.confidence_min_calls = calls;
        self
    }
}

/// A successful ingestion: the instance plus its loss diagnostics.
#[derive(Debug, Clone)]
pub struct Ingestion {
    /// The validated instance.
    pub instance: Instance,
    /// What was read, guessed and skipped.
    pub report: IngestReport,
}

/// Converts DDL text plus a query log into a partitioning instance.
pub fn ingest(
    schema_sql: &str,
    query_log: &str,
    opts: &IngestOptions,
) -> Result<Ingestion, IngestError> {
    ingest_with(&frontend::log::LogFrontend, schema_sql, query_log, opts)
}

/// Converts DDL text plus a statistics dump (`pg_stat_statements` /
/// `performance_schema`) into a partitioning instance.
pub fn ingest_stats(
    schema_sql: &str,
    dump: &str,
    format: StatsFormat,
    opts: &IngestOptions,
) -> Result<Ingestion, IngestError> {
    ingest_with(format.frontend(), schema_sql, dump, opts)
}

/// Converts DDL text plus frontend-specific workload input into a
/// partitioning instance — the generic entry point behind [`ingest`] and
/// [`ingest_stats`], open to user-supplied [`WorkloadFrontend`]s.
pub fn ingest_with(
    frontend: &dyn WorkloadFrontend,
    schema_sql: &str,
    input: &str,
    opts: &IngestOptions,
) -> Result<Ingestion, IngestError> {
    if !(opts.sample_rate > 0.0 && opts.sample_rate <= 1.0) {
        return Err(IngestError::InvalidSampleRate {
            rate: opts.sample_rate,
        });
    }
    let parsed = ddl::parse_schema(schema_sql, opts)?;
    let ctx = FrontendCtx {
        schema: &parsed.schema,
        primary_keys: &parsed.primary_keys,
        opts,
    };
    let (workload, stats) = frontend.mine(input, &ctx)?;
    let instance = Instance::new(opts.name.clone(), parsed.schema, workload)?;

    let mut skipped = parsed.skipped;
    skipped.extend(stats.skipped);
    skipped.sort_by_key(|s| s.line);
    let report = IngestReport {
        tables: instance.n_tables(),
        attrs: instance.n_attrs(),
        txns: instance.n_txns(),
        queries: instance.n_queries(),
        statements_seen: stats.statements_seen,
        statements_ingested: stats.statements_ingested,
        txn_occurrences: stats.txn_occurrences,
        statement_shapes: stats.statement_shapes,
        skipped,
        width_fallbacks: parsed.width_fallbacks,
        row_estimates: stats.row_estimates,
        sample_rate: opts.sample_rate,
        confidence: stats.confidence,
    };
    Ok(Ingestion { instance, report })
}

/// Parses only the DDL side into a schema (plus diagnostics).
pub fn parse_schema(
    schema_sql: &str,
    opts: &IngestOptions,
) -> Result<ddl::ParsedSchema, IngestError> {
    ddl::parse_schema(schema_sql, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "\
        CREATE TABLE users (u_id BIGINT PRIMARY KEY, u_email VARCHAR(64), u_notes TEXT);\n\
        CREATE TABLE orders (o_id BIGINT PRIMARY KEY, o_u_id BIGINT, o_total DECIMAL(12,2));";

    #[test]
    fn end_to_end_builds_a_validated_instance() {
        let log = "\
            SELECT u_email FROM users WHERE u_id = 7;\n\
            BEGIN; -- txn=checkout\n\
            SELECT u_id FROM users WHERE u_email = 'a@b.c';\n\
            INSERT INTO orders VALUES (1, 7, 9.99);\n\
            COMMIT;\n\
            SELECT u_email, o_total FROM orders JOIN users ON o_u_id = u_id WHERE o_id = 3;";
        let out = ingest(SCHEMA, log, &IngestOptions::default()).unwrap();
        assert_eq!(out.instance.n_tables(), 2);
        assert_eq!(out.instance.n_attrs(), 6);
        assert_eq!(out.instance.n_txns(), 3);
        assert_eq!(out.report.statements_seen, 4);
        assert_eq!(out.report.statements_ingested, 4, "the join ingests too");
        // 1 select + (select + insert) + 2 flattened join reads.
        assert_eq!(out.instance.n_queries(), 5);
        assert!(out.report.skipped.is_empty());
        assert_eq!(out.report.width_fallbacks.len(), 1, "TEXT column");
        // u_id = 7 and o_id = 3 are PK equalities; the email lookup and
        // the join's users side are default guesses.
        assert!(out
            .report
            .row_estimates
            .iter()
            .any(|e| e.pk_equality && e.table == "users"));
        assert!(!out.report.is_lossless(), "default guesses remain visible");
        assert!(out.instance.workload().txn_by_name("checkout").is_some());
    }

    #[test]
    fn report_numbers_match_the_instance() {
        let out = ingest(
            SCHEMA,
            "SELECT u_email FROM users WHERE u_id = 1;",
            &IngestOptions::default().with_name("tiny"),
        )
        .unwrap();
        assert_eq!(out.instance.name(), "tiny");
        assert_eq!(out.report.tables, out.instance.n_tables());
        assert_eq!(out.report.attrs, out.instance.n_attrs());
        assert_eq!(out.report.txns, out.instance.n_txns());
        assert_eq!(out.report.queries, out.instance.n_queries());
    }

    #[test]
    fn default_rows_option_feeds_the_fallback_estimate() {
        let out = ingest(
            SCHEMA,
            "SELECT u_id FROM users WHERE u_email = 'a@b.c';",
            &IngestOptions::default().with_default_rows(12.0),
        )
        .unwrap();
        let w = out.instance.workload();
        let q = w.query(vpart_model::QueryId(0));
        assert_eq!(q.rows_for_table(vpart_model::TableId(0)), 12.0);
        assert_eq!(out.report.row_estimates.len(), 1);
        assert!(!out.report.row_estimates[0].pk_equality);
        assert_eq!(out.report.row_estimates[0].rows, 12.0);
    }

    #[test]
    fn stats_and_log_frontends_share_the_statement_pipeline() {
        // The same workload expressed as a log and as a pgss dump (with
        // matching counts) produces structurally identical instances.
        let log = "SELECT /*+ freq=6 */ u_email FROM users WHERE u_id = 7;\n\
                   UPDATE /*+ freq=2 */ orders SET o_total = 0 WHERE o_id = 1;";
        let dump = "query,calls,rows\n\
                    \"SELECT u_email FROM users WHERE u_id = $1\",6,6\n\
                    \"UPDATE orders SET o_total = $1 WHERE o_id = $2\",2,2\n";
        let opts = IngestOptions::default().with_name("same");
        let from_log = ingest(SCHEMA, log, &opts).unwrap();
        let from_stats = ingest_stats(SCHEMA, dump, StatsFormat::PgssCsv, &opts).unwrap();
        assert_eq!(from_log.instance, from_stats.instance);
    }

    #[test]
    fn invalid_sample_rates_are_rejected() {
        for rate in [0.0, -1.0, 1.5, f64::NAN] {
            let err = ingest(
                SCHEMA,
                "SELECT u_email FROM users WHERE u_id = 1;",
                &IngestOptions::default().with_sample_rate(rate),
            )
            .unwrap_err();
            assert!(
                matches!(err, IngestError::InvalidSampleRate { .. }),
                "rate {rate}: {err:?}"
            );
        }
    }

    #[test]
    fn strict_mode_propagates_reference_errors() {
        let log = "SELECT nope FROM users;";
        assert!(matches!(
            ingest(SCHEMA, log, &IngestOptions::default()),
            Err(IngestError::UnknownColumn { .. })
        ));
        let out = ingest(SCHEMA, log, &IngestOptions::default().lenient());
        assert!(matches!(out, Err(IngestError::NothingIngested { .. })));
    }
}
