//! Statement shapes: one parse per shape, row estimates once per shape
//! and table, and diagnostics that still name each occurrence.

use std::path::PathBuf;
use vpart_ingest::{ingest, IngestError, IngestOptions, Ingestion, SkipReason};

const SCHEMA: &str = "\
CREATE TABLE acct (id BIGINT PRIMARY KEY, owner VARCHAR(16), bal DECIMAL(12,2));
CREATE TABLE audit (a_id BIGINT, a_note TEXT);";

fn run(log: &str) -> Ingestion {
    ingest(SCHEMA, log, &IngestOptions::default()).unwrap_or_else(|e| panic!("{e}\n{log}"))
}

fn lenient(log: &str) -> Ingestion {
    ingest(SCHEMA, log, &IngestOptions::default().lenient()).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn statements_differing_only_in_literal_values_share_one_parse() {
    let log: String = (0..50)
        .map(|i| format!("SELECT bal FROM acct WHERE id = {i} AND owner = 'o''{i}';\n"))
        .collect();
    let out = run(&log);
    assert_eq!(out.report.statements_seen, 50);
    assert_eq!(out.report.statement_shapes, 1);
    assert_eq!(out.instance.n_txns(), 1);
    let q = out.instance.workload().query(vpart_model::QueryId(0));
    assert_eq!(q.frequency, 50.0);

    // Brackets are shapes too; the blocks' literals vary, their shapes
    // do not.
    let log: String = (0..20)
        .map(|i| {
            format!(
                "BEGIN; -- txn=pay\nSELECT bal FROM acct WHERE id = {i};\n\
                 UPDATE acct SET bal = bal - {i}.5 WHERE id = {i};\nCOMMIT;\n"
            )
        })
        .collect();
    let out = run(&log);
    assert_eq!(
        out.report.statement_shapes, 4,
        "BEGIN, SELECT, UPDATE, COMMIT"
    );
    assert_eq!(out.report.txn_occurrences, 20);
    assert_eq!(out.instance.n_txns(), 1);
}

#[test]
fn annotations_identifiers_and_literal_kinds_split_shapes() {
    let base = "SELECT bal FROM acct WHERE id = 1;";
    for other in [
        "SELECT bal FROM acct WHERE id = 1; -- rows=3",
        "SELECT /*+ sel=2 */ bal FROM acct WHERE id = 1;",
        "SELECT bal FROM acct WHERE id = 1; -- freq=4",
        "select bal from acct where id = 1;",
        "SELECT bal FROM acct a WHERE id = 1;",
        "SELECT bal FROM acct WHERE id = ?;",
        "SELECT bal FROM acct WHERE id = 'one';",
        "SELECT owner FROM acct WHERE id = 1;",
    ] {
        let out = run(&format!("{base}\n{other}\n"));
        assert_eq!(out.report.statement_shapes, 2, "{base} vs {other}");
    }
    // `txn=` only names templates; the parser never reads it.
    let out = run("SELECT /*+ txn=a */ bal FROM acct WHERE id = 1;\n\
                   SELECT /*+ txn=b */ bal FROM acct WHERE id = 2;");
    assert_eq!(out.report.statement_shapes, 1);
    assert_eq!(out.instance.n_txns(), 1, "same statement, one template");

    // Distinct annotations keep their own statistics through the cache.
    let out = run("SELECT bal FROM acct WHERE owner = 'x'; -- rows=3\n\
                   SELECT bal FROM acct WHERE owner = 'y'; -- rows=5");
    let w = out.instance.workload();
    let rows: Vec<f64> = (0..2)
        .map(|q| {
            w.query(vpart_model::QueryId(q))
                .rows_for_table(vpart_model::TableId(0))
        })
        .collect();
    assert_eq!(rows, vec![3.0, 5.0]);
}

#[test]
fn row_estimates_are_reported_once_per_shape_and_table() {
    let log: String = (0..1000)
        .map(|i| {
            format!(
                "BEGIN;\nSELECT bal FROM acct WHERE id = {i};\n\
                 UPDATE acct SET bal = bal - 1 WHERE owner = 'x{i}';\nCOMMIT;\n"
            )
        })
        .collect();
    let out = run(&log);
    assert_eq!(out.report.txn_occurrences, 1000);
    let estimates: Vec<(u32, &str, bool, &str)> = out
        .report
        .row_estimates
        .iter()
        .map(|e| (e.line, e.table.as_str(), e.pk_equality, e.snippet.as_str()))
        .collect();
    assert_eq!(
        estimates,
        vec![
            (2, "acct", true, "SELECT bal FROM acct WHERE id = 0"),
            (
                3,
                "acct",
                false,
                "UPDATE acct SET bal = bal - 1 WHERE owner = 'x0'"
            ),
        ],
        "one entry per shape and table, at its first occurrence"
    );
}

#[test]
fn repeated_web_shop_logs_report_what_one_copy_reports() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/data");
    let schema = std::fs::read_to_string(dir.join("schema.sql")).expect("schema");
    let log = std::fs::read_to_string(dir.join("queries.log")).expect("log");
    let opts = IngestOptions::default();
    let one = ingest(&schema, &log, &opts).expect("one copy ingests");
    // 200 copies, each with its own literals in place of `?`.
    let copies: String = (1..=200)
        .map(|k| log.replace('?', &k.to_string()))
        .collect();
    let many = ingest(&schema, &copies, &opts).expect("copies ingest");
    assert_eq!(
        many.report.statements_seen,
        200 * one.report.statements_seen
    );
    assert_eq!(many.report.txns, one.report.txns);
    assert_eq!(many.report.queries, one.report.queries);
    assert_eq!(
        many.report.row_estimates.len(),
        one.report.row_estimates.len()
    );
    assert_eq!(one.report.row_estimates.len(), 10);
}

#[test]
fn rolled_back_blocks_contribute_no_row_estimates() {
    let log = "BEGIN;\nSELECT bal FROM acct WHERE id = 1;\nROLLBACK;\n\
               BEGIN;\nSELECT bal FROM acct WHERE id = 2;\nCOMMIT;\n";
    let out = run(log);
    assert_eq!(out.report.row_estimates.len(), 1);
    assert_eq!(
        out.report.row_estimates[0].line, 5,
        "the committed block's line"
    );
    assert_eq!(
        out.report.row_estimates[0].snippet,
        "SELECT bal FROM acct WHERE id = 2"
    );
    // Only rolled back: no entry at all.
    let out = run("BEGIN;\nSELECT bal FROM acct WHERE id = 1;\nROLLBACK;\n\
                   INSERT INTO audit (a_id) VALUES (1);");
    assert!(out.report.row_estimates.is_empty());
}

#[test]
fn lenient_skips_name_each_occurrence() {
    let log = "SELECT nope FROM acct WHERE id = 1;\n\
               SELECT bal FROM acct WHERE id = 2;\n\
               SELECT nope FROM acct WHERE id = 3;\n\
               BEGIN;\nUPDATE acct SET bal = 4 WHERE id = 4;\nROLLBACK;\n\
               BEGIN;\nUPDATE acct SET bal = 5 WHERE id = 5;\nROLLBACK;\n\
               VACUUM acct;\nVACUUM\n  acct;";
    let out = lenient(log);
    let skipped: Vec<(u32, SkipReason, &str)> = out
        .report
        .skipped
        .iter()
        .map(|s| (s.line, s.reason, s.snippet.as_str()))
        .collect();
    assert_eq!(
        skipped,
        vec![
            (
                1,
                SkipReason::UnknownReference,
                "SELECT nope FROM acct WHERE id = 1"
            ),
            (
                3,
                SkipReason::UnknownReference,
                "SELECT nope FROM acct WHERE id = 3"
            ),
            (
                5,
                SkipReason::RolledBack,
                "UPDATE acct SET bal = 4 WHERE id = 4"
            ),
            (
                8,
                SkipReason::RolledBack,
                "UPDATE acct SET bal = 5 WHERE id = 5"
            ),
            (10, SkipReason::NotADmlStatement, "VACUUM acct"),
            (11, SkipReason::NotADmlStatement, "VACUUM acct"),
        ]
    );
    assert_eq!(out.report.statement_shapes, 6);
}

#[test]
fn strict_errors_name_the_failing_statement_line() {
    let err = |log: &str| ingest(SCHEMA, log, &IngestOptions::default()).unwrap_err();
    // The failing shape's first occurrence is the first failing statement.
    let log = "SELECT bal FROM acct WHERE id = 1;\n\
               SELECT bal FROM acct WHERE id = 2;\n\
               SELECT bal\n  FROM acct\n  WHERE nope = 3;\n\
               SELECT bal FROM acct WHERE nope = 4;";
    assert_eq!(
        err(log),
        IngestError::UnknownColumn {
            table: "acct".into(),
            column: "nope".into(),
            line: 5
        }
    );
    match err("SELECT bal FROM acct WHERE id = 1;\nSELECT bal FROM acct WHERE id = 2; -- rows=x") {
        IngestError::Syntax { line, .. } => assert_eq!(line, 2),
        other => panic!("expected a syntax error, got {other:?}"),
    }
    // A lexical error anywhere in the log wins, as if the whole log had
    // been lexed before the first statement was parsed.
    assert_eq!(
        err("SELECT nope FROM acct;\nSELECT bal FROM acct WHERE owner = 'oops;"),
        IngestError::UnterminatedString { line: 2 }
    );
    assert_eq!(
        err("COMMIT;\nSELECT bal FROM acct /* open"),
        IngestError::UnterminatedComment { line: 2 }
    );
}
