//! Parity goldens: the ingested `Instance` and the report of fixed inputs,
//! pinned byte for byte.
//!
//! Each case ingests a checked-in workload (the `examples/data` web shop,
//! a lenient log full of diagnostics, and the shared fuzz generator at
//! fixed seeds) and compares the instance JSON plus every report entry —
//! counts, skipped lines and snippets, row estimates, confidence — with
//! `tests/data/parity/<case>.json`. The goldens were recorded before the
//! log was streamed and parsed once per statement shape, so any drift in
//! what the shape cache hands the aggregator shows up here. One
//! difference is intended: `diagnostics_lenient.json` lacks the row
//! estimates the old miner listed for lines 22-23, whose statements
//! repeat the first `transfer` block's shapes with new literals — row
//! estimates are now listed once per shape and table.
//!
//! To re-record after an intended change, run
//! `VPART_BLESS_PARITY=1 cargo test -p vpart_ingest --test parity` and
//! review the diff of `tests/data/parity/`.

mod common;

use common::Gen;
use serde_json::{json, Value};
use std::path::PathBuf;
use vpart_ingest::{ingest, ingest_stats, IngestOptions, Ingestion, StatsFormat};

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every report entry that existed before shapes were counted.
fn report_json(out: &Ingestion) -> Value {
    let r = &out.report;
    json!({
        "tables": r.tables,
        "attrs": r.attrs,
        "txns": r.txns,
        "queries": r.queries,
        "statements_seen": r.statements_seen,
        "statements_ingested": r.statements_ingested,
        "txn_occurrences": r.txn_occurrences,
        "skipped": r.skipped.iter().map(|s| json!([s.line, format!("{:?}", s.reason), s.snippet])).collect::<Vec<_>>(),
        "width_fallbacks": r.width_fallbacks.iter().map(|w| json!([w.table, w.column, w.sql_type, w.width])).collect::<Vec<_>>(),
        "row_estimates": r.row_estimates.iter().map(|e| json!([e.line, e.table, e.rows, e.pk_equality, e.snippet])).collect::<Vec<_>>(),
        "sample_rate": r.sample_rate,
        "confidence": r.confidence.iter().map(|c| json!([c.txn, c.observed, c.scaled, format!("{:?}", c.level)])).collect::<Vec<_>>(),
    })
}

/// A log exercising every diagnostic path in lenient mode: rolled-back
/// blocks, unknown references, unsupported statements, set operations,
/// multi-line comments and strings, quoted identifiers and annotations
/// on either side of a statement.
const DIAGNOSTICS_LOG: &str = "\
-- rows=3
SELECT bal FROM acct WHERE id = 1;
SELECT bal FROM acct WHERE id = 2; -- rows=4
BEGIN; -- txn=transfer
SELECT bal FROM acct WHERE id = 7;
UPDATE acct SET bal = bal - 10 WHERE id = 7;
INSERT INTO audit (a_id, a_note) VALUES (1, 'it''s
a multi-line note');
COMMIT; -- freq=2
BEGIN;
UPDATE acct SET bal = 0 WHERE id = 3;
SELECT nope FROM acct;
ROLLBACK;
/* a block comment
   spanning lines */ SELECT \"owner\" FROM \"acct\" WHERE owner = 'x';
VACUUM acct;
SELECT bal FROM acct UNION SELECT a_id FROM audit;
SELECT bal FROM missing WHERE id = 1;
SELECT owner FROM acct WHERE id = 9 /*+ sel=2 */ ;
DELETE FROM audit WHERE a_id = 4;
BEGIN; -- txn=transfer
SELECT bal FROM acct WHERE id = 8;
UPDATE acct SET bal = bal - 10 WHERE id = 8;
INSERT INTO audit (a_id, a_note) VALUES (2, 'plain');
COMMIT; -- freq=2
";

const DIAGNOSTICS_SCHEMA: &str = "\
CREATE TABLE acct (id BIGINT PRIMARY KEY, owner VARCHAR(16), bal DECIMAL(12,2));
CREATE TABLE audit (a_id BIGINT, a_note TEXT);
CREATE INDEX acct_owner ON acct(owner);";

/// `(case name, ingestion)` for every pinned input.
fn cases() -> Vec<(String, Ingestion)> {
    let schema = repo_file("examples/data/schema.sql");
    let shop = IngestOptions::default().with_name("web-shop");
    let mut out = vec![
        (
            "web_shop_log".to_string(),
            ingest(&schema, &repo_file("examples/data/queries.log"), &shop),
        ),
        (
            "web_shop_drifted_log".to_string(),
            ingest(
                &schema,
                &repo_file("examples/data/queries_drifted.log"),
                &shop,
            ),
        ),
        (
            "web_shop_log_sampled".to_string(),
            ingest(
                &schema,
                &repo_file("examples/data/queries.log"),
                &shop.clone().with_sample_rate(0.1),
            ),
        ),
        (
            "web_shop_pgss".to_string(),
            ingest_stats(
                &schema,
                &repo_file("examples/data/pg_stat_statements.csv"),
                StatsFormat::PgssCsv,
                &shop,
            ),
        ),
        (
            "diagnostics_lenient".to_string(),
            ingest(
                DIAGNOSTICS_SCHEMA,
                DIAGNOSTICS_LOG,
                &IngestOptions::default().lenient(),
            ),
        ),
    ];
    for seed in 0..8u64 {
        let mut g = Gen::new(seed);
        let ddl = g.ddl();
        let (log, _) = g.log();
        out.push((
            format!("generated_log_seed{seed}"),
            ingest(&ddl, &log, &IngestOptions::default()),
        ));
    }
    for seed in 0..3u64 {
        let mut g = Gen::new(0x57A7_0000 + seed);
        let ddl = g.ddl();
        let (dump, _) = g.pgss_csv();
        out.push((
            format!("generated_pgss_seed{seed}"),
            ingest_stats(&ddl, &dump, StatsFormat::PgssCsv, &IngestOptions::default()),
        ));
        let mut g = Gen::new(0x9E2F_0000 + seed);
        let ddl = g.ddl();
        let (dump, _) = g.perf_schema_tsv();
        out.push((
            format!("generated_perf_schema_seed{seed}"),
            ingest_stats(
                &ddl,
                &dump,
                StatsFormat::PerfSchema,
                &IngestOptions::default(),
            ),
        ));
    }
    out.into_iter()
        .map(|(name, res)| {
            let ing = res.unwrap_or_else(|e| panic!("case {name}: {e}"));
            (name, ing)
        })
        .collect()
}

#[test]
fn ingestion_matches_the_recorded_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/parity");
    let bless = std::env::var_os("VPART_BLESS_PARITY").is_some();
    let mut mismatches = Vec::new();
    for (name, ing) in cases() {
        let actual = serde_json::to_string_pretty(&json!({
            "instance": serde_json::to_value(&ing.instance),
            "report": report_json(&ing),
        }))
        .expect("golden serializes")
            + "\n";
        let path = dir.join(format!("{name}.json"));
        if bless {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &actual).expect("golden written");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} (record with VPART_BLESS_PARITY=1)", path.display())
        });
        if actual != expected {
            let line = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .map_or(actual.lines().count().min(expected.lines().count()), |i| i)
                + 1;
            mismatches.push(format!("{name}: first difference at line {line}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches:\n{}",
        mismatches.join("\n")
    );
}
