//! End-to-end CLI: SQL ingestion through the `vpart` binary.

use std::path::Path;
use std::process::Command;

fn data(file: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data")
        .join(file)
        .to_string_lossy()
        .into_owned()
}

fn vpart(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vpart"))
        .args(args)
        .output()
        .expect("vpart binary runs")
}

#[test]
fn solve_from_schema_and_log() {
    // The acceptance path: schema + log straight into solve.
    let trace =
        std::env::temp_dir().join(format!("vpart_{}_ingest_solve.jsonl", std::process::id()));
    let out = vpart(&[
        "solve",
        "--schema",
        &data("schema.sql"),
        "--log",
        &data("queries.log"),
        "--sites",
        "2",
        "--json",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace carries one `ingest` span sized by the log it read.
    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = vpart::obs::TraceSummary::from_jsonl(&text).expect("trace parses");
    assert_eq!(summary.ingests.len(), 1);
    let ingest = &summary.ingests[0];
    let log_bytes = std::fs::metadata(data("queries.log")).unwrap().len();
    assert_eq!(
        (
            ingest.statements,
            ingest.shapes,
            ingest.templates,
            ingest.log_bytes
        ),
        (19, 23, 11, log_bytes)
    );
    let _ = std::fs::remove_file(&trace);
    let json: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(json.get("sites").and_then(|v| v.as_u64()), Some(2));
    assert!(json.get("cost").and_then(|v| v.as_f64()).unwrap() > 0.0);

    // The emitted partitioning validates against a fresh ingestion of the
    // same workload.
    let part: vpart::model::Partitioning =
        serde_json::from_value(json.get("partitioning").unwrap()).unwrap();
    let schema_sql = std::fs::read_to_string(data("schema.sql")).unwrap();
    let log = std::fs::read_to_string(data("queries.log")).unwrap();
    let ingested = vpart::ingest::ingest(
        &schema_sql,
        &log,
        &vpart::ingest::IngestOptions::default().with_name(data("schema.sql")),
    )
    .unwrap();
    part.validate(&ingested.instance, false)
        .expect("CLI partitioning validates");
}

#[test]
fn ingest_writes_a_loadable_instance_file() {
    let tmp = std::env::temp_dir().join("vpart_cli_ingest_test.json");
    let tmp_str = tmp.to_string_lossy().into_owned();
    let out = vpart(&[
        "ingest",
        "--schema",
        &data("schema.sql"),
        "--log",
        &data("queries.log"),
        "--name",
        "web-shop",
        "--out",
        &tmp_str,
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ingested 5 tables"),
        "report on stderr: {stderr}"
    );
    assert!(
        stderr.contains("over 11 transaction executions as 23 statement shapes"),
        "shape count on stderr: {stderr}"
    );

    // The file round-trips through the model's serde format...
    let json = std::fs::read_to_string(&tmp).unwrap();
    let ins: vpart::model::Instance = serde_json::from_str(&json).unwrap();
    assert_eq!(ins.name(), "web-shop");
    assert_eq!(ins.n_tables(), 5);

    // ...and `solve --instance <file>` accepts it.
    let out = vpart(&["solve", "--instance", &tmp_str, "--sites", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("web-shop"), "solve output: {stdout}");
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn ingest_json_report_flattens_multi_table_statements() {
    // The web-shop log contains a JOIN, an `IN (SELECT ...)` and an
    // `INSERT ... SELECT`; all must ingest (zero skips) and the report
    // must surface the PK-driven row estimates.
    let out = vpart(&[
        "ingest",
        "--schema",
        &data("schema.sql"),
        "--log",
        &data("queries.log"),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report_line = stderr
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("JSON report on stderr");
    let report: serde_json::Value = serde_json::from_str(report_line).unwrap();
    assert_eq!(report.get("skipped").and_then(|v| v.as_u64()), Some(0));
    let seen = report.get("statements_seen").and_then(|v| v.as_u64());
    assert_eq!(
        report.get("statements_ingested").and_then(|v| v.as_u64()),
        seen,
        "every statement ingests: {report}"
    );
    assert!(
        report
            .get("row_estimates")
            .and_then(|v| v.as_u64())
            .unwrap()
            > 0,
        "PK-driven estimates are reported: {report}"
    );
    // 19 DML shapes plus three differently annotated BEGINs and a COMMIT.
    assert_eq!(
        report.get("statement_shapes").and_then(|v| v.as_u64()),
        Some(23),
        "{report}"
    );
}

#[test]
fn solve_from_stats_dump_agrees_with_log_ingestion() {
    // The acceptance path: schema + pg_stat_statements dump straight into
    // solve, producing the same partitioning as the query-log twin.
    let schema_path = data("schema.sql");
    let solve = |source: &[&str]| -> serde_json::Value {
        let mut args = vec!["solve", "--schema", schema_path.as_str()];
        args.extend_from_slice(source);
        args.extend_from_slice(&["--sites", "2", "--json"]);
        let out = vpart(&args);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap()
    };
    let stats_path = data("pg_stat_statements.csv");
    let log_path = data("queries.log");
    let from_stats = solve(&["--stats", &stats_path, "--stats-format", "pgss-csv"]);
    let from_log = solve(&["--log", &log_path]);
    assert_eq!(
        from_stats.get("partitioning"),
        from_log.get("partitioning"),
        "same workload, same seed, same layout"
    );
    assert_eq!(from_stats.get("cost"), from_log.get("cost"));
}

#[test]
fn ingest_stats_strict_json_reports_confidence() {
    // The checked-in dump ingests cleanly: --strict exits zero.
    let stats_path = data("pg_stat_statements.csv");
    let out = vpart(&[
        "ingest",
        "--schema",
        &data("schema.sql"),
        "--stats",
        &stats_path,
        "--stats-format",
        "pgss-csv",
        "--strict",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report_line = stderr
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("JSON report on stderr");
    let report: serde_json::Value = serde_json::from_str(report_line).unwrap();
    assert_eq!(report.get("skipped").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(
        report.get("sample_rate").and_then(|v| v.as_f64()),
        Some(1.0)
    );
    assert_eq!(
        report.get("low_confidence").and_then(|v| v.as_u64()),
        Some(0)
    );

    // Sampling the same dump at 1% makes the rare templates
    // low-confidence; --strict must then exit non-zero and the JSON
    // report must carry the per-template entries.
    let out = vpart(&[
        "ingest",
        "--schema",
        &data("schema.sql"),
        "--stats",
        &stats_path,
        "--sample-rate",
        "0.01",
        "--strict",
        "--json",
    ]);
    assert!(!out.status.success(), "--strict must fail on LowConfidence");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report_line = stderr
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("JSON report still printed");
    let report: serde_json::Value = serde_json::from_str(report_line).unwrap();
    let entries = report.get("confidence").and_then(|v| v.as_array()).unwrap();
    assert!(!entries.is_empty(), "per-template entries: {report}");
    let low = entries
        .iter()
        .filter(|e| e.get("low").and_then(|v| v.as_bool()) == Some(true))
        .count();
    assert!(low > 0);
    assert_eq!(
        report.get("low_confidence").and_then(|v| v.as_u64()),
        Some(low as u64)
    );
    // update_profile was seen once: scaling 1 observation by 100 is flagged.
    assert!(entries.iter().any(|e| {
        e.get("txn").and_then(|v| v.as_str()) == Some("update_profile")
            && e.get("observed").and_then(|v| v.as_f64()) == Some(1.0)
            && e.get("scaled").and_then(|v| v.as_f64()) == Some(100.0)
    }));
    assert!(
        stderr.contains("--strict"),
        "failure names the flag: {stderr}"
    );
}

#[test]
fn list_supports_json() {
    let out = vpart(&["list", "--json"]);
    assert!(out.status.success());
    let json: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    let entries = json.as_array().unwrap();
    assert!(entries.iter().any(|e| {
        e.get("name").and_then(|n| n.as_str()) == Some("tpcc")
            && e.get("attrs").and_then(|a| a.as_u64()) == Some(92)
    }));
}

#[test]
fn ingest_errors_are_reported_not_panicked() {
    let out = vpart(&[
        "ingest",
        "--schema",
        "/nonexistent.sql",
        "--log",
        "/nope.log",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let out = vpart(&["solve", "--instance", "not-a-thing", "--sites", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown instance"));
}
