//! End-to-end CLI: `--trace-out` / `--metrics-out` on `vpart solve` and
//! the `vpart inspect` trace renderer.

use std::path::PathBuf;
use std::process::Command;
use vpart::obs::TraceSummary;

fn vpart(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vpart"))
        .args(args)
        .output()
        .expect("vpart binary runs")
}

/// A per-test scratch path that does not collide across parallel tests.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vpart_{}_{name}", std::process::id()))
}

#[test]
fn solve_records_trace_and_metrics_and_inspect_renders_them() {
    let trace = scratch("solve.jsonl");
    let metrics = scratch("solve.prom");
    let out = vpart(&[
        "solve",
        "--instance",
        "rndBt4x15",
        "--sites",
        "2",
        "--restarts",
        "4",
        "--threads",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --json stdout stays machine-parseable: the file-written notices go
    // to stderr only.
    let report: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim())
            .expect("stdout is one JSON document");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote trace"));
    assert!(stderr.contains("wrote metrics"));

    // The restart stats explain every chain: accepted + rejected == moves.
    let restarts = report.get("restarts").unwrap().as_array().unwrap();
    let chain = &restarts[0];
    let accepted = chain.get("accepted_moves").unwrap().as_u64().unwrap();
    let rejected = chain.get("rejected_moves").unwrap().as_u64().unwrap();
    let iterations = chain.get("iterations").unwrap().as_u64().unwrap();
    assert_eq!(accepted + rejected, iterations);
    assert!(chain.get("resyncs").unwrap().as_u64().unwrap() >= 1);
    assert!(chain.get("mean_abs_delta").unwrap().as_f64().unwrap() >= 0.0);

    // The trace is line-parseable JSONL with one sa_solve and one
    // sa_chain span per restart.
    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = TraceSummary::from_jsonl(&text).expect("trace parses");
    assert_eq!(summary.chains.len(), 4, "one chain row per restart");
    assert_eq!(summary.chains.iter().filter(|c| c.winner).count(), 1);
    for c in &summary.chains {
        assert_eq!(c.accepted + c.rejected, c.iterations);
    }

    // The exposition carries the headline series.
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("# TYPE sa_moves_total counter"));
    assert!(prom.contains("sa_acceptance_ratio "));
    assert!(prom.contains("solve_wall_seconds_bucket{le="));
    assert!(prom.contains("solve_wall_seconds_count 1"));

    // `vpart inspect` renders the per-chain convergence table.
    let out = vpart(&["inspect", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(rendered.contains("per-chain convergence"));
    assert!(rendered.contains("winner"));
    for c in &summary.chains {
        assert!(rendered.contains(&c.seed.to_string()), "seed column");
    }

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn qp_solves_record_node_and_pivot_counters() {
    let metrics = scratch("qp.prom");
    let out = vpart(&[
        "solve",
        "--instance",
        "rndBt4x15",
        "--sites",
        "2",
        "--algo",
        "qp",
        "--time-limit",
        "60",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&metrics).unwrap();
    for counter in [
        "qp_branch_nodes_total",
        "qp_lp_pivots_total",
        "qp_root_lp_pivots_total",
        "qp_warm_lp_pivots_total",
        "qp_lp_seconds_total",
    ] {
        assert!(prom.contains(counter), "{counter} missing:\n{prom}");
    }
    assert!(prom.contains("solve_wall_seconds_count 1"));
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn inspect_journal_summarizes_migration_state() {
    use vpart::prelude::{JournalRecord, MigrationJournal};

    // An in-flight journal: 1 of 3 batches committed, the second begun.
    let mut journal = MigrationJournal::new();
    journal
        .append(JournalRecord::Start {
            fingerprint: 0xFEED_BEEF,
            batches: 3,
            rows_per_fragment: 8,
        })
        .unwrap();
    journal
        .append(JournalRecord::BatchBegin { batch: 0 })
        .unwrap();
    journal
        .append(JournalRecord::BatchCommit {
            batch: 0,
            bytes: 64.0,
        })
        .unwrap();
    journal
        .append(JournalRecord::BatchBegin { batch: 1 })
        .unwrap();
    let path = scratch("inflight_journal.jsonl");
    std::fs::write(&path, journal.to_jsonl()).unwrap();

    let out = vpart(&["inspect", "--journal", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(rendered.contains("0x00000000feedbeef"), "{rendered}");
    assert!(rendered.contains("boundary         1"), "{rendered}");
    assert!(rendered.contains("bytes committed  64.0"), "{rendered}");
    assert!(rendered.contains("in flight (1 of 3"), "{rendered}");

    // Rolling the journal back flips the reported status.
    journal.append(JournalRecord::RollbackBegin).unwrap();
    journal
        .append(JournalRecord::UndoBegin { batch: 0 })
        .unwrap();
    journal
        .append(JournalRecord::UndoCommit {
            batch: 0,
            bytes: 16.0,
        })
        .unwrap();
    journal.append(JournalRecord::RolledBack).unwrap();
    std::fs::write(&path, journal.to_jsonl()).unwrap();
    let out = vpart(&["inspect", "--journal", path.to_str().unwrap()]);
    assert!(out.status.success());
    let rendered = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(rendered.contains("rolled back"), "{rendered}");
    assert!(rendered.contains("bytes undone     16.0"), "{rendered}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inspect_rejects_bad_usage_and_malformed_traces() {
    // No positional path.
    let out = vpart(&["inspect"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: vpart inspect"));

    // Missing file.
    let out = vpart(&["inspect", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Malformed line: the error names the position.
    let bad = scratch("bad.jsonl");
    std::fs::write(&bad, "{\"type\":\"span\"}\nnot json\n").unwrap();
    let out = vpart(&["inspect", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_file(&bad);
}
