//! End-to-end CLI: the online repartitioning loop through `vpart watch`.

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
fn watch_detects_drift_and_migrates_with_exact_meter() {
    let phases = format!("{},{}", data("queries.log"), data("queries_drifted.log"));
    let out = vpart(&[
        "watch",
        "--schema",
        &data("schema.sql"),
        "--log",
        &phases,
        "--sites",
        "3",
        "--lambda",
        "0.5",
        "--interval",
        "2",
        "--decay",
        "0.5",
        "--drift-threshold",
        "0.05",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let epochs: Vec<serde_json::Value> =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(epochs.len(), 4, "2 phases × 2 epochs");

    let field = |e: &serde_json::Value, path: &[&str]| -> Option<serde_json::Value> {
        let mut cur = e.clone();
        for key in path {
            cur = cur.get(key)?.clone();
        }
        Some(cur)
    };
    let phase = |e: &serde_json::Value| field(e, &["phase"]).unwrap().as_str().unwrap().to_owned();
    let triggered = |e: &serde_json::Value| field(e, &["triggered"]).unwrap().as_bool().unwrap();

    // Epoch 0 bootstraps cold.
    assert_eq!(
        field(&epochs[0], &["resolve", "cold"]).and_then(|v| v.as_bool()),
        Some(true)
    );

    // The steady phase never triggers; the drifted phase does at least
    // once, with a migration whose meter equals the estimate exactly.
    for e in &epochs[1..] {
        if phase(e).ends_with("queries.log") {
            assert!(!triggered(e), "steady epoch drifted");
        }
    }
    let drifted: Vec<&serde_json::Value> = epochs
        .iter()
        .filter(|e| phase(e).ends_with("queries_drifted.log") && triggered(e))
        .collect();
    assert!(!drifted.is_empty(), "the drifted phase must trigger");
    for e in &drifted {
        assert_eq!(
            field(e, &["resolve", "cold"]).and_then(|v| v.as_bool()),
            Some(false),
            "re-solves after bootstrap are warm"
        );
        let est = field(e, &["migration", "estimated_bytes"])
            .and_then(|v| v.as_f64())
            .expect("triggered epoch carries a migration");
        let meas = field(e, &["migration", "measured_bytes"])
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(est, meas, "engine meter == plan estimate, exactly");
        assert_eq!(
            field(e, &["migration", "meter_matches"]).and_then(|v| v.as_bool()),
            Some(true)
        );
        // The drifted re-fit actually moves data in this scenario.
        assert!(meas > 0.0);
    }
}

#[test]
fn watch_records_trace_metrics_and_epoch_timings() {
    let trace = std::env::temp_dir().join(format!("vpart_{}_watch.jsonl", std::process::id()));
    let metrics = std::env::temp_dir().join(format!("vpart_{}_watch.prom", std::process::id()));
    let phases = format!("{},{}", data("queries.log"), data("queries_drifted.log"));
    let out = vpart(&[
        "watch",
        "--schema",
        &data("schema.sql"),
        "--log",
        &phases,
        "--sites",
        "3",
        "--lambda",
        "0.5",
        "--interval",
        "2",
        "--drift-threshold",
        "0.05",
        "--json",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout is the pure JSON epoch array; file notices are stderr-only.
    let epochs: Vec<serde_json::Value> =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(epochs.len(), 4);
    for e in &epochs {
        assert!(e.get("epoch_wall_secs").unwrap().as_f64().unwrap() > 0.0);
        assert!(e.get("snapshot_attrs").unwrap().as_u64().unwrap() > 0);
    }

    // The trace round-trips: one watch_epoch span per epoch, and the
    // drifted phase's migration shows up in the summary byte meter.
    let summary =
        vpart::obs::TraceSummary::from_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert_eq!(summary.epochs.len(), 4);
    assert!(summary.migration_bytes > 0.0);
    // One `ingest` span per phase file, sized by the file it read.
    let phase_bytes: Vec<u64> = ["queries.log", "queries_drifted.log"]
        .iter()
        .map(|f| std::fs::metadata(data(f)).unwrap().len())
        .collect();
    let ingested: Vec<(u64, u64, u64)> = summary
        .ingests
        .iter()
        .map(|i| (i.statements, i.templates, i.log_bytes))
        .collect();
    assert_eq!(
        ingested,
        vec![(19, 11, phase_bytes[0]), (19, 11, phase_bytes[1])]
    );
    assert!(summary.ingests.iter().all(|i| i.shapes > 0));
    let inspected = vpart(&["inspect", trace.to_str().unwrap()]);
    assert!(inspected.status.success());
    let rendered = String::from_utf8_lossy(&inspected.stdout).into_owned();
    assert!(rendered.contains("ingest: 19 statements as"));
    assert!(rendered.contains("epoch timeline"));
    assert!(rendered.contains("total migrated:"));

    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("watch_epochs_total 4"));
    assert!(prom.contains("watch_drift_triggers_total"));
    assert!(prom.contains("engine_migration_bytes_total"));
    assert!(prom.contains("epoch_wall_seconds_count 4"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn watch_exits_degraded_when_migrations_keep_failing() {
    // Every migration batch crashes and --max-retries 0 means the first
    // failure already degrades the watcher; drift never recedes, so the
    // run ends degraded: exit code 1 with a diagnostic naming the mode.
    let phases = format!("{},{}", data("queries.log"), data("queries_drifted.log"));
    let out = vpart(&[
        "watch",
        "--schema",
        &data("schema.sql"),
        "--log",
        &phases,
        "--sites",
        "3",
        "--lambda",
        "0.5",
        "--interval",
        "2",
        "--decay",
        "0.5",
        "--drift-threshold",
        "0.05",
        "--max-retries",
        "0",
        "--fault",
        "migration.batch:prob=1.0",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1), "degraded watch must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("degraded"), "{stderr}");

    // The JSON epoch log is still emitted and records the failure path:
    // a rolled-back migration attempt, then degraded incumbent service.
    let epochs: Vec<serde_json::Value> =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(epochs.len(), 4);
    assert!(epochs
        .iter()
        .any(|e| e.get("degraded").unwrap().as_bool() == Some(true)));
    assert!(epochs.iter().any(|e| {
        e.get("veto")
            .and_then(|v| v.as_str())
            .is_some_and(|v| v.contains("rolled back"))
    }));
    assert!(
        epochs
            .iter()
            .all(|e| matches!(e.get("migration"), Some(serde_json::Value::Null))),
        "no migration may complete under an always-firing fault"
    );
}

#[test]
fn watch_retries_after_a_one_shot_migration_fault() {
    // A single injected crash rolls back, backs off one epoch, then the
    // retried migration completes with an exact meter — exit code 0.
    let phases = format!("{},{}", data("queries.log"), data("queries_drifted.log"));
    let out = vpart(&[
        "watch",
        "--schema",
        &data("schema.sql"),
        "--log",
        &phases,
        "--sites",
        "3",
        "--lambda",
        "0.5",
        "--interval",
        "4",
        "--decay",
        "0.5",
        "--drift-threshold",
        "0.05",
        "--fault",
        "migration.batch:once",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let epochs: Vec<serde_json::Value> =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    let failed: Vec<_> = epochs
        .iter()
        .filter(|e| {
            e.get("veto")
                .and_then(|v| v.as_str())
                .is_some_and(|v| v.contains("rolled back"))
        })
        .collect();
    assert_eq!(failed.len(), 1, "exactly one attempt crashes");
    let migrated: Vec<_> = epochs
        .iter()
        .filter(|e| !matches!(e.get("migration"), Some(serde_json::Value::Null)))
        .collect();
    assert!(
        !migrated.is_empty(),
        "the retried migration must land: {epochs:?}"
    );
    for e in &migrated {
        let m = e.get("migration").unwrap();
        assert_eq!(m.get("meter_matches").unwrap().as_bool(), Some(true));
        assert!(m.get("batches").unwrap().as_u64().unwrap() >= 1);
    }
}

#[test]
fn watch_window_mode_and_flag_validation() {
    let phases = data("queries.log");
    // Sliding-window decay runs end to end.
    let out = vpart(&[
        "watch",
        "--schema",
        &data("schema.sql"),
        "--log",
        &phases,
        "--sites",
        "2",
        "--window",
        "2",
        "--interval",
        "1",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let epochs: Vec<serde_json::Value> =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim()).unwrap();
    assert_eq!(epochs.len(), 1);

    // --decay and --window are mutually exclusive.
    let out = vpart(&[
        "watch",
        "--schema",
        &data("schema.sql"),
        "--log",
        &phases,
        "--decay",
        "0.5",
        "--window",
        "2",
    ]);
    assert!(!out.status.success());
    // A missing workload flag is reported.
    let out = vpart(&["watch", "--schema", &data("schema.sql")]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--log or --stats"));
}
