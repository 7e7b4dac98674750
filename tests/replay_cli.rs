//! End-to-end CLI: the production-rate trace replay harness through
//! `vpart replay` — throughput + model-error reporting, thread-count
//! independence of the byte meters, partitioning-file loading and flag
//! validation.

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

fn json_stdout(out: &std::process::Output) -> serde_json::Value {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap().trim())
        .expect("stdout is one JSON object")
}

#[test]
fn replay_reports_throughput_and_bounded_model_error_on_tpcc() {
    let out = vpart(&[
        "replay",
        "--instance",
        "tpcc",
        "--sites",
        "3",
        "--threads",
        "2",
        "--txns",
        "200",
        "--rows",
        "64",
        "--error-bound",
        "0.15",
        "--json",
    ]);
    let v = json_stdout(&out);
    assert!(v.get("txns_per_sec").unwrap().as_f64().unwrap() > 0.0);
    let err = v.get("model_error_ratio").unwrap().as_f64().unwrap();
    assert!(
        err.is_finite() && err.abs() <= 0.15,
        "model error {err} out of bounds"
    );
    // Duration 0 (the default) is exactly one deterministic pass.
    assert_eq!(v.get("passes").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("txns_replayed").unwrap().as_u64(), Some(200));
    // The replayed stream feeds the online tracker.
    assert!(v.get("tracker_weight").unwrap().as_f64().unwrap() > 0.0);
    assert!(v.get("tracker_templates").unwrap().as_u64().unwrap() > 0);
}

/// Uniform rounds replay the cost model's own assumption (`f_q = 1`), so
/// on TPC-C's integer widths the measured bytes equal the prediction
/// exactly: the engine-agreement check of the CI step "Replay agreement".
#[test]
fn replay_rounds_agree_exactly_with_the_model_on_tpcc() {
    let args = [
        "replay",
        "--instance",
        "tpcc",
        "--sites",
        "2",
        "--rounds",
        "2",
        "--error-bound",
        "0",
    ];
    let out = vpart(&args);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    for line in [
        "bytes read              32412.0          32412",
        "bytes written           27896.0          27896",
        "bytes shipped             600.0            600",
        "objective (4)           65108.0        65108.0",
        "model error      +0.0000 overall",
        "single-sited     4/10 executions (40%)",
        "stored bytes     ",
    ] {
        assert!(text.contains(line), "missing {line:?} in\n{text}");
    }

    let v = json_stdout(&vpart(&[&args[..], &["--json"]].concat()));
    assert_eq!(v.get("model_error_ratio").unwrap().as_f64(), Some(0.0));
    assert_eq!(v.get("stream_len").unwrap().as_u64(), Some(10));
    assert_eq!(v.get("single_sited_executions").unwrap().as_u64(), Some(4));
    assert!(v.get("stored_bytes").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn simulate_is_an_unknown_command() {
    let out = vpart(&["simulate", "--instance", "tpcc", "--sites", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command \"simulate\""), "{stderr}");
}

#[test]
fn replay_meters_are_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = vpart(&[
            "replay",
            "--schema",
            &data("schema.sql"),
            "--log",
            &data("queries.log"),
            "--sites",
            "2",
            "--threads",
            threads,
            "--txns",
            "300",
            "--rows",
            "96",
            "--json",
        ]);
        json_stdout(&out)
    };
    let (one, four) = (run("1"), run("4"));
    assert_eq!(
        one.get("meter"),
        four.get("meter"),
        "byte meters must be bit-identical across --threads"
    );
    assert_ne!(one.get("threads"), four.get("threads"));
}

#[test]
fn replay_loads_a_solve_output_partitioning() {
    let solve = vpart(&["solve", "--instance", "tpcc", "--sites", "3", "--json"]);
    let solved = json_stdout(&solve);
    assert!(solved.get("partitioning").is_some());
    let path = std::env::temp_dir().join(format!("vpart_{}_solve.json", std::process::id()));
    std::fs::write(&path, solve.stdout).expect("solve output writes");

    let out = vpart(&[
        "replay",
        "--instance",
        "tpcc",
        "--sites",
        "3",
        "--partitioning",
        path.to_str().unwrap(),
        "--txns",
        "100",
        "--rows",
        "64",
        "--json",
    ]);
    let v = json_stdout(&out);
    assert_eq!(v.get("sites").unwrap().as_u64(), Some(3));
    assert!(v.get("txns_per_sec").unwrap().as_f64().unwrap() > 0.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_fault_injection_leaves_meters_bit_identical() {
    let run = |fault: Option<&str>| {
        let mut args = vec![
            "replay",
            "--instance",
            "tpcc",
            "--sites",
            "3",
            "--txns",
            "150",
            "--rows",
            "64",
            "--json",
        ];
        if let Some(spec) = fault {
            args.extend(["--fault", spec]);
        }
        json_stdout(&vpart(&args))
    };
    let clean = run(None);
    let injected = run(Some("replay.pass:nth=1"));
    assert_eq!(clean.get("passes_injected").unwrap().as_u64(), Some(0));
    assert_eq!(injected.get("passes_injected").unwrap().as_u64(), Some(1));
    assert_eq!(
        clean.get("meter"),
        injected.get("meter"),
        "a crashed-and-retried pass must not perturb the byte meters"
    );
}

#[test]
fn replay_skew_steers_rows_but_not_byte_totals() {
    let run = |skew: Option<&str>| {
        let mut args = vec![
            "replay",
            "--instance",
            "tpcc",
            "--sites",
            "3",
            "--txns",
            "150",
            "--rows",
            "64",
            "--json",
        ];
        if let Some(spec) = skew {
            args.extend(["--skew", spec]);
        }
        json_stdout(&vpart(&args))
    };
    let uniform = run(None);
    let zipf = run(Some("zipf:0.99"));
    // Reads touch whole-row widths, so totals are skew-independent …
    assert_eq!(uniform.get("measured"), zipf.get("measured"));
    // … but which rows were touched is not.
    assert_ne!(
        uniform.get("meter").unwrap().get("checksum"),
        zipf.get("meter").unwrap().get("checksum"),
        "zipf skew must steer the row touches"
    );
    // An explicit uniform spec is the default, bit for bit.
    let explicit = run(Some("uniform"));
    assert_eq!(uniform.get("meter"), explicit.get("meter"));
}

#[test]
fn replay_flag_validation() {
    // A negative duration is rejected.
    let out = vpart(&["replay", "--instance", "tpcc", "--duration", "-1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--duration"));
    // A malformed error bound is rejected.
    let out = vpart(&["replay", "--instance", "tpcc", "--error-bound", "abc"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--error-bound"));
    // A workload source is required.
    let out = vpart(&["replay", "--sites", "2"]);
    assert!(!out.status.success());
}
