//! End-to-end CLI: what `vpart solve --json` claims about its answer.

use std::process::Command;

/// The `optimal` field `vpart solve --json` prints on TPC-C at 4 sites
/// with the given extra flags.
fn optimal(extra: &[&str]) -> Option<bool> {
    let out = Command::new(env!("CARGO_BIN_EXE_vpart"))
        .args(["solve", "--instance", "tpcc", "--sites", "4", "--json"])
        .args(extra)
        .output()
        .expect("vpart binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json: serde_json::Value = serde_json::from_str(stdout.trim()).expect("JSON on stdout");
    json.get("optimal").and_then(|v| v.as_bool())
}

/// The exhaustive solver's `y` step does not price the load term, so at
/// the default λ = 0.9 its answer is not a proof; at λ = 1 it is.
#[test]
fn exact_claims_optimality_only_at_lambda_one() {
    assert_eq!(optimal(&["--algo", "exact"]), Some(false));
    assert_eq!(optimal(&["--algo", "exact", "--lambda", "1"]), Some(true));
}
