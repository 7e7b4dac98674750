//! Tiny-size run of every workload: every metric `BENCHMARK.json` names
//! is printed with its unit, in both modes, and no check fails.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| u[..u.find('"').expect("unit closes")].to_string())
                .unwrap_or_default();
            (name, unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vpart_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0.01",
            "--trace",
            trace,
            "--size",
            "tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let workloads = section(&json, "workloads");
    assert_eq!(workloads.len(), 3);
    for (workload, _) in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} --trace {trace}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            for (name, unit) in section(&json, key) {
                let want = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&want)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + want.len()..];
                assert!(
                    rest.contains(&format!("\"unit\": \"{unit}\"}}"))
                        && rest.find("\"unit\"") < rest.find('}'),
                    "{workload}: {name} is not in {unit}: {rest}"
                );
            }
        }
    }
}
