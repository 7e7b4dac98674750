//! Integration tests for the lint engine: every rule must fire on its
//! seeded fixture violations, every exemption (tests, doc comments,
//! strings, suppressions, out-of-scope files) must hold, and the real
//! workspace must be lint-clean.

use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn lint_fixture(rule: Option<&str>) -> Vec<xtask::Diagnostic> {
    let ws = xtask::load_workspace(&fixture_root()).expect("fixture workspace loads");
    xtask::lint(&ws, rule)
}

/// (file, line) pairs of a rule's findings, for exact-set assertions.
fn hits(diags: &[xtask::Diagnostic], rule: &str) -> Vec<(String, usize)> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.file.clone(), d.line))
        .collect()
}

#[test]
fn no_unwrap_fires_on_unwrap_and_weak_expects_only() {
    let diags = lint_fixture(None);
    assert_eq!(
        hits(&diags, "no_unwrap"),
        vec![
            ("crates/core/src/viol.rs".to_string(), 4),  // .unwrap()
            ("crates/core/src/viol.rs".to_string(), 8),  // short message
            ("crates/core/src/viol.rs".to_string(), 12), // non-literal
        ],
        "justified expects, suppressed sites, doc comments, string \
         literals and #[cfg(test)] modules must all be exempt"
    );
}

#[test]
fn no_panic_fires_on_panic_macros_but_not_asserts() {
    let diags = lint_fixture(None);
    assert_eq!(
        hits(&diags, "no_panic"),
        vec![
            ("crates/core/src/panics.rs".to_string(), 4),  // panic!
            ("crates/core/src/panics.rs".to_string(), 10), // unreachable!
        ],
        "suppressed todo!() and assert!/debug_assert! must be exempt"
    );
}

#[test]
fn atomic_ordering_requires_a_justification_comment() {
    let diags = lint_fixture(None);
    assert_eq!(
        hits(&diags, "atomic_ordering"),
        vec![("crates/core/src/atomics.rs".to_string(), 5)],
        "justified, suppressed, and cmp::Ordering sites must be exempt"
    );
}

#[test]
fn determinism_fires_on_wall_clock_and_entropy() {
    let diags = lint_fixture(None);
    assert_eq!(
        hits(&diags, "determinism"),
        vec![
            ("crates/core/src/rng.rs".to_string(), 4), // SystemTime::now
            ("crates/core/src/rng.rs".to_string(), 9), // thread_rng
        ],
        "the suppressed thread_rng site must be exempt"
    );
}

#[test]
fn vendor_shim_fires_on_net_process_and_dead_shims() {
    let diags = lint_fixture(None);
    assert_eq!(
        hits(&diags, "vendor_shim"),
        vec![
            ("Cargo.toml".to_string(), 1),               // dead `deadshim`
            ("crates/engine/src/net.rs".to_string(), 4), // std::net
            ("crates/engine/src/net.rs".to_string(), 8), // process::Command
        ],
        "integration tests may spawn processes; `usedshim` is consumed"
    );
}

#[test]
fn obs_discipline_fires_only_on_unguarded_loops() {
    let diags = lint_fixture(None);
    assert_eq!(
        hits(&diags, "obs_discipline"),
        vec![
            ("crates/core/src/obsloop.rs".to_string(), 13),
            ("crates/core/src/obsloop.rs".to_string(), 56),
            ("crates/core/src/obsloop.rs".to_string(), 71),
            ("crates/core/src/obsloop.rs".to_string(), 93),
        ],
        "guarded loops, suppressed sites, non-loop calls and non-obs \
         receivers (`jobs.`) must be exempt; the health layer's \
         store.sample / health.tick / alerts.evaluate entry points are \
         covered the same way"
    );
}

#[test]
fn rule_filter_runs_a_single_rule() {
    let diags = lint_fixture(Some("no_panic"));
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.rule == "no_panic"));
}

#[test]
fn diagnostics_render_rustc_style_and_as_json() {
    let diags = lint_fixture(None);
    let d = &diags[0];
    let text = d.render();
    assert!(text.starts_with(&format!("error[{}]:", d.rule)));
    assert!(text.contains(&format!("--> {}:{}:{}", d.file, d.line, d.col)));
    assert!(text.contains("= help:"));
    let j = d.to_json();
    assert_eq!(j.get("rule").and_then(|v| v.as_str()), Some(d.rule));
    assert_eq!(j.get("line").and_then(|v| v.as_u64()), Some(d.line as u64));
}

#[test]
fn every_rule_has_fixture_coverage() {
    let diags = lint_fixture(None);
    for rule in xtask::rules::all() {
        assert!(
            diags.iter().any(|d| d.rule == rule.name()),
            "rule `{}` found nothing in the fixtures — dead rule or broken fixture",
            rule.name()
        );
    }
}

#[test]
fn real_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits directly under the workspace root")
        .to_path_buf();
    let ws = xtask::load_workspace(&root).expect("workspace loads");
    let diags = xtask::lint(&ws, None);
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn loc_counts_each_crate_split_into_src_and_tests() {
    let ws = xtask::load_workspace(&fixture_root()).expect("fixture workspace loads");
    let rows: Vec<_> = xtask::loc(&ws)
        .into_iter()
        .map(|r| (r.group, r.src, r.tests))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("crates/core".to_string(), 187, 0),
            ("crates/engine".to_string(), 9, 6),
        ]
    );
}
