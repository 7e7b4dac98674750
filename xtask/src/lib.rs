//! Offline workspace lint engine (`cargo xtask lint`).
//!
//! A token-lite static analyzer enforcing the correctness discipline
//! this workspace has accumulated: no stray panics in library code,
//! justified atomic orderings, offline/vendor hygiene, deterministic
//! solver paths, and cheap-when-disabled observability. Each rule is
//! named, individually runnable (`--rule <name>`), and suppressable at
//! a single site with `// lint: allow(<rule>)`.
//!
//! The engine has no dependencies beyond the vendored `serde_json` shim
//! (for `--json` output) and never executes rustc: it scans source text
//! with [`scan`], which is enough for the line-anchored, comment-aware
//! checks the rules need.

pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

/// Where a file sits in the workspace, which determines which rules
/// apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` (excluding `src/bin`).
    LibSource,
    /// Binary sources: `src/bin/**` anywhere, or the workspace `src/`.
    BinSource,
    /// `tests/**` (integration tests).
    TestSource,
    /// `benches/**`.
    BenchSource,
    /// `examples/**`.
    ExampleSource,
    /// Vendored shims — exempt from all rules.
    Vendor,
    /// The lint engine itself — exempt (it names the forbidden tokens).
    Xtask,
}

/// A workspace source file with its scan results.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    pub kind: FileKind,
    /// The `crates/<name>` crate directory this file belongs to, if any.
    pub crate_dir: Option<String>,
    pub scanned: scan::Scanned,
}

/// The scanned workspace handed to every rule.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// All `Cargo.toml` manifests as (relative path, contents).
    pub manifests: Vec<(String, String)>,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token (0 = whole line).
    pub col: usize,
    pub message: String,
    /// The offending source line, for the rendered snippet.
    pub snippet: String,
    pub help: String,
}

impl Diagnostic {
    /// rustc-style rendering:
    /// ```text
    /// error[no_unwrap]: `.unwrap()` in library code
    ///   --> crates/core/src/solver.rs:42:13
    ///    |
    /// 42 |     let x = cfg.rows.unwrap();
    ///    |
    ///    = help: return a typed error, or suppress with `// lint: allow(no_unwrap)`
    /// ```
    pub fn render(&self) -> String {
        let lnum = self.line.to_string();
        let gutter = " ".repeat(lnum.len());
        let mut out = String::new();
        out.push_str(&format!("error[{}]: {}\n", self.rule, self.message));
        out.push_str(&format!(
            "  --> {}:{}:{}\n",
            self.file,
            self.line,
            self.col.max(1)
        ));
        out.push_str(&format!("{} |\n", gutter));
        out.push_str(&format!("{} | {}\n", lnum, self.snippet.trim_end()));
        out.push_str(&format!("{} |\n", gutter));
        if !self.help.is_empty() {
            out.push_str(&format!("{} = help: {}\n", gutter, self.help));
        }
        out
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "help": self.help,
        })
    }
}

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> (FileKind, Option<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let kind = if parts.first() == Some(&"vendor") {
        FileKind::Vendor
    } else if parts.first() == Some(&"xtask") {
        FileKind::Xtask
    } else if parts.contains(&"bin") && parts.contains(&"src") {
        FileKind::BinSource
    } else if parts.contains(&"tests") {
        FileKind::TestSource
    } else if parts.contains(&"benches") {
        FileKind::BenchSource
    } else if parts.contains(&"examples") {
        FileKind::ExampleSource
    } else if parts.first() == Some(&"crates") && parts.contains(&"src") {
        FileKind::LibSource
    } else if parts.first() == Some(&"src") {
        FileKind::BinSource
    } else {
        FileKind::TestSource // build scripts, stray files: treat leniently
    };
    let crate_dir = if parts.first() == Some(&"crates") && parts.len() > 1 {
        Some(format!("crates/{}", parts[1]))
    } else {
        None
    };
    (kind, crate_dir)
}

/// Walk the workspace, scan every `.rs` file, and collect manifests.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name == "Cargo.toml" {
                let rel = rel_path(root, &path);
                manifests.push((rel, std::fs::read_to_string(&path)?));
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                let (kind, crate_dir) = classify(&rel);
                let text = std::fs::read_to_string(&path)?;
                files.push(SourceFile {
                    rel,
                    kind,
                    crate_dir,
                    scanned: scan::scan(&text),
                });
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    manifests.sort();
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        manifests,
    })
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run all (or one) of the registered rules over a workspace.
pub fn lint(ws: &Workspace, only: Option<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules::all() {
        if let Some(name) = only {
            if rule.name() != name {
                continue;
            }
        }
        rule.check(ws, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Line counts of one crate (`crates/<name>`) or top-level directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocRow {
    /// The crate or top-level directory (`.` for files at the root).
    pub group: String,
    /// Lines of `.rs` files outside any `tests/` directory.
    pub src: usize,
    /// Lines of `.rs` files under a `tests/` directory.
    pub tests: usize,
}

/// Counts the lines of every `.rs` file the workspace walk scanned, one
/// row per crate or top-level directory, in path order.
pub fn loc(ws: &Workspace) -> Vec<LocRow> {
    let mut rows: Vec<LocRow> = Vec::new();
    for f in &ws.files {
        let group = match (&f.crate_dir, f.rel.split_once('/')) {
            (Some(dir), _) => dir.clone(),
            (None, Some((top, _))) => top.to_string(),
            (None, None) => ".".to_string(),
        };
        // Files come sorted by path, so each group's files are adjacent.
        if rows.last().is_none_or(|r| r.group != group) {
            rows.push(LocRow {
                group,
                ..LocRow::default()
            });
        }
        let row = rows.last_mut().expect("a row was just pushed");
        let lines = f.scanned.lines.len();
        if f.rel.split('/').any(|part| part == "tests") {
            row.tests += lines;
        } else {
            row.src += lines;
        }
    }
    rows
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
