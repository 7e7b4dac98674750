//! `cargo xtask` — workspace automation entry point.
//!
//! Subcommands:
//!
//! * `lint [--json] [--rule <name>] [--root <path>]` — run the offline
//!   lint engine over the workspace. Exit code 1 when violations are
//!   found, 2 on usage/IO errors.
//! * `lint --list-rules` — print rule names and what they enforce.
//! * `loc [--json] [--root <path>]` — count the lines of the workspace's
//!   `.rs` files per crate or top-level directory, split into src and
//!   tests.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("loc") => cmd_loc(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown xtask `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [--json] [--rule <name>] [--root <path>]
                     run the workspace lint engine
  lint --list-rules  describe the available rules
  loc [--json] [--root <path>]
                     count .rs lines per crate or top-level directory
  help               show this message
";

/// The flags of every subcommand; `--rule` and `--list-rules` are lint's.
#[derive(Default)]
struct Flags {
    json: bool,
    list_rules: bool,
    rule: Option<String>,
    root: Option<String>,
}

/// Parses the flags of subcommand `cmd`. Usage errors are reported on
/// stderr and map to exit code 2.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, ExitCode> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().cloned().ok_or_else(|| {
                eprintln!("error: {a} needs a {what}");
                ExitCode::from(2)
            })
        };
        match (cmd, a.as_str()) {
            (_, "--json") => flags.json = true,
            (_, "--root") => flags.root = Some(value("path")?),
            ("lint", "--rule") => flags.rule = Some(value("rule name")?),
            ("lint", "--list-rules") => flags.list_rules = true,
            (_, other) => {
                eprintln!("error: unknown {cmd} flag `{other}`\n\n{USAGE}");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(flags)
}

/// Scans the workspace at `root`, or above the current directory when
/// `root` is `None`. Errors are reported on stderr and map to exit code 2.
fn workspace(root: Option<String>) -> Result<xtask::Workspace, ExitCode> {
    let root = match root {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir().map_err(|e| {
                eprintln!("error: cannot determine cwd: {e}");
                ExitCode::from(2)
            })?;
            xtask::find_root(&cwd).ok_or_else(|| {
                eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                ExitCode::from(2)
            })?
        }
    };
    xtask::load_workspace(&root).map_err(|e| {
        eprintln!("error: failed to read workspace at {}: {e}", root.display());
        ExitCode::from(2)
    })
}

/// Prints `report` as one line of JSON.
fn print_json(report: &serde_json::Value) -> Result<(), ExitCode> {
    let line = serde_json::to_string(report).map_err(|e| {
        eprintln!("error: failed to serialize report: {e}");
        ExitCode::from(2)
    })?;
    println!("{line}");
    Ok(())
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let flags = match parse_flags("lint", args) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    if flags.list_rules {
        for r in xtask::rules::all() {
            println!("{:<16} {}", r.name(), r.description());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &flags.rule {
        if !xtask::rules::all().iter().any(|r| r.name() == name) {
            eprintln!("error: no rule named `{name}` (try --list-rules)");
            return ExitCode::from(2);
        }
    }

    let ws = match workspace(flags.root) {
        Ok(ws) => ws,
        Err(code) => return code,
    };

    let diags = xtask::lint(&ws, flags.rule.as_deref());
    if flags.json {
        let arr: Vec<_> = diags.iter().map(|d| d.to_json()).collect();
        let report = serde_json::json!({
            "violations": arr,
            "count": diags.len() as u64,
            "files_scanned": ws.files.len() as u64,
        });
        if let Err(code) = print_json(&report) {
            return code;
        }
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        if diags.is_empty() {
            eprintln!(
                "lint: clean — {} files scanned, {} rules",
                ws.files.len(),
                xtask::rules::all().len()
            );
        } else {
            eprintln!("lint: {} violation(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_loc(args: &[String]) -> ExitCode {
    let result = parse_flags("loc", args).and_then(|flags| {
        let rows = xtask::loc(&workspace(flags.root)?);
        let mut total = xtask::LocRow::default();
        for r in &rows {
            (total.src, total.tests) = (total.src + r.src, total.tests + r.tests);
        }
        total.group = "total".to_string();
        if flags.json {
            let json = |r: &xtask::LocRow| {
                serde_json::json!({
                    "group": r.group,
                    "src": r.src as u64,
                    "tests": r.tests as u64,
                    "total": (r.src + r.tests) as u64,
                })
            };
            let groups: Vec<_> = rows.iter().map(json).collect();
            return print_json(&serde_json::json!({"groups": groups, "total": json(&total)}));
        }
        println!("{:<20} {:>8} {:>8} {:>8}", "", "src", "tests", "total");
        for r in rows.iter().chain([&total]) {
            let (group, src, tests) = (&r.group, r.src, r.tests);
            println!("{group:<20} {src:>8} {tests:>8} {:>8}", src + tests);
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
