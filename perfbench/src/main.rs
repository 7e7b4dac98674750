//! End-to-end advisor benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpcc-pipeline|rnd-a64-pipeline|drift-watch> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! Every workload synthesizes its inputs from the seed, drives the
//! library's public entry points the way a user does, repeats the timed
//! part until `--seconds` have elapsed and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from in-memory spans) with `--trace 1`. See
//! `perfbench/README.md` for the metric → layer → workload map.

mod drift;
mod pipeline;
mod spans;
mod stats;
mod synth;

use std::process::ExitCode;
use std::time::Duration;

/// Seed of every solver configuration. The workload seed only shapes the
/// inputs; the advisor's own settings stay fixed.
pub const SOLVER_SEED: u64 = 1;
/// Worker threads for SA multi-start, replay and the watcher (`nproc` on
/// the 2-core reference box).
pub const THREADS: usize = 2;

/// Turns a library error into the benchmark's error string.
pub trait Context<T> {
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Unit of a per-layer metric (kept in step with `BENCHMARK.json`).
pub fn layer_unit(name: &str) -> &'static str {
    match name {
        "ingest.stmts_per_s" => "stmt/s",
        "sa.moves_per_s" => "move/s",
        "qp.nodes_per_s" => "node/s",
        "qp.pivots_per_s" => "pivot/s",
        "migrate.bytes_per_s" => "B/s",
        "replay.txns_per_s.t1" | "replay.txns_per_s.t2" => "txn/s",
        "replay.bytes_per_txn" | "replay.transfer_bytes_per_txn" => "B/txn",
        "migrate.bytes" | "journal.bytes" | "plan.peak_transient_bytes" => "B",
        "sa.accept_ratio" | "replay.scaling" | "replay.model_error" | "epoch.repair_share"
        | "qp.optimal" => "ratio",
        _ if name.ends_with(".us") || name.ends_with("_us") => "us",
        _ if name.ends_with(".ms") || name.ends_with("_ms") => "ms",
        _ if name.ends_with(".s") || name.ends_with("_s") => "s",
        _ => "count",
    }
}

/// Input scale: `full` for measurements, `tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    Tiny,
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub size: Size,
}

/// Correctness checks made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named metrics in output order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a workload run hands back.
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

struct Args {
    workload: String,
    run: RunConfig,
}

const USAGE: &str =
    "usage: vpart_perfbench --workload <tpcc-pipeline|rnd-a64-pipeline|drift-watch> \
     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut i = 0;
    while i < raw.len() {
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", raw[i]))?;
        match raw[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size must be full or tiny".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        run: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        },
    })
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("metric value {v} is not a finite number"))
    }
}

fn run() -> Result<(), String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let mut checks = Checks::default();
    let mut tracer = spans::Tracer::new(args.run.trace);
    let outcome = match args.workload.as_str() {
        "tpcc-pipeline" => pipeline::run(
            &pipeline::Spec::tpcc(args.run.size),
            &args.run,
            &mut tracer,
            &mut checks,
        )?,
        "rnd-a64-pipeline" => pipeline::run(
            &pipeline::Spec::rnd_a64(args.run.size),
            &args.run,
            &mut tracer,
            &mut checks,
        )?,
        "drift-watch" => drift::run(&args.run, &mut tracer, &mut checks)?,
        other => return Err(format!("unknown workload {other}\n{USAGE}")),
    };

    let mut metrics = if args.run.trace {
        let mut m = outcome.per_layer;
        m.put("fail_frac", checks.fail_frac(), "ratio");
        m
    } else {
        let mut m = outcome.end_to_end;
        m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
        m
    };
    if args.run.trace {
        let path = format!(
            "target/perfbench/{}-seed{}.spans.jsonl",
            args.workload, args.run.seed
        );
        tracer
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
        println!("spans written to {path}");
    }
    metrics.0.sort_by_key(|&(name, _, _)| name);

    println!(
        "workload {} seed {} seconds {} trace {} size {:?} available_parallelism {}",
        args.workload,
        args.run.seed,
        args.run.seconds.as_secs_f64(),
        u8::from(args.run.trace),
        args.run.size,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<30} {value:>18.6} {unit}");
    }
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    let body = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            Ok(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
