//! `vpart` — command-line partitioning advisor.
//!
//! ```text
//! vpart list     [--json]
//! vpart solve    --instance tpcc --sites 3 [--algo qp|sa|exact] [--p 8]
//!                [--lambda 0.1] [--disjoint] [--seed 42] [--time-limit 60]
//!                [--layout] [--json]
//! vpart solve    --schema schema.sql --log queries.log --sites 2 ...
//! vpart ingest   --schema schema.sql --log queries.log [--out instance.json]
//! vpart replay   --instance tpcc --sites 3 [--partitioning part.json]
//!                [--threads 4] [--duration 1] [--txns 1000 | --rounds 2] [--rows 256]
//!                [--shards 32] [--skew zipf:0.99] [--fault replay.pass:nth=1]
//!                [--error-bound 0.15] [--json]
//! vpart watch    --schema schema.sql --log p1.log,p2.log --sites 2
//!                [--interval 2] [--decay 0.5 | --window 3]
//!                [--drift-threshold 0.05] [--rows 64] [--hysteresis 1]
//!                [--amortize-epochs 0] [--max-retries 3]
//!                [--migration-batch-bytes 4096] [--fault spec] [--json]
//! vpart inspect  trace.jsonl [--health health.json]
//! vpart inspect  --journal journal.jsonl [--health health.json]
//! vpart monitor  trace.jsonl [--follow] [--metrics health.json]
//!                [--rules rules.json] [--json]
//! ```
//!
//! Every command rejects a flag it does not read (see [`declared_flags`]).
//! `solve`, `replay` and `watch` take `--trace-out FILE` (structured
//! span/event trace, JSONL) and `--metrics-out FILE` (Prometheus-style
//! exposition);
//! `inspect` summarizes a recorded trace. `watch` and `replay` also take
//! the live-health flags `--health-out FILE` (time-series + alert
//! snapshot, rewritten each tick), `--alerts-exit` (exit non-zero while
//! a critical alert fires), `--rules FILE` (declarative alert rules
//! replacing the built-ins) and `--flight-dir DIR` (crash flight
//! recorder); `monitor` renders the health view of a recorded trace.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::process::ExitCode;
use vpart::core::{evaluate, CostConfig};
use vpart::ingest::{IngestOptions, StatsFormat};
use vpart::model::{report, Partitioning};
use vpart::obs::{AlertEvent, HealthMonitor, HealthSnapshot, TimeSeriesStore};
use vpart::prelude::*;
use vpart::Algorithm;

fn usage() -> &'static str {
    "vpart — vertical partitioning advisor for OLTP workloads\n\
     \n\
     USAGE:\n\
       vpart list     [--json]\n\
       vpart solve    --instance <name|file.json> --sites <k> [--algo qp|sa|exact]\n\
                      [--p <f>] [--lambda <f>] [--disjoint] [--seed <n>]\n\
                      [--restarts <n>] [--threads <n>] [--probe-levels <n>]\n\
                      [--time-limit <secs>] [--layout] [--json]\n\
                      [--trace-out <file.jsonl>] [--metrics-out <file.prom>]\n\
       vpart solve    --schema <ddl.sql> --log <queries.log> --sites <k> [...]\n\
       vpart solve    --schema <ddl.sql> --stats <dump> --stats-format <fmt> ...\n\
                      [--name <s>] [--text-width <bytes>] [--default-rows <n>]\n\
                      [--sample-rate <f>] [--confidence-min <n>] [--lenient]\n\
       vpart ingest   --schema <ddl.sql> (--log <queries.log> |\n\
                      --stats <dump> [--stats-format pgss-csv|pgss-json|perf-schema])\n\
                      [--out <file.json>] [--name <s>] [--text-width <bytes>]\n\
                      [--default-rows <n>] [--sample-rate <f>] [--confidence-min <n>]\n\
                      [--lenient] [--strict] [--json]\n\
       vpart replay   --instance <name|file.json> --sites <k>\n\
                      [--partitioning <part.json>] [--threads <n>] [--shards <n>]\n\
                      [--rows <n>] [--txns <n> | --rounds <n>] [--duration <secs>]\n\
                      [--seed <n>] [--skew uniform|zipf:<theta>|hotspot:<frac>]\n\
                      [--p <f>] [--lambda <f>] [--fault <point:trigger,...>]\n\
                      [--error-bound <f>] [--json]\n\
                      [--trace-out <file.jsonl>] [--metrics-out <file.prom>]\n\
                      [--health-out <file.json>] [--alerts-exit]\n\
                      [--rules <rules.json>] [--flight-dir <dir>]\n\
       vpart replay   --schema <ddl.sql> (--log <queries.log> | --stats <dump>\n\
                      [--stats-format <fmt>]) --sites <k> [--name <s>]\n\
                      [--text-width <bytes>] [--default-rows <n>] [--sample-rate <f>]\n\
                      [--confidence-min <n>] [--lenient] [...]\n\
       vpart watch    --schema <ddl.sql> (--log <p1,p2,...> | --stats <p1,p2,...>\n\
                      [--stats-format <fmt>]) --sites <k> [--interval <epochs>]\n\
                      [--decay <f> | --window <n>] [--drift-threshold <f>]\n\
                      [--p <f>] [--lambda <f>] [--seed <n>]\n\
                      [--rows <n>] [--restarts <n>] [--threads <n>]\n\
                      [--text-width <bytes>] [--default-rows <n>]\n\
                      [--sample-rate <f>] [--confidence-min <n>] [--lenient]\n\
                      [--hysteresis <epochs>] [--amortize-epochs <n>]\n\
                      [--max-retries <n>] [--migration-batch-bytes <B>]\n\
                      [--fault <point:trigger,...>] [--json]\n\
                      [--trace-out <file.jsonl>] [--metrics-out <file.prom>]\n\
                      [--health-out <file.json>] [--alerts-exit]\n\
                      [--rules <rules.json>] [--flight-dir <dir>]\n\
       vpart inspect  <trace.jsonl> [--health <health.json>] |\n\
                      --journal <journal.jsonl> [--health <health.json>] |\n\
                      --health <health.json>\n\
       vpart monitor  <trace.jsonl> [--follow] [--poll-ms <n>] [--max-polls <n>]\n\
                      [--metrics <health.json>] [--rules <rules.json>] [--json]\n\
     \n\
     Instances: `tpcc`, any rnd class name (e.g. rndAt8x15, rndBt16x100u50), a\n\
     JSON instance file, a SQL schema + query log via --schema/--log, or a\n\
     schema + statistics dump (pg_stat_statements CSV/JSON, MySQL\n\
     performance_schema digest CSV/TSV) via --schema/--stats\n\
     (`vpart ingest` converts either into the JSON form and prints a\n\
     per-statement ingestion report; see README \"Bring your own workload\").\n\
     --sample-rate scales sampled inputs up to population estimates;\n\
     --strict exits non-zero when any skip or low-confidence diagnostic\n\
     remains. Every command rejects a flag it does not read.\n\
     --restarts runs that many independent SA chains (seeds\n\
     seed..seed+n) over at most --threads OS threads and keeps the best;\n\
     results depend only on (seed, restarts), not on --threads, unless\n\
     a chain is cut off by --time-limit (flagged in the restart stats).\n\
     --probe-levels <n> races the chains portfolio-style: after n\n\
     temperature levels the dominated half is cut off.\n\
     `vpart replay` is the production-rate load harness: it deploys the\n\
     partitioning (from --partitioning — a solve-output or bare\n\
     partitioning JSON — or a fresh seeded SA solve) as sharded row-store\n\
     segments, replays a seeded stream of --txns weighted executions (or\n\
     --rounds uniform rounds) with --threads workers until --duration\n\
     elapses, and reports txns/sec plus the model error: true physical\n\
     bytes vs the cost model's prediction. Byte meters are bit-identical\n\
     across thread counts (fixed --shards row-range shards). The replayed\n\
     stream also feeds the online tracker (tracker weight in the output).\n\
     It also prints objective (4), the single-sited executions of one\n\
     pass and the bytes stored across sites.\n\
     --error-bound exits non-zero when |model error| exceeds the bound.\n\
     --skew picks the row-touch distribution inside each table\n\
     (uniform, zipf:<theta> with 0<theta<1, or hotspot:<frac> sending\n\
     1-frac of the traffic to the first frac of the rows); skew changes\n\
     which rows are touched (checksum) but not byte totals.\n\
     --fault arms deterministic fail points (comma-separated\n\
     `point:nth=N|prob=P|once` specs, seeded from --seed): replay.pass\n\
     crashes a pass (discarded and retried, meters bit-identical),\n\
     migration.batch / migration.rollback / watch.resolve crash the\n\
     watch loop's migration machinery (rolled back, retried with\n\
     backoff, degraded after --max-retries failures).\n\
     `vpart watch` replays comma-separated workload phases in epochs\n\
     (--interval epochs per phase) through the online repartitioning\n\
     loop: a streaming tracker (exponential --decay or a sliding\n\
     --window of epochs) snapshots the drifting mix, the incumbent is\n\
     re-scored each epoch, a warm re-solve runs when its objective-(6)\n\
     regression over a fresh bound exceeds --drift-threshold, and the\n\
     resulting migration plan is applied on a --rows rows/fragment\n\
     deployment whose byte meter must equal the plan estimate exactly.\n\
     Migrations are batched (--migration-batch-bytes caps the install\n\
     bytes per batch) through a write-ahead journal; re-solves wait for\n\
     --hysteresis consecutive triggered epochs, --amortize-epochs vetoes\n\
     plans whose movement cost exceeds the projected savings horizon,\n\
     and failed migrations roll back and retry with exponential backoff\n\
     until --max-retries is exhausted, after which the watcher serves\n\
     the incumbent in degraded mode (exit code 1 if still degraded at\n\
     the end of the run).\n\
     Live health (watch and replay): --health-out writes a combined\n\
     time-series + alert snapshot (JSON, rewritten each epoch/pass) from\n\
     a fixed-capacity sample ring ticked on the run's logical clock;\n\
     built-in rules watch SA acceptance collapse, model error out of\n\
     bound, degraded-mode entry and migration retry build-up, and\n\
     --rules <file> swaps in declarative JSON rules (threshold /\n\
     rate-of-change / absence with for_ticks hysteresis). --alerts-exit\n\
     exits non-zero while a critical alert is still firing.\n\
     --flight-dir arms the crash flight recorder: the last trace records\n\
     ride in a bounded ring and are dumped as flight_<point>.jsonl when\n\
     a fault point trips or the process panics. `vpart monitor` renders\n\
     the alert timeline of a recorded trace (bit-identical to the\n\
     snapshot's transition history), re-evaluates rules over the sample\n\
     ring (--metrics <health.json> or rebuilt from epoch spans), and\n\
     with --follow tails the trace file printing alert edges as they\n\
     land; `vpart inspect ... --health <file>` merges the snapshot's\n\
     degraded-epoch and alert history into the inspection report.\n\
     Observability: --trace-out records a structured span/event trace\n\
     (JSONL; per-chain annealing spans, per-epoch watch spans) and\n\
     --metrics-out a Prometheus-style text exposition (sa_moves_total,\n\
     sa_acceptance_ratio, solve_wall_seconds, watch_epochs_total,\n\
     engine_migration_bytes_total, ...). Both are off by default and\n\
     `vpart inspect <trace.jsonl>` renders a recorded trace as a\n\
     per-chain convergence table and an epoch timeline;\n\
     `vpart inspect --journal <file>` summarizes a migration journal\n\
     (boundary, byte meters, rollback state) and detects corruption\n\
     (checksum mismatch, truncation, illegal record sequences).\n\
     Defaults: p = 8 (paper), lambda = 0.9 (see CostConfig::lambda on the\n\
     paper's λ), algo = sa, restarts = 1, threads = 1,\n\
     stats-format = pgss-csv; watch: interval = 2, decay = 0.5,\n\
     drift-threshold = 0.05, rows = 64, restarts = 4, threads = 4,\n\
     hysteresis = 1, amortize-epochs = 0 (off), max-retries = 3,\n\
     migration-batch-bytes = unlimited; replay: threads = 4,\n\
     shards = 32, rows = 256, txns = 1000, duration = 0 (one\n\
     deterministic pass), seed = 42, skew = uniform."
}

/// The workload-ingestion flags of `vpart ingest`, shared by every command
/// that ingests a schema plus a query log or statistics dump.
const INGEST_FLAGS: &str =
    "schema log stats stats-format text-width default-rows sample-rate confidence-min lenient";
/// The trace and metrics outputs (`solve`, `replay`, `watch`).
const OBS_FLAGS: &str = "trace-out metrics-out";
/// The live-health flags (`replay`, `watch`).
const HEALTH_FLAGS: &str = "health-out alerts-exit rules flight-dir";

/// The flags `vpart <cmd>` reads; any other flag is an error. A flag a
/// command only probes (`solve` checks `--health-out` to switch on
/// observability) is not declared for it.
fn declared_flags(cmd: &str) -> Vec<&'static str> {
    let groups: &[&str] = match cmd {
        "list" => &["json"],
        "ingest" => &[INGEST_FLAGS, "name out strict json"],
        "solve" => &[
            INGEST_FLAGS,
            OBS_FLAGS,
            "name instance sites algo p lambda disjoint seed restarts threads probe-levels \
             time-limit layout json",
        ],
        "replay" => &[
            INGEST_FLAGS,
            OBS_FLAGS,
            HEALTH_FLAGS,
            "name instance sites partitioning threads shards rows txns rounds duration seed \
             skew p lambda fault error-bound json",
        ],
        // Each phase is named after its file, so watch reads no --name.
        "watch" => &[
            INGEST_FLAGS,
            OBS_FLAGS,
            HEALTH_FLAGS,
            "sites interval decay window drift-threshold p lambda seed rows restarts threads \
             hysteresis amortize-epochs max-retries migration-batch-bytes fault json",
        ],
        "inspect" => &["health journal"],
        "monitor" => &["follow poll-ms max-polls metrics rules json"],
        _ => &[],
    };
    groups.iter().flat_map(|g| g.split_whitespace()).collect()
}

/// The error for a flag `vpart <cmd>` does not read, naming the closest
/// declared flag when one is near.
fn unknown_flag(cmd: &str, key: &str, declared: &[&str]) -> String {
    let hint = declared
        .iter()
        .map(|&f| (edit_distance(key, f), f))
        .filter(|&(d, f)| d <= 2 || key.starts_with(f) || f.starts_with(key))
        .min()
        .map(|(_, f)| format!(" (did you mean --{f}?)"))
        .unwrap_or_default();
    format!("unknown flag --{key} for vpart {cmd}{hint}")
}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (diag + usize::from(ca != cb)).min(row[j] + 1).min(up + 1);
            diag = up;
        }
    }
    row[b.len()]
}

fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let declared = declared_flags(cmd);
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", args[i]))?;
        if !declared.contains(&key) {
            return Err(unknown_flag(cmd, key, &declared));
        }
        match key {
            "disjoint" | "layout" | "json" | "lenient" | "strict" | "follow" | "alerts-exit" => {
                flags.insert(key.to_owned(), "true".to_owned());
                i += 1;
            }
            _ => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_owned(), value.clone());
                i += 2;
            }
        }
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: {v:?}")),
    }
}

fn ingest_options(flags: &HashMap<String, String>) -> Result<IngestOptions, String> {
    let defaults = IngestOptions::default();
    let mut opts = IngestOptions::default()
        .with_text_width(get(flags, "text-width", defaults.text_width)?)
        .with_default_rows(get(flags, "default-rows", defaults.default_rows)?)
        .with_sample_rate(get(flags, "sample-rate", defaults.sample_rate)?)
        .with_confidence_min_calls(get(flags, "confidence-min", defaults.confidence_min_calls)?);
    if let Some(name) = flags.get("name") {
        opts = opts.with_name(name.clone());
    }
    if flags.contains_key("lenient") {
        opts = opts.lenient();
    }
    Ok(opts)
}

/// Ingests `--schema` plus either `--log` or `--stats`/`--stats-format`
/// per the shared flag conventions (the name defaults to the schema path;
/// `--lenient`/`--text-width`/`--sample-rate` apply).
fn run_ingest(
    flags: &HashMap<String, String>,
    obs: &Obs,
) -> Result<vpart::ingest::Ingestion, String> {
    let schema_path = flags
        .get("schema")
        .ok_or_else(|| "--schema is required".to_owned())?;
    let schema_sql = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let mut opts = ingest_options(flags)?;
    if !flags.contains_key("name") {
        opts = opts.with_name(schema_path.clone());
    }
    let path = match (flags.get("log"), flags.get("stats")) {
        (Some(_), Some(_)) => return Err("--log and --stats are mutually exclusive".to_owned()),
        (Some(path), None) | (None, Some(path)) => path,
        (None, None) => return Err("--schema also needs --log or --stats".to_owned()),
    };
    let format = stats_format(flags)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    traced_ingest(obs, &schema_sql, &text, format, &opts).map_err(|e| e.to_string())
}

/// The `--stats-format` of a `--stats` run (`None` for `--log`).
fn stats_format(flags: &HashMap<String, String>) -> Result<Option<StatsFormat>, String> {
    if !flags.contains_key("stats") {
        return Ok(None);
    }
    match flags.get("stats-format").map(String::as_str) {
        None => Ok(Some(StatsFormat::PgssCsv)),
        Some(name) => StatsFormat::parse(name).map(Some).ok_or_else(|| {
            format!("unknown --stats-format {name:?} (pgss-csv|pgss-json|perf-schema)")
        }),
    }
}

/// Ingests a query log (`format` = `None`) or a statistics dump inside an
/// `ingest` trace span carrying the statements seen, the statement shapes
/// parsed, the templates built and the input's size in bytes.
fn traced_ingest(
    obs: &Obs,
    schema_sql: &str,
    text: &str,
    format: Option<StatsFormat>,
    opts: &IngestOptions,
) -> Result<vpart::ingest::Ingestion, vpart::ingest::IngestError> {
    let span = obs.span_begin("ingest", &[]);
    let out = match format {
        None => vpart::ingest::ingest(schema_sql, text, opts),
        Some(format) => vpart::ingest::ingest_stats(schema_sql, text, format, opts),
    };
    let (statements, shapes, templates) = out.as_ref().map_or((0, 0, 0), |o| {
        (
            o.report.statements_seen,
            o.report.statement_shapes,
            o.report.txns,
        )
    });
    obs.span_end(
        span,
        &[
            ("statements", statements.into()),
            ("shapes", shapes.into()),
            ("templates", templates.into()),
            ("log_bytes", text.len().into()),
        ],
    );
    out
}

/// Ingests for `solve`, printing the loss/confidence report to stderr.
fn ingest_from_flags(flags: &HashMap<String, String>, obs: &Obs) -> Result<Instance, String> {
    let out = run_ingest(flags, obs)?;
    if !out.report.is_lossless() || out.report.has_diagnostics() {
        eprint!("{}", out.report);
    }
    Ok(out.instance)
}

/// The `--instance` catalog name or file, or the `--schema` ingestion
/// (traced on `obs`).
fn load_instance(flags: &HashMap<String, String>, obs: &Obs) -> Result<Instance, String> {
    if flags.contains_key("schema") {
        return ingest_from_flags(flags, obs);
    }
    let name = flags
        .get("instance")
        .ok_or_else(|| "--instance (or --schema/--log) is required".to_owned())?;
    if let Some(ins) = vpart::instances::by_name(name) {
        return Ok(ins);
    }
    // Fall back to an instance JSON file (the `vpart ingest --out` format).
    if std::path::Path::new(name).exists() {
        let json = std::fs::read_to_string(name).map_err(|e| format!("cannot read {name}: {e}"))?;
        return serde_json::from_str(&json)
            .map_err(|e| format!("{name} is not a valid instance file: {e}"));
    }
    Err(format!(
        "unknown instance {name:?} (not a catalog name, not a file); try `vpart list`"
    ))
}

/// An enabled [`Obs`] handle when any observability sink was requested
/// (`--trace-out`, `--metrics-out`, `--health-out`, `--alerts-exit`,
/// `--rules`, `--flight-dir`), else the inert disabled handle (zero
/// hot-path cost).
fn obs_from_flags(flags: &HashMap<String, String>) -> Obs {
    let sinks = [
        "trace-out",
        "metrics-out",
        "health-out",
        "alerts-exit",
        "rules",
        "flight-dir",
    ];
    if sinks.iter().any(|k| flags.contains_key(*k)) {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// A [`HealthMonitor`] when a health flag (`--health-out`,
/// `--alerts-exit`, `--rules`) was given. `--rules FILE` replaces the
/// built-in rule set with declarative rules parsed from JSON.
fn health_from_flags(flags: &HashMap<String, String>) -> Result<Option<HealthMonitor>, String> {
    let wanted = ["health-out", "alerts-exit", "rules"];
    if !wanted.iter().any(|k| flags.contains_key(*k)) {
        return Ok(None);
    }
    let monitor = match flags.get("rules") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let rules = vpart::obs::rules_from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            HealthMonitor::new(vpart::obs::DEFAULT_HEALTH_CAPACITY, rules)?
        }
        None => HealthMonitor::with_builtin_rules(vpart::obs::DEFAULT_HEALTH_CAPACITY),
    };
    Ok(Some(monitor))
}

/// Arms the crash flight recorder when `--flight-dir` was given: the
/// most recent trace records ride in a bounded in-memory ring and are
/// dumped as `<dir>/flight_<point>.jsonl` when a fault point trips or
/// the process panics.
fn arm_flight_from_flags(obs: &Obs, flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(dir) = flags.get("flight-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        obs.arm_flight(
            std::path::Path::new(dir),
            vpart::obs::DEFAULT_FLIGHT_CAPACITY,
        );
        obs.install_flight_panic_hook();
    }
    Ok(())
}

/// Writes the `--health-out` snapshot. Called once per tick so the file
/// on disk is fresh even if the run dies mid-way.
fn write_health_snapshot(
    health: Option<&HealthMonitor>,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    if let (Some(path), Some(h)) = (flags.get("health-out"), health) {
        h.write_snapshot(std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// The `--alerts-exit` gate: non-zero exit when any critical rule is
/// still firing at the end of the run.
fn alerts_exit_check(
    health: Option<&HealthMonitor>,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    if !flags.contains_key("alerts-exit") {
        return Ok(());
    }
    let Some(h) = health else {
        return Ok(());
    };
    if h.any_critical_firing() {
        let rules: Vec<String> = h
            .alerts()
            .firing()
            .iter()
            .filter(|(r, _)| r.severity == vpart::obs::Severity::Critical)
            .map(|(r, since)| format!("{} (since tick {since})", r.name))
            .collect();
        return Err(format!(
            "--alerts-exit: critical alert(s) still firing: {}",
            rules.join(", ")
        ));
    }
    Ok(())
}

/// Writes the recorded trace / metrics exposition to the `--trace-out` /
/// `--metrics-out` paths. Notices go to stderr so `--json` stdout stays
/// machine-parseable.
fn write_obs_outputs(obs: &Obs, flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("trace-out") {
        obs.write_trace(std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote trace {path}");
    }
    if let Some(path) = flags.get("metrics-out") {
        obs.write_metrics(std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics {path}");
    }
    Ok(())
}

fn cost_config(flags: &HashMap<String, String>) -> Result<CostConfig, String> {
    let cfg = CostConfig::default()
        .with_p(get(flags, "p", 8.0)?)
        .with_lambda(get(flags, "lambda", 0.9)?);
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn cmd_list(flags: HashMap<String, String>) -> Result<(), String> {
    if flags.contains_key("json") {
        let entries: Vec<serde_json::Value> = vpart::instances::names()
            .into_iter()
            .map(|name| {
                let ins = vpart::instances::by_name(name).expect("catalog name resolves");
                serde_json::json!({
                    "name": name,
                    "attrs": ins.n_attrs(),
                    "txns": ins.n_txns(),
                    "tables": ins.n_tables(),
                })
            })
            .collect();
        println!("{}", serde_json::Value::Array(entries));
        return Ok(());
    }
    println!("available instances:");
    for name in vpart::instances::names() {
        let ins = vpart::instances::by_name(name).expect("catalog name resolves");
        println!(
            "  {name:<16} |A| = {:<5} |T| = {:<4} tables = {}",
            ins.n_attrs(),
            ins.n_txns(),
            ins.n_tables()
        );
    }
    Ok(())
}

fn cmd_ingest(flags: HashMap<String, String>) -> Result<(), String> {
    let out = run_ingest(&flags, &Obs::disabled())?;
    let json = serde_json::to_string_pretty(&out.instance).map_err(|e| e.to_string())?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if flags.contains_key("json") {
        let r = &out.report;
        let confidence: Vec<serde_json::Value> = r
            .confidence
            .iter()
            .map(|c| {
                serde_json::json!({
                    "txn": c.txn,
                    "observed": c.observed,
                    "scaled": c.scaled,
                    "low": c.level == vpart::ingest::ConfidenceLevel::LowConfidence,
                })
            })
            .collect();
        eprintln!(
            "{}",
            serde_json::json!({
                "tables": r.tables,
                "attrs": r.attrs,
                "txns": r.txns,
                "queries": r.queries,
                "statements_seen": r.statements_seen,
                "statements_ingested": r.statements_ingested,
                "txn_occurrences": r.txn_occurrences,
                "statement_shapes": r.statement_shapes,
                "skipped": r.skipped.len(),
                "width_fallbacks": r.width_fallbacks.len(),
                "row_estimates": r.row_estimates.len(),
                "row_guesses": r.row_estimates.iter().filter(|e| !e.pk_equality).count(),
                "lossless": r.is_lossless(),
                "sample_rate": r.sample_rate,
                "confidence": serde_json::Value::Array(confidence),
                "low_confidence": r.low_confidence().count(),
            })
        );
    } else {
        eprint!("{}", out.report);
    }
    if flags.contains_key("strict") && out.report.has_diagnostics() {
        return Err(format!(
            "--strict: ingestion left {} skipped statement(s) and {} low-confidence \
             template(s)",
            out.report.skipped.len(),
            out.report.low_confidence().count()
        ));
    }
    Ok(())
}

fn cmd_solve(flags: HashMap<String, String>) -> Result<(), String> {
    let obs = obs_from_flags(&flags);
    let ins = load_instance(&flags, &obs)?;
    let sites: usize = get(&flags, "sites", 2)?;
    let cost = cost_config(&flags)?;
    let seed: u64 = get(&flags, "seed", 0xC0FFEE)?;
    let time_limit: f64 = get(&flags, "time-limit", 300.0)?;
    if time_limit.is_nan() || time_limit <= 0.0 || !time_limit.is_finite() {
        return Err(format!(
            "--time-limit must be a positive number of seconds, got {time_limit}"
        ));
    }
    let restarts: usize = get(&flags, "restarts", 1)?;
    let threads: usize = get(&flags, "threads", 1)?;
    let probe_levels: usize = get(&flags, "probe-levels", 0)?;
    let algo_name = flags.get("algo").map(String::as_str).unwrap_or("sa");
    let disjoint = flags.contains_key("disjoint");

    let algorithm = match algo_name {
        "qp" => {
            let mut qc = QpConfig::with_time_limit(time_limit);
            if disjoint {
                qc = qc.disjoint();
            }
            qc.obs = obs.clone();
            Algorithm::Qp(qc)
        }
        "sa" => {
            if disjoint {
                return Err("--disjoint requires --algo qp".into());
            }
            Algorithm::Sa(SaConfig {
                seed,
                time_limit: std::time::Duration::from_secs_f64(time_limit),
                restarts,
                threads,
                probe_levels: (probe_levels > 0).then_some(probe_levels),
                obs: obs.clone(),
                ..Default::default()
            })
        }
        // The exhaustive solver is tiny-instance ground truth; it stays
        // uninstrumented and --trace-out records an empty trace for it.
        "exact" => Algorithm::Exact(ExactConfig::default()),
        other => return Err(format!("unknown algorithm {other:?} (qp|sa|exact)")),
    };

    let single = Partitioning::single_site(&ins, 1).map_err(|e| e.to_string())?;
    let baseline = evaluate(&ins, &single, &cost).objective4;
    let r = vpart::solve(&ins, sites, &algorithm, &cost).map_err(|e| e.to_string())?;
    write_obs_outputs(&obs, &flags)?;

    if flags.contains_key("json") {
        let restart_stats: Vec<serde_json::Value> = r
            .restarts
            .iter()
            .map(|s| {
                serde_json::json!({
                    "restart": s.restart,
                    "seed": s.seed,
                    "objective6": s.objective6,
                    "objective4": s.objective4,
                    "levels": s.levels,
                    "iterations": s.iterations,
                    "accepted_moves": s.accepted,
                    "rejected_moves": s.rejected,
                    "resyncs": s.resyncs,
                    "mean_abs_delta": s.mean_abs_delta,
                    "elapsed_secs": s.elapsed.as_secs_f64(),
                    "timed_out": s.timed_out,
                    "cut_off": s.cut_off,
                    "winner": s.winner,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::json!({
                "instance": ins.name(),
                "sites": sites,
                "algorithm": algo_name,
                "cost": r.breakdown.objective4,
                "baseline_single_site": baseline,
                "reduction": 1.0 - r.breakdown.objective4 / baseline,
                "read": r.breakdown.read,
                "write": r.breakdown.write,
                "transfer": r.breakdown.transfer,
                "max_site_work": r.breakdown.max_work,
                "optimal": r.is_optimal(),
                "elapsed_secs": r.elapsed.as_secs_f64(),
                "restarts": serde_json::Value::Array(restart_stats),
                "partitioning": r.partitioning,
            })
        );
        return Ok(());
    }

    println!("instance        {}", ins.name());
    println!("sites           {sites}");
    println!("algorithm       {algo_name} ({})", r.detail);
    println!("cost (obj 4)    {:.1}", r.breakdown.objective4);
    println!("  read          {:.1}", r.breakdown.read);
    println!("  write         {:.1}", r.breakdown.write);
    println!(
        "  transfer      {:.1} (p = {})",
        r.breakdown.transfer, cost.p
    );
    println!("max site work   {:.1}", r.breakdown.max_work);
    println!("single site     {baseline:.1}");
    println!(
        "reduction       {:.1}%{}",
        (1.0 - r.breakdown.objective4 / baseline) * 100.0,
        if r.is_optimal() {
            " (proven optimal)"
        } else {
            ""
        }
    );
    println!("elapsed         {:.2?}", r.elapsed);
    if r.restarts.len() > 1 {
        println!(
            "restarts        (best of {}, per-chain budget)",
            r.restarts.len()
        );
        for s in &r.restarts {
            println!(
                "  #{:<2} seed {:<12} obj6 {:>14.1}  {:>7} iters  {:.2?}{}{}",
                s.restart,
                s.seed,
                s.objective6,
                s.iterations,
                s.elapsed,
                if s.timed_out {
                    "  [timed out]"
                } else if s.cut_off {
                    "  [cut at probe]"
                } else {
                    ""
                },
                if s.winner { "  <- winner" } else { "" }
            );
        }
    }
    if flags.contains_key("layout") {
        println!("\n{}", report::render_partitioning(&ins, &r.partitioning));
    } else {
        println!("\n{}", report::render_summary(&ins, &r.partitioning));
    }
    Ok(())
}

/// Loads `--partitioning`: either a bare [`Partitioning`] JSON or a
/// `vpart solve --json` output (its `partitioning` field).
fn load_partitioning(path: &str, ins: &Instance) -> Result<Partitioning, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&json).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let inner = match value.get("partitioning") {
        Some(p) => p.clone(),
        None => value,
    };
    let part: Partitioning = serde_json::from_value(&inner)
        .map_err(|e| format!("{path} holds no partitioning (bare or under `partitioning`): {e}"))?;
    part.validate(ins, false)
        .map_err(|e| format!("{path} does not fit this instance: {e}"))?;
    Ok(part)
}

fn cmd_replay(flags: HashMap<String, String>) -> Result<(), String> {
    use vpart::core::cost::latency::psi;
    use vpart::core::predicted_txn_bytes;
    use vpart::engine::{
        FaultInjector, PredictedBytes, ReplayConfig, ReplayDeployment, ReplayStream, RowSkew,
    };
    use vpart::online::{OnlineWorkload, TrackerConfig};

    let obs = obs_from_flags(&flags);
    let ins = load_instance(&flags, &obs)?;
    let sites: usize = get(&flags, "sites", 2)?;
    let seed: u64 = get(&flags, "seed", 42)?;
    let threads: usize = get(&flags, "threads", 4)?;
    let shards: usize = get(&flags, "shards", 32)?;
    let rows: usize = get(&flags, "rows", 256)?;
    let txns: usize = get(&flags, "txns", 1000)?;
    let duration: f64 = get(&flags, "duration", 0.0)?;
    if !duration.is_finite() || duration < 0.0 {
        return Err(format!(
            "--duration must be a non-negative number of seconds, got {duration}"
        ));
    }
    let skew = match flags.get("skew") {
        Some(spec) => RowSkew::parse(spec).map_err(|e| e.to_string())?,
        None => RowSkew::Uniform,
    };
    let mut faults = FaultInjector::new(seed);
    if let Some(specs) = flags.get("fault") {
        faults.arm_specs(specs).map_err(|e| e.to_string())?;
    }
    let cost = cost_config(&flags)?;

    let part = match flags.get("partitioning") {
        Some(path) => load_partitioning(path, &ins)?,
        None => {
            SaSolver::new(SaConfig {
                seed,
                ..Default::default()
            })
            .solve(&ins, sites, &cost)
            .map_err(|e| e.to_string())?
            .partitioning
        }
    };

    let stream = match flags.get("rounds") {
        Some(_) => ReplayStream::uniform(&ins, get(&flags, "rounds", 1)?, seed),
        None => ReplayStream::weighted(&ins, txns, seed),
    };

    // The cost model's prediction for one pass of this stream.
    let per_txn = predicted_txn_bytes(&ins, &part, &cost);
    let counts = stream.counts(ins.n_txns());
    let mut predicted = PredictedBytes::default();
    for (t, &c) in counts.iter().enumerate() {
        predicted.read += c as f64 * per_txn[t].read;
        predicted.written += c as f64 * per_txn[t].written;
        predicted.transferred += c as f64 * per_txn[t].transferred;
    }

    // An execution is single-sited when none of its queries has Appendix
    // A's ψ = 1 (a write touching a replica off the home site). The
    // engine meters bytes, not executions, so replay counts them here.
    let single_sited = |t: usize| {
        let txn = ins.workload().txn(TxnId::from_index(t));
        txn.queries.iter().all(|&q| !psi(&ins, &part, q))
    };
    let single_sited_executions: usize = (0..counts.len())
        .filter(|&t| single_sited(t))
        .map(|t| counts[t])
        .sum();

    let mut dep = ReplayDeployment::new(&ins, &part, rows, shards).map_err(|e| e.to_string())?;
    dep = dep.with_obs(obs.clone());
    if let Some(monitor) = health_from_flags(&flags)? {
        dep = dep.with_health(monitor);
    }
    arm_flight_from_flags(&obs, &flags)?;
    let report = dep
        .replay(
            &stream,
            &ReplayConfig {
                threads,
                min_duration: std::time::Duration::from_secs_f64(duration),
                max_passes: usize::MAX,
                skew,
                faults,
            },
            Some(&predicted),
        )
        .map_err(|e| e.to_string())?;

    // Feed the replayed stream back through the online tracker, the
    // watch loop's engine-speed observation path.
    let mut tracker =
        OnlineWorkload::from_instance(&ins, TrackerConfig::default()).map_err(|e| e.to_string())?;
    let tracker_weight = tracker
        .observe_replay(&ins, &stream.executions)
        .map_err(|e| e.to_string())?;

    write_obs_outputs(&obs, &flags)?;
    write_health_snapshot(dep.health(), &flags)?;
    if let Some(path) = flags.get("health-out") {
        eprintln!("wrote health snapshot {path}");
    }

    let me = report
        .model_error
        .as_ref()
        .ok_or_else(|| "replay always carries a prediction here".to_owned())?;
    let totals = report.totals();
    let objective4 = |b: &PredictedBytes| b.read + b.written + cost.p * b.transferred;
    if flags.contains_key("json") {
        let per_site: Vec<serde_json::Value> = report
            .per_site
            .iter()
            .map(|s| serde_json::json!({"bytes_read": s.bytes_read, "bytes_written": s.bytes_written}))
            .collect();
        let predicted_json = serde_json::json!({
            "read": me.predicted.read,
            "written": me.predicted.written,
            "transferred": me.predicted.transferred,
        });
        let measured_json = serde_json::json!({
            "read": me.measured.read,
            "written": me.measured.written,
            "transferred": me.measured.transferred,
        });
        let error_json = serde_json::json!({
            "read": me.read_ratio,
            "write": me.write_ratio,
            "transfer": me.transfer_ratio,
            "overall": me.overall_ratio,
        });
        // The thread-count-invariant meter block: byte-compare this
        // across `--threads` values to assert determinism.
        let meter_json = serde_json::json!({
            "per_site": serde_json::Value::Array(per_site),
            "transfer_bytes": report.transfer_bytes,
            "rows_read": report.rows_read,
            "rows_written": report.rows_written,
            "stream_len": report.stream_len,
            "checksum": report.checksum,
        });
        println!(
            "{}",
            serde_json::json!({
                "instance": ins.name(),
                "sites": part.n_sites(),
                "threads": report.threads,
                "shards": report.shards,
                "rows_per_table": rows,
                "stream_len": report.stream_len,
                "seed": seed,
                "passes": report.passes,
                "passes_injected": report.passes_injected,
                "txns_replayed": report.txns_replayed,
                "elapsed_secs": report.elapsed.as_secs_f64(),
                "txns_per_sec": report.throughput_txns_per_sec(),
                "predicted": predicted_json,
                "measured": measured_json,
                "model_error_ratio": me.overall_ratio,
                "model_error": error_json,
                "meter": meter_json,
                "single_sited_executions": single_sited_executions,
                "stored_bytes": dep.stored_bytes(),
                "tracker_weight": tracker_weight,
                "tracker_templates": tracker.n_templates(),
            })
        );
    } else {
        println!(
            "instance {} on {} sites: {} executions/pass, {} pass(es), {} threads, {} shards",
            ins.name(),
            part.n_sites(),
            report.stream_len,
            report.passes,
            report.threads,
            report.shards
        );
        println!(
            "throughput       {:>14.0} txns/sec ({} txns in {:.3?})",
            report.throughput_txns_per_sec(),
            report.txns_replayed,
            report.elapsed
        );
        println!("                 {:>14} {:>14}", "predicted", "measured");
        println!(
            "bytes read       {:>14.1} {:>14}",
            me.predicted.read, totals.bytes_read
        );
        println!(
            "bytes written    {:>14.1} {:>14}",
            me.predicted.written, totals.bytes_written
        );
        println!(
            "bytes shipped    {:>14.1} {:>14}",
            me.predicted.transferred, report.transfer_bytes
        );
        println!(
            "objective (4)    {:>14.1} {:>14.1}",
            objective4(&me.predicted),
            objective4(&me.measured)
        );
        println!(
            "model error      {:+.4} overall (read {:+.4}, write {:+.4}, transfer {:+.4})",
            me.overall_ratio, me.read_ratio, me.write_ratio, me.transfer_ratio
        );
        println!(
            "single-sited     {single_sited_executions}/{} executions ({:.0}%)",
            report.stream_len,
            100.0 * single_sited_executions as f64 / report.stream_len as f64
        );
        println!("stored bytes     {} across sites", dep.stored_bytes());
        println!(
            "rows touched     {} read, {} written; checksum {:#018x}",
            report.rows_read, report.rows_written, report.checksum
        );
        if report.passes_injected > 0 {
            println!(
                "faults           {} injected pass(es) discarded and retried",
                report.passes_injected
            );
        }
        println!(
            "tracker          {} templates fed, total weight {:.1}",
            tracker.n_templates(),
            tracker_weight
        );
    }

    if let Some(bound) = flags.get("error-bound") {
        let bound: f64 = bound
            .parse()
            .map_err(|_| format!("invalid value for --error-bound: {bound:?}"))?;
        if !me.overall_ratio.is_finite() || me.overall_ratio.abs() > bound {
            return Err(format!(
                "model error {:+.4} exceeds --error-bound {bound}",
                me.overall_ratio
            ));
        }
    }
    alerts_exit_check(dep.health(), &flags)?;
    Ok(())
}

/// Ingests one watch phase file against the shared schema.
fn ingest_phase(
    schema_sql: &str,
    path: &str,
    flags: &HashMap<String, String>,
    obs: &Obs,
) -> Result<Instance, String> {
    let opts = ingest_options(flags)?.with_name(path.to_string());
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let out = traced_ingest(obs, schema_sql, &text, stats_format(flags)?, &opts)
        .map_err(|e| format!("{path}: {e}"))?;
    if !out.report.is_lossless() || out.report.has_diagnostics() {
        eprint!("{}", out.report);
    }
    Ok(out.instance)
}

fn cmd_watch(flags: HashMap<String, String>) -> Result<(), String> {
    use vpart::online::{DecayMode, OnlineWorkload, TrackerConfig, WatchConfig, Watcher};

    let schema_path = flags
        .get("schema")
        .ok_or_else(|| "--schema is required".to_owned())?;
    let schema_sql = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let phases: Vec<String> = match (flags.get("log"), flags.get("stats")) {
        (Some(_), Some(_)) => return Err("--log and --stats are mutually exclusive".into()),
        (Some(paths), None) | (None, Some(paths)) => paths.split(',').map(str::to_owned).collect(),
        (None, None) => return Err("--schema also needs --log or --stats".into()),
    };

    let sites: usize = get(&flags, "sites", 2)?;
    let cost = cost_config(&flags)?;
    let seed: u64 = get(&flags, "seed", 0xC0FFEE)?;
    let interval: usize = get(&flags, "interval", 2)?;
    let threshold: f64 = get(&flags, "drift-threshold", 0.05)?;
    let rows: usize = get(&flags, "rows", 64)?;
    let restarts: usize = get(&flags, "restarts", 4)?;
    let threads: usize = get(&flags, "threads", 4)?;
    let hysteresis: usize = get(&flags, "hysteresis", 1)?;
    let amortize_epochs: usize = get(&flags, "amortize-epochs", 0)?;
    let max_retries: usize = get(&flags, "max-retries", 3)?;
    let migration_batch_bytes: f64 = get(&flags, "migration-batch-bytes", f64::INFINITY)?;
    let mut faults = vpart::engine::FaultInjector::new(seed);
    if let Some(specs) = flags.get("fault") {
        faults.arm_specs(specs).map_err(|e| e.to_string())?;
    }
    if interval == 0 {
        return Err("--interval must be positive".into());
    }
    let decay = match (flags.get("decay"), flags.get("window")) {
        (Some(_), Some(_)) => return Err("--decay and --window are mutually exclusive".into()),
        (None, Some(_)) => DecayMode::Window {
            epochs: get(&flags, "window", 3usize)?,
        },
        _ => DecayMode::Exponential {
            factor: get(&flags, "decay", 0.5f64)?,
        },
    };

    // Phase instances share the schema by construction (same DDL text).
    let parsed = vpart::ingest::parse_schema(&schema_sql, &ingest_options(&flags)?)
        .map_err(|e| e.to_string())?;
    let tracker = OnlineWorkload::new(
        schema_path.clone(),
        parsed.schema,
        TrackerConfig {
            decay,
            ..TrackerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let obs = obs_from_flags(&flags);
    let mut watcher = Watcher::new(
        tracker,
        WatchConfig {
            sites,
            cost,
            drift: vpart::online::DriftConfig {
                threshold,
                ..Default::default()
            },
            seed,
            rows_per_fragment: rows,
            cold_restarts: restarts,
            threads,
            hysteresis,
            amortize_epochs,
            max_retries,
            migration_batch_bytes,
            faults,
            obs: obs.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    if let Some(monitor) = health_from_flags(&flags)? {
        watcher = watcher.with_health(monitor);
    }
    arm_flight_from_flags(&obs, &flags)?;

    let json = flags.contains_key("json");
    let mut epochs_json: Vec<serde_json::Value> = Vec::new();
    if !json {
        println!(
            "{:<5} {:<28} {:>9} {:>12} {:>12}  {:<14} {:>14}",
            "epoch", "phase", "score", "incumbent", "bound", "action", "moved-bytes"
        );
    }
    for phase_path in &phases {
        let phase = ingest_phase(&schema_sql, phase_path, &flags, &obs)?;
        for _ in 0..interval {
            watcher
                .tracker_mut()
                .observe_instance(&phase)
                .map_err(|e| e.to_string())?;
            let out = watcher.end_epoch(phase_path).map_err(|e| e.to_string())?;
            if let Some(m) = &out.migration {
                if !m.meter_matches {
                    return Err(format!(
                        "epoch {}: migration meter {} != plan estimate {}",
                        out.epoch, m.measured_bytes, m.estimated_bytes
                    ));
                }
            }
            // Overwritten each epoch so the on-disk snapshot stays fresh
            // even if a later epoch crashes the process.
            write_health_snapshot(watcher.health(), &flags)?;
            if json {
                epochs_json.push(serde_json::json!({
                    "epoch": out.epoch,
                    "phase": out.label,
                    "templates": out.templates,
                    "incumbent_objective6": out.incumbent_cost,
                    "bound_objective6": out.bound,
                    "drift_score": out.drift_score,
                    "triggered": out.triggered,
                    "epoch_wall_secs": out.elapsed.as_secs_f64(),
                    "snapshot_attrs": out.snapshot_attrs,
                    "veto": out.veto,
                    "failures": out.failures,
                    "backoff_remaining": out.backoff_remaining,
                    "degraded": out.degraded,
                    "resolve": out.resolve.as_ref().map(|r| serde_json::json!({
                        "cold": r.cold,
                        "objective6": r.objective6,
                        "restarts": r.restarts,
                        "elapsed_secs": r.elapsed.as_secs_f64(),
                    })),
                    "migration": out.migration.as_ref().map(|m| serde_json::json!({
                        "fragment_changes": m.plan.changes.len(),
                        "installs": m.plan.installs(),
                        "drops": m.plan.drops(),
                        "txn_moves": m.plan.txn_moves.len(),
                        "estimated_bytes": m.estimated_bytes,
                        "measured_bytes": m.measured_bytes,
                        "meter_matches": m.meter_matches,
                        "batches": m.batches,
                        "peak_transient_bytes": m.peak_transient_bytes,
                    })),
                }));
            } else {
                let action = match (&out.resolve, &out.migration) {
                    (Some(r), _) if r.cold => "cold solve".to_string(),
                    (Some(_), Some(m)) => {
                        format!("warm+migrate({}i/{}d)", m.plan.installs(), m.plan.drops())
                    }
                    (Some(_), None) => "warm re-solve".to_string(),
                    // A vetoed epoch serves the incumbent; the first words
                    // of the veto reason name why (hysteresis, retry
                    // backoff, amortization, migration failed, degraded).
                    _ => match &out.veto {
                        Some(v) => v
                            .split(&[':', '('][..])
                            .next()
                            .unwrap_or("veto")
                            .trim()
                            .to_string(),
                        None => "keep".to_string(),
                    },
                };
                let moved = out
                    .migration
                    .as_ref()
                    .map(|m| format!("{:.0}", m.measured_bytes))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "{:<5} {:<28} {:>9.4} {:>12.1} {:>12.1}  {:<14} {:>14}",
                    out.epoch,
                    out.label,
                    out.drift_score,
                    out.incumbent_cost,
                    out.bound,
                    action,
                    moved
                );
            }
        }
    }
    if json {
        println!("{}", serde_json::Value::Array(epochs_json));
    } else if watcher.retries_total() > 0 {
        println!(
            "migrations: {} retry(ies), {} rollback(s)",
            watcher.retries_total(),
            watcher.rollbacks_total()
        );
    }
    write_obs_outputs(&obs, &flags)?;
    if let Some(path) = flags.get("health-out") {
        eprintln!("wrote health snapshot {path}");
    }
    alerts_exit_check(watcher.health(), &flags)?;
    if watcher.is_degraded() {
        return Err(format!(
            "watch ended degraded: {} migration failure(s) exhausted --max-retries {} \
             ({} rollback(s)); the incumbent is still being served",
            watcher.retries_total(),
            max_retries,
            watcher.rollbacks_total()
        ));
    }
    Ok(())
}

/// Loads and renders a `--health-out` snapshot: sample-ring shape, alert
/// transition history, rules still firing, and the degraded epochs.
fn render_health(path: &str) -> Result<String, String> {
    let h = HealthSnapshot::from_path(std::path::Path::new(path))?;
    let mut out = String::new();
    let _ = writeln!(out, "health snapshot  {path}");
    let ticks: Vec<u64> = h.series.samples().map(|s| s.tick).collect();
    match (ticks.first(), ticks.last()) {
        (Some(a), Some(b)) => {
            let _ = writeln!(
                out,
                "samples          {} (ticks {a}..{b}, {} evicted)",
                ticks.len(),
                h.series.evicted()
            );
        }
        _ => {
            let _ = writeln!(out, "samples          0");
        }
    }
    let degraded = h.degraded_ticks();
    if degraded.is_empty() {
        let _ = writeln!(out, "degraded ticks   none");
    } else {
        let list: Vec<String> = degraded.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "degraded ticks   {} of {}: {}",
            degraded.len(),
            ticks.len(),
            list.join(", ")
        );
    }
    if !h.transitions.is_empty() {
        let _ = writeln!(out, "alert history");
        for (tick, rule, state, severity, value) in &h.transitions {
            let _ = writeln!(
                out,
                "{tick:>6} {state:>10} {severity:>9}  {rule:<28} {value:>12.4}"
            );
        }
    }
    if h.firing.is_empty() {
        let _ = writeln!(out, "firing           none");
    } else {
        let _ = writeln!(out, "firing           {}", h.firing.join(", "));
    }
    Ok(out)
}

/// `vpart inspect <trace.jsonl>`: renders a recorded trace as a per-chain
/// convergence table plus an epoch timeline. `vpart inspect --journal
/// <file>` summarizes a migration journal instead, rejecting corrupt ones.
/// Either form (and the bare form `vpart inspect --health <snap>`) takes
/// `--health <snapshot.json>` to merge in the recorded health view.
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    match args {
        [p] if !p.starts_with("--") => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            let summary = TraceSummary::from_jsonl(&text).map_err(|e| format!("{p}: {e}"))?;
            print!("{}", summary.render());
            Ok(())
        }
        [p, flag, snap] if !p.starts_with("--") && flag == "--health" => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            let summary = TraceSummary::from_jsonl(&text).map_err(|e| format!("{p}: {e}"))?;
            print!("{}", summary.render());
            print!("\n{}", render_health(snap)?);
            Ok(())
        }
        [flag, snap] if flag == "--health" => {
            print!("{}", render_health(snap)?);
            Ok(())
        }
        [flag, p] if flag == "--journal" => inspect_journal(p),
        [f1, p, f2, snap] if f1 == "--journal" && f2 == "--health" => {
            inspect_journal(p)?;
            print!("\n{}", render_health(snap)?);
            Ok(())
        }
        _ => {
            let declared = declared_flags("inspect");
            let mut keys = args.iter().filter_map(|a| a.strip_prefix("--"));
            if let Some(key) = keys.find(|k| !declared.contains(k)) {
                return Err(unknown_flag("inspect", key, &declared));
            }
            Err(
                "usage: vpart inspect <trace.jsonl> [--health <snap.json>] | \
                 vpart inspect --journal <journal.jsonl> [--health <snap.json>] | \
                 vpart inspect --health <snap.json>"
                    .to_owned(),
            )
        }
    }
}

/// Renders a migration journal's durable state: plan identity, batch
/// boundary, byte meters and rollback status. Corruption (checksum
/// mismatch, truncated lines, illegal sequences) surfaces as an error.
fn inspect_journal(path: &str) -> Result<(), String> {
    use vpart::engine::{JournalRecord, MigrationJournal};

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let journal = MigrationJournal::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if journal.is_empty() {
        println!("journal {path}: empty (migration not started)");
        return Ok(());
    }
    let st = journal.state();
    let Some(&JournalRecord::Start {
        fingerprint,
        batches,
        rows_per_fragment,
    }) = journal.records().first()
    else {
        // from_jsonl enforces Start-first; an empty journal returned above.
        return Err(format!("{path}: journal does not begin with Start"));
    };
    println!("journal          {path}");
    println!("records          {}", journal.records().len());
    println!("plan fingerprint {fingerprint:#018x}");
    println!("plan batches     {batches} ({rows_per_fragment} rows/fragment)");
    println!(
        "boundary         {} (committed {}, undone {})",
        st.boundary(),
        st.committed,
        st.undone
    );
    println!("bytes committed  {:.1}", st.bytes_committed);
    if st.undone > 0 || st.rolling_back || st.rolled_back {
        println!("bytes undone     {:.1}", st.bytes_undone);
    }
    let status = if st.complete {
        "complete (deployment reached plan.to)".to_string()
    } else if st.rolled_back {
        "rolled back (deployment back at plan.from)".to_string()
    } else if st.rolling_back {
        format!(
            "rolling back ({} of {} committed batch(es) still to undo)",
            st.boundary(),
            st.committed
        )
    } else {
        format!(
            "in flight ({} of {batches} batch(es) committed; resume or roll back)",
            st.committed
        )
    };
    println!("status           {status}");
    Ok(())
}

/// Rebuilds a gauge/counter sample ring from a trace's `watch_epoch`
/// spans so rules can be re-evaluated without a `--metrics` snapshot.
fn store_from_trace(summary: &TraceSummary) -> TimeSeriesStore {
    let mut store = TimeSeriesStore::new(vpart::obs::DEFAULT_HEALTH_CAPACITY);
    for (i, e) in summary.epochs.iter().enumerate() {
        let mut counters = BTreeMap::new();
        counters.insert("watch_epochs_total".to_string(), (i + 1) as f64);
        let mut gauges = BTreeMap::new();
        gauges.insert("watch_drift_score".to_string(), e.drift_score);
        gauges.insert("watch_drift_threshold_margin".to_string(), e.margin);
        gauges.insert(
            "watch_degraded".to_string(),
            if e.degraded { 1.0 } else { 0.0 },
        );
        store.record(e.epoch, counters, gauges);
    }
    store
}

/// Replays a rule set tick-by-tick over a reconstructed sample ring and
/// returns the transitions it would have produced.
fn evaluate_rules_over(
    store: &TimeSeriesStore,
    rules: Vec<vpart::obs::AlertRule>,
) -> Result<Vec<vpart::obs::AlertTransition>, String> {
    let mut engine = vpart::obs::AlertEngine::new(rules)?;
    let mut replayed = TimeSeriesStore::new(store.capacity());
    let obs = Obs::disabled();
    for s in store.samples() {
        replayed.record(s.tick, s.counters.clone(), s.gauges.clone());
        engine.evaluate(s.tick, &replayed, &obs);
    }
    Ok(engine.transitions().to_vec())
}

/// `--follow`: tails the trace file, printing each `alert` event as it
/// lands (text columns, or one JSON transition per line with `--json`).
/// `--max-polls` bounds the loop (0 = follow forever); `--poll-ms` sets
/// the poll interval. A truncated/rewritten file restarts from the top.
fn monitor_follow(path: &str, flags: &HashMap<String, String>, json: bool) -> Result<(), String> {
    let poll_ms: u64 = get(flags, "poll-ms", 500u64)?;
    let max_polls: u64 = get(flags, "max-polls", 0u64)?;
    eprintln!("following {path} for alert edges (poll every {poll_ms} ms)");
    let mut offset = 0usize;
    let mut polls = 0u64;
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.len() < offset {
            offset = 0;
        }
        let new = &text[offset..];
        let complete = new.rfind('\n').map(|i| i + 1).unwrap_or(0);
        for line in new[..complete].lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
                continue;
            };
            if v.get("name").and_then(|n| n.as_str()) != Some("alert") {
                continue;
            }
            let fields = v.get("fields").cloned().unwrap_or(serde_json::Value::Null);
            let s = |k: &str| fields.get(k).and_then(|x| x.as_str()).unwrap_or("");
            let tick = fields.get("tick").and_then(|x| x.as_u64()).unwrap_or(0);
            let value = fields.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
            if json {
                println!(
                    "{}",
                    serde_json::json!({
                        "tick": tick,
                        "rule": s("rule"),
                        "state": s("state"),
                        "severity": s("severity"),
                        "value": serde_json::Value::Float(value),
                    })
                );
            } else {
                println!(
                    "{:>6} {:>10} {:>9}  {:<28} {:>12.4}",
                    tick,
                    s("state"),
                    s("severity"),
                    s("rule"),
                    value
                );
            }
        }
        offset += complete;
        polls += 1;
        if max_polls > 0 && polls >= max_polls {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
    Ok(())
}

/// `vpart monitor <trace.jsonl>`: the health view of a recorded trace —
/// the alert timeline (bit-identical to the transitions a live
/// `--health-out` snapshot records), per-epoch degradation, and a rule
/// re-evaluation over the sample ring (`--metrics <snapshot.json>` when
/// given, else one rebuilt from the trace's epoch spans). `--rules FILE`
/// swaps the built-in rule set; `--follow` tails the file instead.
fn cmd_monitor(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: vpart monitor <trace.jsonl> [--follow] [--poll-ms <n>] \
                         [--max-polls <n>] [--metrics <snapshot.json>] [--rules <file>] [--json]";
    let Some((path, rest)) = args.split_first() else {
        return Err(USAGE.to_owned());
    };
    if path.starts_with("--") {
        return Err(USAGE.to_owned());
    }
    let flags = parse_flags("monitor", rest)?;
    let json = flags.contains_key("json");
    if flags.contains_key("follow") {
        return monitor_follow(path, &flags, json);
    }

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = TraceSummary::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let health = match flags.get("metrics") {
        Some(p) => Some(HealthSnapshot::from_path(std::path::Path::new(p))?),
        None => None,
    };
    let rules = match flags.get("rules") {
        Some(p) => {
            let t = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            vpart::obs::rules_from_json(&t).map_err(|e| format!("{p}: {e}"))?
        }
        None => vpart::obs::builtin_rules(),
    };
    let store = match &health {
        Some(h) => h.series.clone(),
        None => store_from_trace(&summary),
    };
    let rule_eval = evaluate_rules_over(&store, rules)?;

    if json {
        let alerts: Vec<serde_json::Value> = summary
            .alerts
            .iter()
            .map(AlertEvent::to_transition_json)
            .collect();
        let firing: Vec<serde_json::Value> = summary
            .firing_rules()
            .iter()
            .map(|r| serde_json::Value::String((*r).to_string()))
            .collect();
        let epochs: Vec<serde_json::Value> = summary
            .epochs
            .iter()
            .map(|e| {
                serde_json::json!({
                    "epoch": e.epoch,
                    "drift_score": e.drift_score,
                    "margin": e.margin,
                    "triggered": e.triggered,
                    "degraded": e.degraded,
                })
            })
            .collect();
        let eval_json: Vec<serde_json::Value> = rule_eval.iter().map(|t| t.to_json()).collect();
        let health_json = match &health {
            Some(h) => {
                let transitions: Vec<serde_json::Value> = h
                    .transitions
                    .iter()
                    .map(|(tick, rule, state, severity, value)| {
                        serde_json::json!({
                            "tick": tick,
                            "rule": rule,
                            "state": state,
                            "severity": severity,
                            "value": serde_json::Value::Float(*value),
                        })
                    })
                    .collect();
                serde_json::json!({
                    "samples": h.series.len(),
                    "evicted": h.series.evicted(),
                    "degraded_ticks": h.degraded_ticks(),
                    "firing": h.firing,
                    "transitions": serde_json::Value::Array(transitions),
                })
            }
            None => serde_json::Value::Null,
        };
        println!(
            "{}",
            serde_json::json!({
                "trace": serde_json::json!({
                    "records": summary.records,
                    "spans": summary.spans,
                    "events": summary.events,
                }),
                "alerts": serde_json::Value::Array(alerts),
                "firing": serde_json::Value::Array(firing),
                "epochs": serde_json::Value::Array(epochs),
                "rule_eval": serde_json::Value::Array(eval_json),
                "health": health_json,
            })
        );
        return Ok(());
    }

    print!("{}", summary.render());
    if !rule_eval.is_empty() {
        println!("\nrule re-evaluation over sample ring");
        for t in &rule_eval {
            println!(
                "{:>6} {:>10} {:>9}  {:<28} {:>12.4}",
                t.tick,
                t.state,
                t.severity.as_str(),
                t.rule,
                t.value
            );
        }
    }
    if let Some(p) = flags.get("metrics") {
        print!("\n{}", render_health(p)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "list" => parse_flags("list", &args[1..]).and_then(cmd_list),
        "solve" => parse_flags("solve", &args[1..]).and_then(cmd_solve),
        "ingest" => parse_flags("ingest", &args[1..]).and_then(cmd_ingest),
        "replay" => parse_flags("replay", &args[1..]).and_then(cmd_replay),
        "watch" => parse_flags("watch", &args[1..]).and_then(cmd_watch),
        "inspect" => cmd_inspect(&args[1..]),
        "monitor" => cmd_monitor(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The synopsis lines of `vpart <cmd>` in the USAGE block of `usage()`.
    fn synopsis(cmd: &str) -> String {
        let mut out = String::new();
        let mut current = None;
        let block = usage()
            .lines()
            .skip_while(|l| !l.starts_with("USAGE"))
            .skip(1)
            .take_while(|l| !l.trim().is_empty());
        for line in block.map(str::trim) {
            if let Some(rest) = line.strip_prefix("vpart ") {
                current = rest.split_whitespace().next();
            }
            if current == Some(cmd) {
                out.push_str(line);
                out.push(' ');
            }
        }
        out
    }

    #[test]
    fn every_declared_flag_is_in_its_commands_synopsis() {
        for cmd in [
            "list", "ingest", "solve", "replay", "watch", "inspect", "monitor",
        ] {
            let text = synopsis(cmd);
            assert!(!text.is_empty(), "usage has no synopsis for vpart {cmd}");
            for flag in declared_flags(cmd) {
                let name = format!("--{flag}");
                let listed = text.match_indices(&name).any(|(i, _)| {
                    let next = text[i + name.len()..].chars().next();
                    !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-')
                });
                assert!(listed, "vpart {cmd} reads {name} but its synopsis omits it");
            }
        }
    }

    #[test]
    fn unknown_flags_name_the_closest_declared_one() {
        let solve = declared_flags("solve");
        assert_eq!(
            unknown_flag("solve", "algorithm", &solve),
            "unknown flag --algorithm for vpart solve (did you mean --algo?)"
        );
        assert_eq!(
            unknown_flag("solve", "sties", &solve),
            "unknown flag --sties for vpart solve (did you mean --sites?)"
        );
        assert_eq!(
            unknown_flag("solve", "frobnicate", &solve),
            "unknown flag --frobnicate for vpart solve"
        );
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
