//! CI benchmark smoke run: solves the TPC-C and web-shop instances,
//! measures annealing-move throughput (incremental vs full
//! re-evaluation), replays both workloads through the columnar engine at
//! production rate (txns/sec and true-byte model error), records wall
//! time and objective, and writes a `BENCH_<sha>.json` artifact so the
//! performance trajectory is tracked on every push.
//!
//! ```text
//! cargo run --release -p vpart_bench --bin bench_smoke -- \
//!     [--out <dir>] [--check <baseline.json>]
//! ```
//!
//! The sha comes from `GITHUB_SHA` (trimmed to 12 hex digits), falling
//! back to `local`.
//!
//! `--check <baseline.json>` compares the fresh run against a previous
//! artifact (matched by bench name) and exits non-zero when any solve
//! wall time regresses by more than 25%, any objective worsens, any
//! replay row's throughput drops by more than 25%, any replay row's
//! |model error| exceeds the pinned bound, any batched migration ships
//! slower than the pinned fraction of the baseline rate, or any
//! migration meter drifts from its plan estimate — the CI regression
//! gate.
//! Every failure line names the tripped row and metric with baseline vs
//! current values.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use vpart_core::qp::{QpConfig, QpSolver};
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{
    fast_objective6, predicted_txn_bytes, CostCoefficients, CostConfig, IncrementalCost,
};
use vpart_engine::{
    Deployment, FaultInjector, MigrationJournal, PredictedBytes, ReplayConfig, ReplayDeployment,
    ReplayStream,
};
use vpart_model::{Instance, MigrationPlan, Partitioning, SiteId, TxnId};
use vpart_obs::Obs;

/// Wall-time regression tolerance for `--check` (fraction of baseline).
const WALL_TOLERANCE: f64 = 0.25;
/// `--check` ceiling on the annealing slowdown an enabled observability
/// handle may cost over the disabled default (fraction of disabled wall).
const OBS_OVERHEAD_TOLERANCE: f64 = 0.05;
/// Absolute slack for the obs-overhead gate. Interleaved min-of-6 walls
/// still swing several percent between invocations on a contended
/// runner, so the gate is a tripwire for instrumentation mistakes (a
/// per-move obs call costs integer factors, not percent), while the
/// artifact trail tracks the single-digit drift.
const OBS_OVERHEAD_SLACK_SECS: f64 = 0.025;
/// `--check` floor on the SA acceptance ratio relative to the baseline
/// artifact's: solves are seeded, so a drop beyond this is a real change
/// in move-acceptance behaviour (a collapsing chain), not noise.
const ACCEPTANCE_COLLAPSE_DROP: f64 = 0.10;
/// Absolute wall-time slack: a regression must also exceed this many
/// seconds over the baseline. Sub-millisecond SA rows jitter far beyond
/// 25%, and even the ~0.2–0.7 s QP rows can swing that much between two
/// runs on a noisy shared runner; the gate targets regressions of real
/// solve workloads (seconds and up), so half a second of absolute slack
/// trades a little sensitivity on tiny rows for a flake-free main branch.
const WALL_SLACK_SECS: f64 = 0.5;
/// Relative objective tolerance for `--check` (rounding noise only —
/// solves are seeded, so objectives are reproducible).
const OBJECTIVE_TOLERANCE: f64 = 1e-9;
/// `--check` floor on replay throughput relative to the baseline
/// artifact's: a drop beyond this fraction fails the gate. Replay rows
/// run for [`REPLAY_MIN_DURATION`] so the rate is averaged over many
/// passes, which keeps this bound meaningful on a shared runner.
const THROUGHPUT_TOLERANCE: f64 = 0.25;
/// `--check` ceiling on the replay harness's |model error|. Both CI
/// workloads have integer attribute widths, row counts and frequencies,
/// so the true-byte meters agree with the fractional cost model exactly
/// (measured ratio 0.0); the bound leaves headroom only for future
/// fractional-width workloads, where quantization opens a real gap.
const MODEL_ERROR_BOUND: f64 = 0.15;
/// Replay benchmark rows keep re-running their pass until this much wall
/// time has elapsed, so the reported txns/sec averages over enough passes
/// to survive scheduler jitter.
const REPLAY_MIN_DURATION: Duration = Duration::from_millis(200);
/// `--check` floor on batched-migration shipping rate relative to the
/// baseline's. Migration walls are short (milliseconds), so this is a
/// deliberately loose tripwire for integer-factor regressions (an
/// accidental O(n²) rebuild per batch), not for percent-level drift —
/// current must stay above a quarter of the baseline rate.
const MIGRATION_RATE_TOLERANCE: f64 = 0.75;
/// Rows per fragment for the migration benchmark's deployments.
const MIGRATION_ROWS: usize = 64;

/// One solver measurement for the artifact.
fn measure(
    name: &str,
    instance: &Instance,
    sites: usize,
    solve: impl FnOnce(&Instance, usize) -> vpart_core::SolveReport,
) -> serde_json::Value {
    let start = Instant::now();
    let report = solve(instance, sites);
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{name:<28} objective4 {:>14.1}   wall {wall:>8.3}s",
        report.breakdown.objective4
    );
    serde_json::json!({
        "name": name,
        "instance": instance.name(),
        "sites": sites,
        "objective4": report.breakdown.objective4,
        "objective6": report.breakdown.objective6,
        "max_site_work": report.breakdown.max_work,
        "optimal": report.is_optimal(),
        "wall_secs": wall,
        // SA chains stopped by their wall-clock limit (0 for exact
        // solvers); the multi-start dominance assertion below only holds
        // when every chain froze naturally.
        "timed_out_chains": report.restarts.iter().filter(|s| s.timed_out).count(),
    })
}

/// A checked-in example workload, ingested by log file name.
fn example_workload(log_file: &str, name: &str) -> Instance {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/data");
    let schema = std::fs::read_to_string(format!("{dir}/schema.sql"))
        .expect("examples/data/schema.sql is checked in");
    let log =
        std::fs::read_to_string(format!("{dir}/{log_file}")).expect("example log is checked in");
    vpart_ingest::ingest(
        &schema,
        &log,
        &vpart_ingest::IngestOptions::default().with_name(name),
    )
    .expect("the checked-in workload ingests cleanly")
    .instance
}

/// The web-shop instance, ingested from the checked-in example workload.
fn web_shop() -> Instance {
    example_workload("queries.log", "web-shop")
}

/// A deterministic annealing-style move sequence: transaction moves and
/// replica extensions in a fixed pseudo-random pattern (no RNG, so both
/// throughput paths replay the exact same moves).
fn move_sequence(instance: &Instance, n_sites: usize, n_moves: usize) -> Vec<(usize, usize)> {
    let n_txns = instance.n_txns();
    (0..n_moves)
        .map(|i| {
            let t = (i.wrapping_mul(2654435761)) % n_txns;
            let s = (i.wrapping_mul(40503) >> 4) % n_sites;
            (t, s)
        })
        .collect()
}

/// Annealing-move throughput: the same accept-half/reject-half move
/// stream evaluated (a) through [`IncrementalCost`] deltas and (b) by
/// mutating a scratch [`Partitioning`] and re-running the full
/// coefficient walk [`fast_objective6`] — the paper port's previous inner
/// loop. Reports moves/sec for both and their ratio.
fn annealing_throughput(instance: &Instance, n_sites: usize) -> serde_json::Value {
    let cost = CostConfig::default();
    let coeffs = CostCoefficients::compute(instance, &cost);
    let start_part = Partitioning::single_site(instance, n_sites).expect("sites >= 1");

    // Incremental path: apply → evaluate → commit/revert alternately.
    let inc_moves = 200_000usize;
    let seq = move_sequence(instance, n_sites, inc_moves);
    let mut inc = IncrementalCost::new(instance, &coeffs, &cost, start_part.clone());
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for (i, &(t, s)) in seq.iter().enumerate() {
        let mark = inc.mark();
        inc.apply_txn_move(TxnId::from_index(t), SiteId::from_index(s));
        acc += inc.objective6();
        if i % 2 == 0 {
            inc.commit();
        } else {
            inc.revert(mark);
        }
    }
    let inc_secs = t0.elapsed().as_secs_f64();
    let inc_rate = inc_moves as f64 / inc_secs;

    // Full path: same move stream, objective recomputed from scratch
    // per move (sized down — it is the slow path being demonstrated).
    let full_moves = (inc_moves / 50).max(1);
    let seq = move_sequence(instance, n_sites, full_moves);
    let mut part = start_part;
    let t1 = Instant::now();
    for (i, &(t, s)) in seq.iter().enumerate() {
        let mut cand = part.clone();
        cand.move_txn(TxnId::from_index(t), SiteId::from_index(s));
        cand.repair_single_sitedness(instance);
        acc += fast_objective6(instance, &coeffs, &cand, &cost);
        if i % 2 == 0 {
            part = cand;
        }
    }
    let full_secs = t1.elapsed().as_secs_f64();
    let full_rate = full_moves as f64 / full_secs;
    let speedup = inc_rate / full_rate;
    // Keep the accumulator observable so the loops cannot be elided.
    assert!(acc.is_finite());

    println!(
        "anneal-throughput/{:<11} incremental {:>12.0} moves/s   full {:>10.0} moves/s   {speedup:>6.1}x",
        instance.name(),
        inc_rate,
        full_rate,
    );
    serde_json::json!({
        "name": format!("anneal-throughput/{}", instance.name()),
        "instance": instance.name(),
        "sites": n_sites,
        "incremental_moves": inc_moves,
        "incremental_moves_per_sec": inc_rate,
        "full_moves": full_moves,
        "full_moves_per_sec": full_rate,
        "speedup": speedup,
    })
}

/// Observability overhead: the same deterministic multi-chain SA solve
/// run with the inert [`Obs::disabled()`] handle (the default in every
/// solver config) and with a live registry + trace, interleaved best-of-3
/// each so runner drift hits both variants alike. Returns the artifact
/// entry and the final enabled run's metrics snapshot (folded into the
/// artifact so `--check` can compare acceptance ratios across pushes).
fn obs_overhead(instance: &Instance, sites: usize) -> (serde_json::Value, serde_json::Value) {
    let cost = CostConfig::default();
    let run = |obs: Obs| {
        // 128 single-threaded chains: enough wall time (~100ms) that the
        // min-of-3 below measures instrumentation, not scheduler jitter.
        let cfg = SaConfig {
            obs,
            ..SaConfig::fast_deterministic(1).multi_start(128, 1)
        };
        let t = Instant::now();
        let report = SaSolver::new(cfg)
            .solve(instance, sites, &cost)
            .expect("SA solves");
        let moves: usize = report.restarts.iter().map(|s| s.iterations).sum();
        (t.elapsed().as_secs_f64(), moves)
    };
    let _ = run(Obs::disabled()); // warm caches off the clock
    let mut disabled_wall = f64::INFINITY;
    let mut enabled_wall = f64::INFINITY;
    let mut moves = 0usize;
    let mut snapshot = serde_json::Value::Null;
    for _ in 0..6 {
        let (wall, m) = run(Obs::disabled());
        disabled_wall = disabled_wall.min(wall);
        moves = m;
        let obs = Obs::enabled();
        let (wall, _) = run(obs.clone());
        enabled_wall = enabled_wall.min(wall);
        snapshot = obs.metrics_json();
    }
    let overhead = enabled_wall / disabled_wall - 1.0;
    println!(
        "obs-overhead/{:<14} disabled {:>12.0} moves/s   enabled {:>10.0} moves/s   {:>+6.1}%",
        instance.name(),
        moves as f64 / disabled_wall,
        moves as f64 / enabled_wall,
        overhead * 100.0,
    );
    (
        serde_json::json!({
            "name": format!("obs-overhead/{}", instance.name()),
            "instance": instance.name(),
            "sites": sites,
            "moves": moves,
            "disabled_wall_secs": disabled_wall,
            "enabled_wall_secs": enabled_wall,
            "disabled_moves_per_sec": moves as f64 / disabled_wall,
            "enabled_moves_per_sec": moves as f64 / enabled_wall,
            "overhead_frac": overhead,
        }),
        snapshot,
    )
}

/// Health-sampler overhead: the same deterministic watch-epoch loop run
/// with observability enabled, with vs without a
/// [`HealthMonitor`](vpart_obs::HealthMonitor)
/// attached (registry sampling + rule evaluation each epoch),
/// interleaved min-of-6 so runner drift hits both variants alike. The
/// epoch-0 cold solve runs off the clock in both variants; the timed
/// epochs are the steady-state re-score path the sampler piggybacks on.
/// Gated under `--check` by the same tolerance as the obs-overhead row
/// (self-contained — no baseline fields needed).
fn sampler_overhead(instance: &Instance, sites: usize) -> serde_json::Value {
    use vpart_obs::HealthMonitor;
    use vpart_online::{OnlineWorkload, TrackerConfig, WatchConfig, Watcher};

    const EPOCHS: usize = 24;
    let run = |with_monitor: bool| {
        let tracker = OnlineWorkload::from_instance(instance, TrackerConfig::default())
            .expect("tracker builds");
        let mut watcher = Watcher::new(
            tracker,
            WatchConfig {
                sites,
                obs: Obs::enabled(),
                ..WatchConfig::default()
            },
        )
        .expect("watcher builds");
        if with_monitor {
            watcher = watcher.with_health(HealthMonitor::with_builtin_rules(64));
        }
        // Epoch 0 bootstraps the incumbent (a cold solve) — identical
        // work in both variants, excluded from the clock.
        watcher
            .tracker_mut()
            .observe_instance(instance)
            .expect("tracker observes");
        watcher.end_epoch("bench-boot").expect("boot epoch ends");
        let t = Instant::now();
        for _ in 0..EPOCHS {
            watcher
                .tracker_mut()
                .observe_instance(instance)
                .expect("tracker observes");
            watcher.end_epoch("bench").expect("epoch ends");
        }
        t.elapsed().as_secs_f64()
    };
    let _ = run(false); // warm caches off the clock
    let mut plain_wall = f64::INFINITY;
    let mut sampled_wall = f64::INFINITY;
    for _ in 0..6 {
        plain_wall = plain_wall.min(run(false));
        sampled_wall = sampled_wall.min(run(true));
    }
    let overhead = sampled_wall / plain_wall - 1.0;
    println!(
        "obs-sampler-overhead/{:<7} plain {:>10.0} epochs/s   sampled {:>10.0} epochs/s   {:>+6.1}%",
        instance.name(),
        EPOCHS as f64 / plain_wall,
        EPOCHS as f64 / sampled_wall,
        overhead * 100.0,
    );
    serde_json::json!({
        "name": format!("obs-sampler-overhead/{}", instance.name()),
        "instance": instance.name(),
        "sites": sites,
        "epochs": EPOCHS,
        "plain_wall_secs": plain_wall,
        "sampled_wall_secs": sampled_wall,
        "plain_epochs_per_sec": EPOCHS as f64 / plain_wall,
        "sampled_epochs_per_sec": EPOCHS as f64 / sampled_wall,
        "overhead_frac": overhead,
    })
}

/// Trace-replay benchmark: solves the instance, expands the workload
/// into a seeded execution stream, replays it through the columnar
/// engine at production rate and reports txns/sec plus the true-byte
/// model error against [`predicted_txn_bytes`]. Both numbers land in the
/// artifact; `--check` gates a >[`THROUGHPUT_TOLERANCE`] throughput drop
/// against the baseline and a |model error| above [`MODEL_ERROR_BOUND`]
/// (the latter self-contained — no baseline fields needed).
fn replay_benchmark(name: &str, instance: &Instance, sites: usize, seed: u64) -> serde_json::Value {
    let cost = CostConfig::default();
    let part = SaSolver::new(SaConfig::fast_deterministic(seed))
        .solve(instance, sites, &cost)
        .expect("SA solves the replay target")
        .partitioning;
    let stream = ReplayStream::weighted(instance, 500, seed);
    let per = predicted_txn_bytes(instance, &part, &cost);
    let counts = stream.counts(instance.n_txns());
    let mut predicted = PredictedBytes::default();
    for (t, &c) in counts.iter().enumerate() {
        predicted.read += c as f64 * per[t].read;
        predicted.written += c as f64 * per[t].written;
        predicted.transferred += c as f64 * per[t].transferred;
    }
    let mut dep = ReplayDeployment::new(instance, &part, 256, 32).expect("replay target deploys");
    let report = dep
        .replay(
            &stream,
            &ReplayConfig::timed(4, REPLAY_MIN_DURATION),
            Some(&predicted),
        )
        .expect("replay stream is non-empty and in range");
    let me = report
        .model_error
        .expect("a prediction was supplied, so the error is computed");
    let totals = report.totals();
    let tput = report.throughput_txns_per_sec();
    println!(
        "{name:<28} {tput:>10.0} txns/sec   model error {:>+8.4}   ({} passes)",
        me.overall_ratio, report.passes
    );
    serde_json::json!({
        "name": name,
        "instance": instance.name(),
        "sites": sites,
        "stream_len": report.stream_len,
        "passes": report.passes,
        "txns_replayed": report.txns_replayed,
        "elapsed_secs": report.elapsed.as_secs_f64(),
        "txns_per_sec": tput,
        "bytes_read": totals.bytes_read,
        "bytes_written": totals.bytes_written,
        "bytes_transferred": report.transfer_bytes,
        "model_error_ratio": me.overall_ratio,
        "model_error_read": me.read_ratio,
        "model_error_write": me.write_ratio,
        "model_error_transfer": me.transfer_ratio,
    })
}

/// Replay-driven migration benchmark: centralizes the instance, then
/// migrates to a fresh SA solution through the crash-safe batched path —
/// one `migrate_batches(.., 1)` step per boundary, exactly the
/// rate-limited deployment mode — and meters the shipping rate. The same
/// seeded replay stream is run at production rate on the source and
/// target partitionings, so the row records what the migration buys
/// (throughput after vs before) next to what it costs (bytes, batches,
/// peak transient dual-resident width, wall time). `--check` gates the
/// engine meter against the plan estimate exactly (self-contained) and
/// the shipping rate against the baseline ([`MIGRATION_RATE_TOLERANCE`]).
fn migration_benchmark(
    name: &str,
    instance: &Instance,
    sites: usize,
    seed: u64,
) -> serde_json::Value {
    let cost = CostConfig::default();
    let from = Partitioning::single_site(instance, sites).expect("single-site source");
    let to = SaSolver::new(SaConfig::fast_deterministic(seed))
        .solve(instance, sites, &cost)
        .expect("SA solves the migration target")
        .partitioning;
    let plan = MigrationPlan::between(instance, &from, &to, MIGRATION_ROWS).expect("plan builds");
    let batched = plan
        .batched(instance, plan.estimated_bytes() / 6.0)
        .expect("plan batches");

    // Production-rate replay on both endpoints of the migration.
    let throughput = |part: &Partitioning| {
        let mut dep =
            ReplayDeployment::new(instance, part, 256, 32).expect("replay endpoint deploys");
        dep.replay(
            &ReplayStream::weighted(instance, 500, seed),
            &ReplayConfig::timed(4, REPLAY_MIN_DURATION),
            None,
        )
        .expect("endpoint replays")
        .throughput_txns_per_sec()
    };
    let tput_before = throughput(&from);

    // Best-of-3 timed migrations, stepped one batch per call through the
    // write-ahead journal (each run on a fresh deployment + journal).
    let mut wall = f64::INFINITY;
    let mut bytes_moved = 0.0;
    let mut steps = 0usize;
    for _ in 0..3 {
        let mut dep =
            Deployment::new(instance, &from, MIGRATION_ROWS).expect("migration source deploys");
        let mut journal = MigrationJournal::new();
        let t = Instant::now();
        let mut n = 0usize;
        loop {
            let report = dep
                .migrate_batches(&batched, &mut journal, &mut FaultInjector::disabled(), 1)
                .expect("batch applies");
            n += 1;
            if report.completed {
                bytes_moved = report.bytes_moved;
                break;
            }
        }
        wall = wall.min(t.elapsed().as_secs_f64());
        steps = n;
    }
    let rate = bytes_moved / wall.max(1e-12);
    let tput_after = throughput(&to);
    let change = tput_after / tput_before.max(1e-12) - 1.0;
    println!(
        "{name:<28} {bytes_moved:>10.0} B in {steps} batches   {rate:>12.0} B/s   replay {change:>+6.1}%",
    );
    serde_json::json!({
        "name": name,
        "instance": instance.name(),
        "sites": sites,
        "estimated_bytes": plan.estimated_bytes(),
        "bytes_moved": bytes_moved,
        "meters_exact": bytes_moved == plan.estimated_bytes(),
        "batches": batched.n_batches(),
        "peak_transient_bytes": batched.peak_transient_bytes,
        "wall_secs": wall,
        "bytes_per_sec": rate,
        "replay_txns_per_sec_before": tput_before,
        "replay_txns_per_sec_after": tput_after,
        "replay_throughput_change_frac": change,
    })
}

/// `--check` comparison of this run against a previous artifact. Returns
/// human-readable regression descriptions (empty = gate passes). Every
/// line names the tripped row and metric and shows baseline vs current,
/// so a red CI run is actionable without re-running anything.
fn check_against_baseline(
    baseline: &serde_json::Value,
    artifact: &serde_json::Value,
) -> Vec<String> {
    let current = artifact
        .get("benches")
        .and_then(|b| b.as_array())
        .unwrap_or(&[]);
    let field_str = |v: &serde_json::Value, key: &str| -> Option<String> {
        v.get(key).and_then(|f| f.as_str()).map(str::to_owned)
    };
    let field_f64 =
        |v: &serde_json::Value, key: &str| -> Option<f64> { v.get(key).and_then(|f| f.as_f64()) };
    let mut failures = Vec::new();
    // A baseline without a benches array is an unusable file (truncated
    // download, wrong artifact) — certifying "no regressions" against it
    // would be vacuous, so it fails the gate instead.
    let Some(base_benches) = baseline.get("benches").and_then(|b| b.as_array()) else {
        return vec!["baseline has no \"benches\" array — not a BENCH_<sha>.json artifact".into()];
    };
    if base_benches.is_empty() {
        return vec!["baseline \"benches\" array is empty — nothing to compare against".into()];
    }
    for base in base_benches {
        let Some(name) = field_str(base, "name") else {
            continue;
        };
        let Some(now) = current
            .iter()
            .find(|b| field_str(b, "name").as_deref() == Some(&name))
        else {
            failures.push(format!("{name}: present in baseline but not in this run"));
            continue;
        };
        let (Some(base_wall), Some(now_wall)) =
            (field_f64(base, "wall_secs"), field_f64(now, "wall_secs"))
        else {
            continue;
        };
        if now_wall > base_wall * (1.0 + WALL_TOLERANCE) && now_wall > base_wall + WALL_SLACK_SECS {
            failures.push(format!(
                "{name}: wall_secs baseline {:.3} -> current {:.3} (regressed > {:.0}% and > {}s slack)",
                base_wall,
                now_wall,
                WALL_TOLERANCE * 100.0,
                WALL_SLACK_SECS
            ));
        }
        // Gate on objective (6) — what the solvers actually minimize —
        // when both artifacts carry it; objective (4) otherwise (older
        // baselines predate the field).
        let key =
            if field_f64(base, "objective6").is_some() && field_f64(now, "objective6").is_some() {
                "objective6"
            } else {
                "objective4"
            };
        if let (Some(base_obj), Some(now_obj)) = (field_f64(base, key), field_f64(now, key)) {
            if now_obj > base_obj + OBJECTIVE_TOLERANCE * (1.0 + base_obj.abs()) {
                failures.push(format!(
                    "{name}: {key} baseline {base_obj} -> current {now_obj} (seeded solves must not worsen)"
                ));
            }
        }
    }
    // Acceptance-rate collapse: both artifacts fold in the instrumented
    // run's metrics snapshot; the seeded SA acceptance ratio is
    // reproducible, so a sizeable drop means the chains stopped accepting
    // moves (a broken temperature schedule or delta evaluation), which
    // wall time and final objective alone can mask.
    let ratio = |v: &serde_json::Value| {
        v.get("metrics")
            .and_then(|m| m.get("gauges"))
            .and_then(|g| g.get("sa_acceptance_ratio"))
            .and_then(|r| r.as_f64())
    };
    if let (Some(base), Some(now)) = (ratio(baseline), ratio(artifact)) {
        if now < base - ACCEPTANCE_COLLAPSE_DROP {
            failures.push(format!(
                "metrics: sa_acceptance_ratio baseline {base:.3} -> current {now:.3} \
                 (collapsed > {ACCEPTANCE_COLLAPSE_DROP} drop)"
            ));
        }
    }
    // Replay throughput: matched by row name across the artifacts'
    // "replay" arrays. The rows average over REPLAY_MIN_DURATION of
    // passes, so a drop past the tolerance is a real engine regression,
    // not a scheduler hiccup.
    fn replay_rows(v: &serde_json::Value) -> &[serde_json::Value] {
        v.get("replay").and_then(|r| r.as_array()).unwrap_or(&[])
    }
    let now_replay = replay_rows(artifact);
    for base in replay_rows(baseline) {
        let Some(name) = field_str(base, "name") else {
            continue;
        };
        let Some(now) = now_replay
            .iter()
            .find(|b| field_str(b, "name").as_deref() == Some(&name))
        else {
            failures.push(format!(
                "{name}: replay row present in baseline but not in this run"
            ));
            continue;
        };
        if let (Some(base_t), Some(now_t)) = (
            field_f64(base, "txns_per_sec"),
            field_f64(now, "txns_per_sec"),
        ) {
            if now_t < base_t * (1.0 - THROUGHPUT_TOLERANCE) {
                failures.push(format!(
                    "{name}: txns_per_sec baseline {base_t:.0} -> current {now_t:.0} \
                     (regressed > {:.0}%)",
                    THROUGHPUT_TOLERANCE * 100.0
                ));
            }
        }
    }
    // Model error: self-contained — the true-byte meters must stay within
    // the pinned bound of the cost model's prediction regardless of what
    // the baseline recorded.
    for row in now_replay {
        let name = field_str(row, "name").unwrap_or_else(|| "replay".into());
        match field_f64(row, "model_error_ratio") {
            Some(e) if e.is_finite() && e.abs() <= MODEL_ERROR_BOUND => {}
            Some(e) => failures.push(format!(
                "{name}: model_error_ratio current {e:+.4} (|error| bound {MODEL_ERROR_BOUND})"
            )),
            None => failures.push(format!("{name}: replay row carries no model_error_ratio")),
        }
    }
    // Batched migrations: the shipping rate is gated against the baseline
    // and the engine meter against the plan estimate (self-contained —
    // `meters_exact` is computed by the run itself, so a drifting meter
    // fails even on the very first artifact after a change).
    fn migration_rows(v: &serde_json::Value) -> &[serde_json::Value] {
        v.get("migration").and_then(|r| r.as_array()).unwrap_or(&[])
    }
    let now_migration = migration_rows(artifact);
    for base in migration_rows(baseline) {
        let Some(name) = field_str(base, "name") else {
            continue;
        };
        let Some(now) = now_migration
            .iter()
            .find(|b| field_str(b, "name").as_deref() == Some(&name))
        else {
            failures.push(format!(
                "{name}: migration row present in baseline but not in this run"
            ));
            continue;
        };
        if let (Some(base_r), Some(now_r)) = (
            field_f64(base, "bytes_per_sec"),
            field_f64(now, "bytes_per_sec"),
        ) {
            if now_r < base_r * (1.0 - MIGRATION_RATE_TOLERANCE) {
                failures.push(format!(
                    "{name}: bytes_per_sec baseline {base_r:.0} -> current {now_r:.0} \
                     (regressed > {:.0}%)",
                    MIGRATION_RATE_TOLERANCE * 100.0
                ));
            }
        }
    }
    for row in now_migration {
        let name = field_str(row, "name").unwrap_or_else(|| "migration".into());
        if row.get("meters_exact").and_then(|v| v.as_bool()) != Some(true) {
            failures.push(format!(
                "{name}: engine byte meter != plan estimate (meters_exact is not true)"
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_dir = flag("--out").unwrap_or_else(|| ".".to_string());
    let sha = std::env::var("GITHUB_SHA")
        .ok()
        .filter(|s| !s.is_empty())
        .map(|s| s.chars().take(12).collect::<String>())
        .unwrap_or_else(|| "local".to_string());

    let cost = CostConfig::default();
    let cost = &cost;
    let tpcc = vpart_instances::tpcc();
    let shop = web_shop();

    let sa = |seed: u64| {
        move |ins: &Instance, sites: usize| {
            SaSolver::new(SaConfig::fast_deterministic(seed))
                .solve(ins, sites, cost)
                .expect("SA solves")
        }
    };
    // Multi-start at equal per-chain budget: chain 0 is exactly the
    // single-start run, so best-of-n can only match or beat it.
    let sa_multi = |seed: u64, restarts: usize, threads: usize| {
        move |ins: &Instance, sites: usize| {
            SaSolver::new(SaConfig::fast_deterministic(seed).multi_start(restarts, threads))
                .solve(ins, sites, cost)
                .expect("SA solves")
        }
    };
    let qp = |limit: f64| {
        move |ins: &Instance, sites: usize| {
            QpSolver::new(QpConfig::with_time_limit(limit))
                .solve(ins, sites, cost)
                .expect("QP solves")
        }
    };

    // Online repartitioning scenario: the web-shop incumbent (solved on
    // the steady phase) is repaired on the drifted phase by a warm
    // re-solve, measured against a cold multi-start of the same snapshot
    // (both single-threaded, so wall time reflects total solve work).
    let drift_cost = CostConfig::default().with_lambda(0.5);
    let drifted = example_workload("queries_drifted.log", "web-shop-drifted");
    let incumbent = SaSolver::new(SaConfig::fast_deterministic(7))
        .solve(&shop, 3, &drift_cost)
        .expect("SA solves the steady phase")
        .partitioning;
    let warm_resolve = {
        let drift_cost = &drift_cost;
        let incumbent = incumbent.clone();
        move |ins: &Instance, sites: usize| {
            SaSolver::new(SaConfig::fast_deterministic(7).warm_started(incumbent.clone()))
                .solve(ins, sites, drift_cost)
                .expect("warm re-solve succeeds")
        }
    };
    let cold_resolve = {
        let drift_cost = &drift_cost;
        move |ins: &Instance, sites: usize| {
            SaSolver::new(SaConfig::fast_deterministic(7).multi_start(4, 1))
                .solve(ins, sites, drift_cost)
                .expect("cold multi-start succeeds")
        }
    };

    let benches = vec![
        measure("sa/tpcc-2-sites", &tpcc, 2, sa(1)),
        measure("sa/tpcc-3-sites", &tpcc, 3, sa(1)),
        measure("sa-multistart4/tpcc-3-sites", &tpcc, 3, sa_multi(1, 4, 4)),
        measure("qp/tpcc-2-sites", &tpcc, 2, qp(60.0)),
        measure("sa/web-shop-2-sites", &shop, 2, sa(7)),
        measure(
            "sa-multistart4/web-shop-2-sites",
            &shop,
            2,
            sa_multi(7, 4, 4),
        ),
        measure("qp/web-shop-2-sites", &shop, 2, qp(60.0)),
        measure("drift-resolve/warm", &drifted, 3, warm_resolve),
        measure("drift-resolve/cold-multistart4", &drifted, 3, cold_resolve),
    ];

    // Multi-start must not lose to single-start at equal per-chain budget
    // (restart 0 reruns the single-start chain). The bench job gates the
    // guarantee — except when a chain was cut off by its wall clock
    // (pathologically loaded runner), where the exact-replay premise does
    // not hold. Violations are collected, not panicked on, so the
    // artifact documenting the failure is still written below.
    let mut dominance_failures: Vec<String> = Vec::new();
    for (single, multi) in [
        ("sa/tpcc-3-sites", "sa-multistart4/tpcc-3-sites"),
        ("sa/web-shop-2-sites", "sa-multistart4/web-shop-2-sites"),
    ] {
        let entry = |name: &str| {
            benches
                .iter()
                .find(|b| b.get("name").and_then(|v| v.as_str()) == Some(name))
                .expect("bench entry exists")
        };
        // Compare on objective (6) — the metric the multi-start merge
        // minimizes. Objective (4) can legitimately rise when a winning
        // chain trades it for lower max load.
        let obj = |e: &serde_json::Value| {
            e.get("objective6")
                .and_then(|v| v.as_f64())
                .expect("objective recorded")
        };
        let timed_out = |e: &serde_json::Value| {
            e.get("timed_out_chains")
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                > 0
        };
        let (se, me) = (entry(single), entry(multi));
        let (s, m) = (obj(se), obj(me));
        if timed_out(se) || timed_out(me) {
            eprintln!(
                "warning: skipping {multi} vs {single} dominance check — a chain hit its \
                 wall-clock limit"
            );
        } else if m > s + 1e-9 * (1.0 + s.abs()) {
            dominance_failures.push(format!(
                "{multi} (objective6 {m}) must not be worse than {single} ({s})"
            ));
        }
    }

    // The online repartitioning claim: repairing drift from the incumbent
    // must cost measurably less wall time than a cold multi-start of the
    // same snapshot (a warm chain is strictly less work than 4 cold
    // chains run sequentially). Skipped if a chain was cut off by its
    // wall clock — a pathologically loaded runner breaks the premise.
    {
        let entry = |name: &str| {
            benches
                .iter()
                .find(|b| b.get("name").and_then(|v| v.as_str()) == Some(name))
                .expect("bench entry exists")
        };
        let (warm, cold) = (
            entry("drift-resolve/warm"),
            entry("drift-resolve/cold-multistart4"),
        );
        let wall = |e: &serde_json::Value| {
            e.get("wall_secs")
                .and_then(|v| v.as_f64())
                .expect("wall recorded")
        };
        let timed_out = |e: &serde_json::Value| {
            e.get("timed_out_chains")
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                > 0
        };
        if timed_out(warm) || timed_out(cold) {
            eprintln!(
                "warning: skipping warm-vs-cold drift-resolve check — a chain hit its \
                 wall-clock limit"
            );
        } else if wall(warm) >= wall(cold) {
            dominance_failures.push(format!(
                "drift-resolve/warm ({:.4}s) must be faster than cold-multistart4 ({:.4}s)",
                wall(warm),
                wall(cold)
            ));
        } else {
            println!(
                "drift-resolve: warm {:.4}s vs cold multi-start {:.4}s ({:.1}x faster)",
                wall(warm),
                wall(cold),
                wall(cold) / wall(warm).max(1e-12)
            );
        }
    }

    let throughput = vec![
        annealing_throughput(&tpcc, 3),
        annealing_throughput(&shop, 2),
    ];
    let replay = vec![
        replay_benchmark("replay/tpcc-3-sites", &tpcc, 3, 1),
        replay_benchmark("replay/web-shop-2-sites", &shop, 2, 7),
    ];
    let migration = vec![
        migration_benchmark("migration/tpcc-3-sites", &tpcc, 3, 1),
        migration_benchmark("migration/web-shop-2-sites", &shop, 2, 7),
    ];
    let (obs_bench, metrics_snapshot) = obs_overhead(&tpcc, 3);
    let sampler_bench = sampler_overhead(&shop, 2);

    let artifact = serde_json::json!({
        "sha": sha,
        "benches": benches,
        "annealing_throughput": throughput,
        "replay": replay,
        "migration": migration,
        "obs_overhead": obs_bench,
        "obs_sampler_overhead": sampler_bench,
        "metrics": metrics_snapshot,
    });
    let path = format!("{out_dir}/BENCH_{sha}.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&artifact).expect("artifact serializes"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");

    // Fail only after the artifact is on disk — a maintainer debugging a
    // tripped gate needs those numbers.
    if !dominance_failures.is_empty() {
        eprintln!(
            "error: multi-start dominance violated ({}):",
            dominance_failures.len()
        );
        for f in &dominance_failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }

    if let Some(baseline_path) = flag("--check") {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: baseline {baseline_path} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut failures = check_against_baseline(&baseline, &artifact);
        // The "<5% overhead" claim for observability: an enabled handle
        // (live registry + trace) must stay within tolerance of the
        // disabled default on the same seeded solve. Self-contained — no
        // baseline fields needed — but gated here so local artifact-only
        // runs never flake on runner noise.
        {
            let f = |key: &str| obs_bench.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let (off, on) = (f("disabled_wall_secs"), f("enabled_wall_secs"));
            if on > off * (1.0 + OBS_OVERHEAD_TOLERANCE) && on > off + OBS_OVERHEAD_SLACK_SECS {
                failures.push(format!(
                    "obs overhead: enabled {on:.4}s vs disabled {off:.4}s (> {:.0}% over)",
                    OBS_OVERHEAD_TOLERANCE * 100.0
                ));
            }
        }
        // The health sampler (per-epoch registry sample + rule sweep)
        // rides the same budget: attaching a monitor must stay within
        // tolerance of the plain obs-enabled watch loop. Self-contained
        // like the obs-overhead gate.
        {
            let f = |key: &str| {
                sampler_bench
                    .get(key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            };
            let (off, on) = (f("plain_wall_secs"), f("sampled_wall_secs"));
            if on > off * (1.0 + OBS_OVERHEAD_TOLERANCE) && on > off + OBS_OVERHEAD_SLACK_SECS {
                failures.push(format!(
                    "obs sampler overhead: sampled {on:.4}s vs plain {off:.4}s (> {:.0}% over)",
                    OBS_OVERHEAD_TOLERANCE * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "check: no regressions vs {baseline_path} (wall +{:.0}% tolerance)",
                WALL_TOLERANCE * 100.0
            );
        } else {
            eprintln!(
                "check: {} regression(s) vs {baseline_path}:",
                failures.len()
            );
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
