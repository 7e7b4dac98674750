//! The two pipeline workloads: SQL log → ingest → SA multi-start
//! (→ QP warm-started from SA) → batched journaled migration from the
//! single-site layout → replay of the advised layout at 1 and 2 threads.

use crate::spans::{self_times, self_total, Tracer};
use crate::stats::{mean, median, percentile};
use crate::synth::{self, SqlWorkload};
use crate::{Checks, Context, Metrics, Outcome, RunConfig, Size, SOLVER_SEED, THREADS};
use std::time::Instant;
use vpart_core::qp::{QpConfig, QpSolver};
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{evaluate, predicted_txn_bytes, CostCoefficients, CostConfig, SolveReport};
use vpart_engine::{
    Deployment, FaultInjector, MigrationJournal, PredictedBytes, ReplayConfig, ReplayDeployment,
    ReplayReport, ReplayStream,
};
use vpart_ingest::{IngestOptions, Ingestion};
use vpart_model::workload::QuerySpec;
use vpart_model::{Instance, Partitioning, TxnId, Workload};
use vpart_online::plan_migration;

/// Row-range shards of the replay store (the CLI default).
const REPLAY_SHARDS: usize = 32;
/// QP wall-clock limit; TPC-C at 4 sites proves optimality well inside it.
const QP_TIME_LIMIT_S: f64 = 120.0;
/// Set-up repetitions; `setup_s` reports their median plus the warm-up.
const SETUP_REPEATS: usize = 3;
/// Rows per fragment of the migration deployment.
const MIGRATION_ROWS: usize = 256;
/// The migration's byte budget is its estimate divided by this.
const MIGRATION_BATCHES: f64 = 8.0;

/// One pipeline workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub instance: &'static str,
    pub sites: usize,
    /// DML statements in the synthesized log.
    pub statements: usize,
    pub sa_restarts: usize,
    /// Run QP warm-started from the SA result.
    pub qp: bool,
    /// Rows per table of the replay store.
    pub replay_rows: usize,
    /// Transactions per replay pass.
    pub replay_stream: usize,
    /// Passes per thread count; each pass is one `replay` call.
    pub replay_passes: usize,
    /// Timed iterations run even when `--seconds` has already elapsed.
    pub min_iterations: usize,
}

impl Spec {
    pub fn tpcc(size: Size) -> Self {
        let full = Self {
            instance: "tpcc",
            sites: 4,
            statements: 40_000,
            sa_restarts: 4,
            qp: true,
            replay_rows: 4096,
            replay_stream: 8000,
            replay_passes: 20,
            min_iterations: 3,
        };
        match size {
            Size::Full => full,
            // Two sites keep the smoke test's QP short in debug builds.
            Size::Tiny => Self {
                sites: 2,
                statements: 2000,
                replay_rows: 256,
                replay_stream: 200,
                replay_passes: 3,
                min_iterations: 1,
                ..full
            },
        }
    }

    pub fn rnd_a64(size: Size) -> Self {
        let full = Self {
            instance: "rndAt64x100",
            sites: 4,
            statements: 4_000,
            sa_restarts: 8,
            qp: false,
            replay_rows: 1024,
            replay_stream: 50_000,
            replay_passes: 4,
            min_iterations: 3,
        };
        match size {
            Size::Full => full,
            Size::Tiny => Self {
                statements: 1000,
                replay_rows: 128,
                replay_stream: 200,
                replay_passes: 3,
                min_iterations: 1,
                ..full
            },
        }
    }
}

/// Set-up output: the source instance and its SQL rendering.
struct Prepared {
    source: Instance,
    sql: SqlWorkload,
}

/// One pass through the pipeline.
struct Iteration {
    advise_s: f64,
    pipeline_s: f64,
    /// Per-pass wall of the 2-thread replay, milliseconds.
    pass_ms_t2: Vec<f64>,
    /// Replay throughput at 1 and 2 threads.
    txns_per_s: [f64; 2],
    cost_reduction: f64,
    migrated_bytes: f64,
    /// Per-layer values (filled only when tracing).
    layer: Vec<(&'static str, f64)>,
}

/// The ingested instance with each transaction's frequencies divided by
/// its least frequent query's: one engine execution then runs every
/// statement of the template as often as one log occurrence does, while
/// the replay stream keeps the log's mix.
fn per_execution(instance: &Instance) -> Result<Instance, String> {
    let workload = instance.workload();
    let mut wb = Workload::builder(instance.schema());
    for t in 0..instance.n_txns() {
        let txn = workload.txn(TxnId::from_index(t));
        let weight = txn
            .queries
            .iter()
            .map(|&q| workload.query(q).frequency)
            .fold(f64::INFINITY, f64::min);
        let mut qids = Vec::with_capacity(txn.queries.len());
        for &qid in &txn.queries {
            let q = workload.query(qid);
            let mut spec = if q.kind.is_write() {
                QuerySpec::write(q.name.clone())
            } else {
                QuerySpec::read(q.name.clone())
            }
            .access(&q.attrs)
            .frequency(q.frequency / weight);
            for &(table, rows) in &q.table_rows {
                spec = spec.rows(table, rows);
            }
            qids.push(wb.add_query(spec).ctx("per-execution query")?);
        }
        wb.transaction(txn.name.clone(), &qids)
            .ctx("per-execution transaction")?;
    }
    let workload = wb.build().ctx("per-execution workload")?;
    Instance::new(instance.name(), instance.schema().clone(), workload)
        .ctx("per-execution instance")
}

/// `(nodes, pivots)` from the QP report's detail line
/// (`mip: N nodes, M lp iterations, ...`).
fn qp_counts(report: &SolveReport) -> (f64, f64) {
    let mut words = report.detail.split_whitespace();
    let mut nodes = 0.0;
    let mut pivots = 0.0;
    while let Some(w) = words.next() {
        if let Ok(n) = w.parse::<f64>() {
            match words.next() {
                Some("nodes,") => nodes = n,
                Some("lp") => pivots = n,
                _ => {}
            }
        }
    }
    (nodes, pivots)
}

fn ingest_checks(source: &Instance, ing: &Ingestion, checks: &mut Checks) {
    let r = &ing.report;
    checks.check(r.skipped.is_empty(), || {
        format!("ingest skipped {} statement(s)", r.skipped.len())
    });
    checks.check(r.width_fallbacks.is_empty(), || {
        format!(
            "ingest fell back on {} column width(s)",
            r.width_fallbacks.len()
        )
    });
    let i = &ing.instance;
    checks.check(
        (i.n_tables(), i.n_attrs(), i.n_txns())
            == (source.n_tables(), source.n_attrs(), source.n_txns()),
        || {
            format!(
                "round trip changed the shape: tables/attrs/txns {}/{}/{} vs source {}/{}/{}",
                i.n_tables(),
                i.n_attrs(),
                i.n_txns(),
                source.n_tables(),
                source.n_attrs(),
                source.n_txns()
            )
        },
    );
}

fn sa_checks(sa: &SolveReport, checks: &mut Checks) {
    let best = sa.breakdown.objective6;
    let chain0 = sa.restarts.first().map_or(f64::INFINITY, |c| c.objective6);
    checks.check(best <= chain0 * (1.0 + 1e-12), || {
        format!("SA multi-start objective6 {best} is worse than its chain 0 ({chain0})")
    });
}

fn iteration(
    spec: &Spec,
    prep: &Prepared,
    run: &RunConfig,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Iteration, String> {
    let cost = CostConfig::default();
    let mark = tracer.mark();

    // Advise: log text → partitioning.
    let t = Instant::now();
    let (ing, sa, qp) = tracer.span("advise", |tr| -> Result<_, String> {
        let ing = tr
            .span("ingest", |_| {
                vpart_ingest::ingest(
                    &prep.sql.schema,
                    &prep.sql.log,
                    &IngestOptions::default().with_name(spec.instance),
                )
            })
            .ctx("ingest")?;
        let sa = tr
            .span("sa", |_| {
                SaSolver::new(
                    SaConfig {
                        seed: SOLVER_SEED,
                        ..SaConfig::default()
                    }
                    .multi_start(spec.sa_restarts, THREADS),
                )
                .solve(&ing.instance, spec.sites, &cost)
            })
            .ctx("SA")?;
        let qp = if spec.qp {
            let config = QpConfig {
                warm_start: Some(sa.partitioning.clone()),
                ..QpConfig::with_time_limit(QP_TIME_LIMIT_S)
            };
            let qp = tr
                .span("qp", |_| {
                    QpSolver::new(config).solve(&ing.instance, spec.sites, &cost)
                })
                .ctx("QP")?;
            Some(qp)
        } else {
            None
        };
        Ok((ing, sa, qp))
    })?;
    let advise_s = t.elapsed().as_secs_f64();

    ingest_checks(&prep.source, &ing, checks);
    sa_checks(&sa, checks);
    if let Some(qp) = &qp {
        checks.check(qp.is_optimal(), || format!("QP not optimal: {}", qp.detail));
        let (q, s) = (qp.breakdown.objective6, sa.breakdown.objective6);
        checks.check(q <= s * (1.0 + 1e-9), || {
            format!("QP objective6 {q} is worse than its SA warm start {s}")
        });
    }
    let ins = &ing.instance;
    let advised = qp.as_ref().unwrap_or(&sa).partitioning.clone();
    let baseline = evaluate(
        ins,
        &Partitioning::single_site(ins, 1).ctx("single site")?,
        &cost,
    )
    .objective4;
    let cost_reduction = 1.0 - evaluate(ins, &advised, &cost).objective4 / baseline;
    if tracer.enabled() {
        // Coefficient build on the advised instance, off the pipeline clock.
        tracer.span("coeffs", |_| CostCoefficients::compute(ins, &cost));
    }

    // Migrate: single-site → advised, batched through the journal.
    let single = Partitioning::single_site(ins, spec.sites).ctx("single site")?;
    let t = Instant::now();
    let (plan, batched, migrated, journal) = tracer.span("migrate", |tr| -> Result<_, String> {
        let plan = tr
            .span("plan", |_| {
                plan_migration(ins, &single, &advised, MIGRATION_ROWS)
            })
            .ctx("plan migration")?;
        let budget = (plan.estimated_bytes() / MIGRATION_BATCHES).max(1.0);
        let batched = tr
            .span("batch", |_| plan.batched(ins, budget))
            .ctx("batch migration")?;
        let (migrated, journal) = tr.span("migrate_batched", |_| -> Result<_, String> {
            let mut journal = MigrationJournal::new();
            let mut dep =
                Deployment::new(ins, &single, MIGRATION_ROWS).ctx("deploy single site")?;
            let report = dep
                .migrate_batched(&batched, &mut journal, &mut FaultInjector::disabled())
                .ctx("migrate")?;
            Ok((report, journal))
        })?;
        Ok((plan, batched, migrated, journal))
    })?;
    let migrate_s = t.elapsed().as_secs_f64();
    checks.check(
        migrated.completed && migrated.bytes_moved == plan.estimated_bytes(),
        || {
            format!(
                "migration meter {} B != plan estimate {} B (completed: {})",
                migrated.bytes_moved,
                plan.estimated_bytes(),
                migrated.completed
            )
        },
    );

    // Replay: a fixed number of transactions at 1 and 2 threads.
    let replay_ins = per_execution(ins)?;
    let stream = ReplayStream::weighted(ins, spec.replay_stream, run.seed);
    let per_txn = predicted_txn_bytes(&replay_ins, &advised, &cost);
    let mut predicted = PredictedBytes::default();
    for (t, &c) in stream.counts(replay_ins.n_txns()).iter().enumerate() {
        predicted.read += c as f64 * per_txn[t].read;
        predicted.written += c as f64 * per_txn[t].written;
        predicted.transferred += c as f64 * per_txn[t].transferred;
    }
    let mut replay_s = 0.0;
    let mut pass_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reports: [Vec<ReplayReport>; 2] = [Vec::new(), Vec::new()];
    for (k, threads) in [1usize, 2].into_iter().enumerate() {
        let t = Instant::now();
        tracer.span("replay", |tr| -> Result<(), String> {
            let mut dep = tr
                .span("deploy", |_| {
                    ReplayDeployment::new(&replay_ins, &advised, spec.replay_rows, REPLAY_SHARDS)
                })
                .ctx("replay deploy")?;
            let config = ReplayConfig::deterministic(threads);
            for _ in 0..spec.replay_passes {
                let tp = Instant::now();
                let report = tr
                    .span("replay_pass", |_| {
                        dep.replay(&stream, &config, Some(&predicted))
                    })
                    .ctx("replay")?;
                pass_s[k].push(tp.elapsed().as_secs_f64());
                reports[k].push(report);
            }
            Ok(())
        })?;
        replay_s += t.elapsed().as_secs_f64();
    }
    let txns = (spec.replay_passes * stream.len()) as f64;
    let txns_per_s = [
        txns / pass_s[0].iter().sum::<f64>(),
        txns / pass_s[1].iter().sum::<f64>(),
    ];
    for (pass, (r1, r2)) in reports[0].iter().zip(&reports[1]).enumerate() {
        checks.check(r1.meter_fingerprint() == r2.meter_fingerprint(), || {
            format!("replay pass {pass}: meters differ between 1 and 2 threads")
        });
    }
    let mut model_error = 0.0f64;
    for r in reports.iter().flatten() {
        let e = r.model_error.map_or(f64::INFINITY, |m| {
            m.overall_ratio
                .abs()
                .max(m.read_ratio.abs())
                .max(m.write_ratio.abs())
                .max(m.transfer_ratio.abs())
        });
        model_error = model_error.max(e);
    }
    checks.check(model_error == 0.0, || {
        format!("replay model error {model_error} is not exactly 0")
    });

    let mut layer = Vec::new();
    if tracer.enabled() {
        let sp = tracer.since(mark);
        let ingest_s = self_total(sp, "ingest");
        let sa_s = self_total(sp, "sa");
        let moves: usize = sa.restarts.iter().map(|c| c.iterations).sum();
        let accepted: usize = sa.restarts.iter().map(|c| c.accepted).sum();
        let qp_s = self_total(sp, "qp");
        let (nodes, pivots) = qp.as_ref().map_or((0.0, 0.0), qp_counts);
        let migrate_ms = self_total(sp, "migrate_batched") * 1e3;
        let first = &reports[1][0];
        let totals = first.totals();
        layer = vec![
            ("ingest.s", ingest_s),
            (
                "ingest.stmts_per_s",
                ing.report.statements_ingested as f64 / ingest_s,
            ),
            ("ingest.skipped", ing.report.skipped.len() as f64),
            ("coeffs.us", self_total(sp, "coeffs") * 1e6),
            ("sa.s", sa_s),
            ("sa.moves_per_s", moves as f64 / sa_s),
            ("sa.accept_ratio", accepted as f64 / moves.max(1) as f64),
            ("sa.chains", sa.restarts.len() as f64),
            ("resolve.warm_ms", 0.0),
            ("qp.s", qp_s),
            ("qp.nodes", nodes),
            ("qp.pivots", pivots),
            (
                "qp.nodes_per_s",
                if qp_s > 0.0 { nodes / qp_s } else { 0.0 },
            ),
            (
                "qp.pivots_per_s",
                if qp_s > 0.0 { pivots / qp_s } else { 0.0 },
            ),
            (
                "qp.optimal",
                f64::from(qp.as_ref().is_some_and(|q| q.is_optimal())),
            ),
            ("plan.ms", self_total(sp, "plan") * 1e3),
            ("batch.ms", self_total(sp, "batch") * 1e3),
            ("plan.batches", batched.n_batches() as f64),
            ("plan.peak_transient_bytes", batched.peak_transient_bytes),
            ("migrate.ms", migrate_ms),
            ("migrate.bytes", migrated.bytes_moved),
            (
                "migrate.bytes_per_s",
                migrated.bytes_moved / (migrate_ms * 1e-3),
            ),
            ("journal.bytes", journal.to_jsonl().len() as f64),
            ("replay.deploy_s", mean(&self_times(sp, "deploy"))),
            ("replay.txns_per_s.t1", txns_per_s[0]),
            ("replay.txns_per_s.t2", txns_per_s[1]),
            ("replay.scaling", txns_per_s[1] / txns_per_s[0]),
            (
                "replay.bytes_per_txn",
                totals.work() as f64 / first.stream_len as f64,
            ),
            (
                "replay.transfer_bytes_per_txn",
                first.transfer_bytes as f64 / first.stream_len as f64,
            ),
            ("replay.model_error", model_error),
            ("tracker.observe_us", 0.0),
            ("tracker.snapshot_ms", 0.0),
            ("drift.assess_ms", 0.0),
            ("epoch.repairs", 0.0),
            ("epoch.repair_share", 0.0),
        ];
    }

    Ok(Iteration {
        advise_s,
        pipeline_s: advise_s + migrate_s + replay_s,
        pass_ms_t2: pass_s[1].iter().map(|s| s * 1e3).collect(),
        txns_per_s,
        cost_reduction,
        migrated_bytes: migrated.bytes_moved,
        layer,
    })
}

/// Runs one pipeline workload (see the module docs).
pub fn run(
    spec: &Spec,
    run: &RunConfig,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    // Set-up: build the instance and synthesize its SQL, several times.
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let source = vpart_instances::by_name(spec.instance)
            .ok_or_else(|| format!("unknown instance {}", spec.instance))?;
        let sql = synth::synthesize(&source, spec.statements, run.seed)?;
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some(Prepared { source, sql });
    }
    let prep = prepared.ok_or("no set-up ran")?;
    eprintln!(
        "{}: {} statements in {} transactions, {} bytes of SQL",
        spec.instance,
        prep.sql.statements,
        prep.sql.occurrences,
        prep.sql.log.len()
    );
    // Warm-up: one untimed pass, which also pins the seeded results.
    let t = Instant::now();
    let reference = iteration(spec, &prep, run, &mut Tracer::new(false), checks)?;
    let setup_s = median(&setup) + t.elapsed().as_secs_f64();

    let deadline = Instant::now() + run.seconds;
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    while Instant::now() < deadline
        || plain.len() < spec.min_iterations
        || (run.trace && traced.len() < spec.min_iterations)
    {
        // With tracing, traced and untraced iterations alternate so drift
        // in machine load hits both alike.
        let it = if run.trace && traced.len() < plain.len() {
            let it = iteration(spec, &prep, run, tracer, checks)?;
            traced.push(it);
            traced.last()
        } else {
            let it = iteration(spec, &prep, run, &mut Tracer::new(false), checks)?;
            plain.push(it);
            plain.last()
        };
        let it = it.ok_or("iteration vanished")?;
        checks.check(
            it.cost_reduction == reference.cost_reduction
                && it.migrated_bytes == reference.migrated_bytes,
            || {
                format!(
                    "seeded results moved between iterations: reduction {} vs {}, bytes {} vs {}",
                    it.cost_reduction,
                    reference.cost_reduction,
                    it.migrated_bytes,
                    reference.migrated_bytes
                )
            },
        );
    }
    eprintln!(
        "{} untraced and {} traced iterations",
        plain.len(),
        traced.len()
    );

    let col = |its: &[Iteration], f: fn(&Iteration) -> f64| its.iter().map(f).collect::<Vec<_>>();
    let mut end_to_end = Metrics::default();
    let passes: Vec<f64> = plain.iter().flat_map(|i| i.pass_ms_t2.clone()).collect();
    end_to_end.put("setup_s", setup_s, "s");
    end_to_end.put("advise_s", median(&col(&plain, |i| i.advise_s)), "s");
    end_to_end.put("pipeline_s", median(&col(&plain, |i| i.pipeline_s)), "s");
    end_to_end.put("cost_reduction", reference.cost_reduction, "ratio");
    end_to_end.put(
        "replay_txns_per_s",
        median(&col(&plain, |i| i.txns_per_s[1])),
        "txn/s",
    );
    end_to_end.put("epoch_p50_ms", percentile(&passes, 0.50), "ms");
    end_to_end.put("epoch_p95_ms", percentile(&passes, 0.95), "ms");
    end_to_end.put("migrated_bytes", reference.migrated_bytes, "B");

    let mut per_layer = Metrics::default();
    if run.trace {
        for (k, &(name, _)) in traced[0].layer.iter().enumerate() {
            let values: Vec<f64> = traced.iter().map(|i| i.layer[k].1).collect();
            per_layer.put(name, median(&values), crate::layer_unit(name));
        }
        let overhead =
            median(&col(&traced, |i| i.pipeline_s)) / median(&col(&plain, |i| i.pipeline_s)) - 1.0;
        per_layer.put("trace.overhead_frac", overhead, "ratio");
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
    })
}
