//! The `drift-watch` workload: a tracker built from rndAt64x100 at 4 sites
//! observes the base template frequencies with a seeded hot set that is
//! drawn afresh every phase, and the watcher closes one epoch after each
//! round of observations.
//!
//! Untraced repetitions drive `Watcher::end_epoch`. Traced repetitions
//! drive the same public functions the watcher calls, in its order
//! (`OnlineWorkload::snapshot`, `assess_drift`, the warm
//! `SaSolver::solve`, `plan_migration`, `MigrationPlan::batched`,
//! `Deployment::migrate_batched`), each inside its own span, and must
//! reach the same decisions.

use crate::spans::{self_times, self_total, Tracer};
use crate::stats::{mean, median, percentile};
use crate::synth::txn_weight;
use crate::{Checks, Context, Metrics, Outcome, RunConfig, Size, SOLVER_SEED, THREADS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;
use vpart_core::sa::SaSolver;
use vpart_core::{evaluate, CostCoefficients, SolveReport};
use vpart_engine::{Deployment, FaultInjector, MigrationJournal};
use vpart_model::{Instance, Partitioning, TxnId};
use vpart_online::{
    assess_drift, plan_migration, DecayMode, OnlineWorkload, TrackerConfig, WatchConfig, Watcher,
};

const INSTANCE: &str = "rndAt64x100";
const SITES: usize = 4;
/// Set-up repetitions; `setup_s` reports their median plus the warm-up.
const SETUP_REPEATS: usize = 3;
/// Epochs per hot-set phase.
const PHASE: usize = 8;
/// Templates in the hot set.
const HOT: usize = 10;
/// Count multiplier of hot templates.
const HOT_MULT: f64 = 200.0;
/// Executions observed per unit of template weight per epoch.
const BASE: f64 = 10.0;
/// Byte budget per migration batch.
const BATCH_BYTES: f64 = 4096.0;

/// Length of the run.
#[derive(Debug, Clone)]
struct Spec {
    epochs: usize,
    /// Timed repetitions run even when `--seconds` has already elapsed.
    min_reps: usize,
}

impl Spec {
    fn new(size: Size) -> Self {
        match size {
            Size::Full => Self {
                epochs: 2000,
                min_reps: 2,
            },
            Size::Tiny => Self {
                epochs: 48,
                min_reps: 1,
            },
        }
    }
}

/// The seeded observation schedule: per-epoch counts per template.
struct Schedule {
    weights: Vec<f64>,
    /// The hot templates of each phase, drawn afresh from the seed.
    hot_sets: Vec<Vec<usize>>,
}

impl Schedule {
    fn new(instance: &Instance, spec: &Spec, seed: u64) -> Self {
        let n = instance.n_txns();
        let weights = (0..n)
            .map(|t| txn_weight(instance, TxnId::from_index(t)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut templates: Vec<usize> = (0..n).collect();
        let hot_sets = (0..spec.epochs.div_ceil(PHASE))
            .map(|_| {
                templates.shuffle(&mut rng);
                templates[..HOT.min(n)].to_vec()
            })
            .collect();
        Self { weights, hot_sets }
    }

    /// Counts observed in `epoch`: base weights, with the phase's hot
    /// templates multiplied.
    fn counts(&self, epoch: usize) -> Vec<f64> {
        let mut counts: Vec<f64> = self.weights.iter().map(|w| w * BASE).collect();
        for &t in &self.hot_sets[epoch / PHASE] {
            counts[t] *= HOT_MULT;
        }
        counts
    }
}

/// What one epoch decided: whether drift triggered, and the bytes the
/// migration shipped.
type Decision = (bool, f64);

/// One repetition of the whole epoch loop.
#[derive(Default)]
struct Rep {
    /// Per-epoch latency of epochs 1.., milliseconds.
    epoch_ms: Vec<f64>,
    /// Epochs that produced advice: epoch 0 (first observations plus the
    /// cold bootstrap solve) and every repair.
    advise_s: f64,
    /// Sum of all epoch latencies.
    total_s: f64,
    decisions: Vec<Decision>,
    /// Mean over epochs of the incumbent's reduction on the snapshot
    /// (only in repetitions that judge the layouts).
    cost_reduction: Option<f64>,
    migrated_bytes: f64,
    observed_txns: f64,
    layer: Vec<(&'static str, f64)>,
}

fn watch_config() -> WatchConfig {
    WatchConfig {
        sites: SITES,
        seed: SOLVER_SEED,
        threads: THREADS,
        migration_batch_bytes: BATCH_BYTES,
        ..WatchConfig::default()
    }
}

/// `1 − obj4(layout) / obj4(single site)` on `snapshot`.
fn reduction(snapshot: &Instance, layout: &Partitioning, cfg: &WatchConfig) -> Result<f64, String> {
    let single = Partitioning::single_site(snapshot, 1).ctx("single site")?;
    let base = evaluate(snapshot, &single, &cfg.cost).objective4;
    Ok(1.0 - evaluate(snapshot, layout, &cfg.cost).objective4 / base)
}

fn observe(tracker: &mut OnlineWorkload, schedule: &Schedule, epoch: usize) -> Result<f64, String> {
    let counts = schedule.counts(epoch);
    for (t, &c) in counts.iter().enumerate() {
        tracker.observe(t, c).ctx("observe")?;
    }
    Ok(counts.iter().sum())
}

/// The tracker forgets closed epochs (decay factor 0), so every hot-set
/// change is one clean shift of the snapshot: it triggers at most one
/// repair instead of a seed-dependent number of partial ones while old
/// weight decays, which keeps the totals steady across seeds.
fn tracker(instance: &Instance) -> Result<OnlineWorkload, String> {
    let config = TrackerConfig {
        decay: DecayMode::Exponential { factor: 0.0 },
        ..TrackerConfig::default()
    };
    let tracker = OnlineWorkload::from_instance(instance, config).ctx("tracker")?;
    if tracker.n_templates() != instance.n_txns() {
        return Err(format!(
            "tracker merged templates: {} of {}",
            tracker.n_templates(),
            instance.n_txns()
        ));
    }
    Ok(tracker)
}

/// The watcher's own loop, one `end_epoch` per epoch. With `judge`, each
/// epoch's incumbent is also scored on the epoch's snapshot, off the
/// clock; timed repetitions skip that so it does not evict the watcher's
/// working set between epochs.
fn untraced_rep(
    spec: &Spec,
    instance: &Instance,
    schedule: &Schedule,
    judge: bool,
    checks: &mut Checks,
) -> Result<Rep, String> {
    let cfg = watch_config();
    let mut watcher = Watcher::new(tracker(instance)?, cfg.clone()).ctx("watcher")?;
    let mut rep = Rep::default();
    let mut reductions = Vec::with_capacity(spec.epochs);
    for epoch in 0..spec.epochs {
        let t = Instant::now();
        rep.observed_txns += observe(watcher.tracker_mut(), schedule, epoch)?;
        let observe_s = t.elapsed().as_secs_f64();
        // Off the clock: the snapshot this epoch will be judged on.
        let snapshot = if judge {
            Some(watcher.tracker().snapshot().ctx("snapshot")?)
        } else {
            None
        };
        let t = Instant::now();
        let out = watcher.end_epoch("drift").ctx("end epoch")?;
        let epoch_s = observe_s + t.elapsed().as_secs_f64();
        rep.total_s += epoch_s;
        if epoch > 0 {
            rep.epoch_ms.push(epoch_s * 1e3);
        }
        if epoch == 0 || out.triggered {
            rep.advise_s += epoch_s;
        }
        let bytes = out.migration.as_ref().map_or(0.0, |m| m.measured_bytes);
        if let Some(m) = &out.migration {
            checks.check(m.meter_matches, || {
                format!(
                    "epoch {epoch}: migration meter {} B != plan estimate {} B",
                    m.measured_bytes, m.estimated_bytes
                )
            });
        }
        rep.migrated_bytes += bytes;
        rep.decisions.push((out.triggered, bytes));
        if let Some(snapshot) = &snapshot {
            let incumbent = watcher.incumbent().ok_or("no incumbent after an epoch")?;
            reductions.push(reduction(snapshot, incumbent, &cfg)?);
        }
    }
    rep.cost_reduction = judge.then(|| mean(&reductions));
    Ok(rep)
}

fn sa_checks(report: &SolveReport, checks: &mut Checks) {
    let best = report.breakdown.objective6;
    let chain0 = report
        .restarts
        .first()
        .map_or(f64::INFINITY, |c| c.objective6);
    checks.check(best <= chain0 * (1.0 + 1e-12), || {
        format!("SA multi-start objective6 {best} is worse than its chain 0 ({chain0})")
    });
}

/// The watcher's steps driven one public call at a time, each in a span.
fn traced_rep(
    spec: &Spec,
    instance: &Instance,
    schedule: &Schedule,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Rep, String> {
    let cfg = watch_config();
    let mut tracker = tracker(instance)?;
    let mark = tracer.mark();
    let mut incumbent: Option<Partitioning> = None;
    let mut rep = Rep::default();
    let mut reductions = Vec::with_capacity(spec.epochs);
    let (mut sa_moves, mut sa_accepted, mut sa_chains) = (0usize, 0usize, 0usize);
    let (mut batches, mut peak_transient, mut journal_bytes) = (0usize, 0.0f64, 0usize);
    for epoch in 0..spec.epochs {
        let t = Instant::now();
        let (snapshot, decision) = tracer.span("epoch", |tr| -> Result<_, String> {
            rep.observed_txns += tr.span("observe", |_| observe(&mut tracker, schedule, epoch))?;
            let snapshot = tr
                .span("snapshot", |_| tracker.snapshot())
                .ctx("snapshot")?;
            let mut decision = (false, 0.0);
            match incumbent.take() {
                None => {
                    let report = tr
                        .span("sa", |_| {
                            SaSolver::new(cfg.cold_sa()).solve(&snapshot, SITES, &cfg.cost)
                        })
                        .ctx("cold solve")?;
                    sa_checks(&report, checks);
                    sa_moves += report.restarts.iter().map(|c| c.iterations).sum::<usize>();
                    sa_accepted += report.restarts.iter().map(|c| c.accepted).sum::<usize>();
                    sa_chains += report.restarts.len();
                    incumbent = Some(report.partitioning);
                }
                Some(current) => {
                    let assessment = tr
                        .span("assess", |_| {
                            assess_drift(&snapshot, &current, &cfg.cost, &cfg.drift)
                        })
                        .ctx("assess drift")?;
                    let adapted = assessment.adapted.clone();
                    let mut next = adapted.clone();
                    if assessment.triggered {
                        let warm_from = if assessment.bound < assessment.incumbent_cost {
                            assessment.bound_partitioning.clone()
                        } else {
                            adapted.clone()
                        };
                        let report = tr
                            .span("resolve", |_| {
                                SaSolver::new(cfg.warm_sa(warm_from))
                                    .solve(&snapshot, SITES, &cfg.cost)
                            })
                            .ctx("warm re-solve")?;
                        sa_moves += report.restarts.iter().map(|c| c.iterations).sum::<usize>();
                        sa_accepted += report.restarts.iter().map(|c| c.accepted).sum::<usize>();
                        sa_chains += report.restarts.len();
                        let plan = tr
                            .span("plan", |_| {
                                plan_migration(
                                    &snapshot,
                                    &adapted,
                                    &report.partitioning,
                                    cfg.rows_per_fragment,
                                )
                            })
                            .ctx("plan migration")?;
                        let batched = tr
                            .span("batch", |_| {
                                plan.batched(&snapshot, cfg.migration_batch_bytes)
                            })
                            .ctx("batch migration")?;
                        let mut journal = MigrationJournal::new();
                        let applied = tr.span("migrate", |_| -> Result<_, String> {
                            let mut dep =
                                Deployment::new(&snapshot, &adapted, cfg.rows_per_fragment)
                                    .ctx("deploy")?;
                            dep.migrate_batched(
                                &batched,
                                &mut journal,
                                &mut FaultInjector::disabled(),
                            )
                            .ctx("migrate")
                        })?;
                        checks.check(applied.bytes_moved == plan.estimated_bytes(), || {
                            format!(
                                "epoch {epoch}: migration meter {} B != plan estimate {} B",
                                applied.bytes_moved,
                                plan.estimated_bytes()
                            )
                        });
                        batches += batched.n_batches();
                        peak_transient = peak_transient.max(batched.peak_transient_bytes);
                        journal_bytes += journal.to_jsonl().len();
                        decision = (true, applied.bytes_moved);
                        next = plan.to;
                    }
                    incumbent = Some(next);
                }
            }
            tracker.advance_epoch();
            Ok((snapshot, decision))
        })?;
        let epoch_s = t.elapsed().as_secs_f64();
        rep.total_s += epoch_s;
        if epoch > 0 {
            rep.epoch_ms.push(epoch_s * 1e3);
        }
        if epoch == 0 || decision.0 {
            rep.advise_s += epoch_s;
        }
        rep.migrated_bytes += decision.1;
        rep.decisions.push(decision);
        let layout = incumbent.as_ref().ok_or("no incumbent after an epoch")?;
        reductions.push(reduction(&snapshot, layout, &cfg)?);
        // Coefficient build on the epoch's snapshot, off the epoch clock.
        tracer.span("coeffs", |_| {
            CostCoefficients::compute(&snapshot, &cfg.cost)
        });
    }
    rep.cost_reduction = Some(mean(&reductions));

    let sp = tracer.since(mark);
    let repairs = rep.decisions.iter().filter(|d| d.0).count();
    let sa_s = self_total(sp, "sa") + self_total(sp, "resolve");
    let migrate_ms = self_times(sp, "migrate");
    rep.layer = vec![
        ("ingest.s", 0.0),
        ("ingest.stmts_per_s", 0.0),
        ("ingest.skipped", 0.0),
        ("coeffs.us", median(&self_times(sp, "coeffs")) * 1e6),
        ("sa.s", sa_s),
        ("sa.moves_per_s", sa_moves as f64 / sa_s),
        (
            "sa.accept_ratio",
            sa_accepted as f64 / sa_moves.max(1) as f64,
        ),
        ("sa.chains", sa_chains as f64),
        ("resolve.warm_ms", median(&self_times(sp, "resolve")) * 1e3),
        ("qp.s", 0.0),
        ("qp.nodes", 0.0),
        ("qp.pivots", 0.0),
        ("qp.nodes_per_s", 0.0),
        ("qp.pivots_per_s", 0.0),
        ("qp.optimal", 0.0),
        ("plan.ms", median(&self_times(sp, "plan")) * 1e3),
        ("batch.ms", median(&self_times(sp, "batch")) * 1e3),
        ("plan.batches", batches as f64 / repairs.max(1) as f64),
        ("plan.peak_transient_bytes", peak_transient),
        ("migrate.ms", median(&migrate_ms) * 1e3),
        ("migrate.bytes", rep.migrated_bytes),
        (
            "migrate.bytes_per_s",
            rep.migrated_bytes / migrate_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE),
        ),
        ("journal.bytes", journal_bytes as f64),
        ("replay.deploy_s", 0.0),
        ("replay.txns_per_s.t1", 0.0),
        ("replay.txns_per_s.t2", 0.0),
        ("replay.scaling", 0.0),
        ("replay.bytes_per_txn", 0.0),
        ("replay.transfer_bytes_per_txn", 0.0),
        ("replay.model_error", 0.0),
        (
            "tracker.observe_us",
            median(&self_times(sp, "observe")) * 1e6,
        ),
        (
            "tracker.snapshot_ms",
            median(&self_times(sp, "snapshot")) * 1e3,
        ),
        ("drift.assess_ms", median(&self_times(sp, "assess")) * 1e3),
        ("epoch.repairs", repairs as f64),
        (
            "epoch.repair_share",
            repairs as f64 / (spec.epochs - 1).max(1) as f64,
        ),
    ];
    Ok(rep)
}

/// Runs the `drift-watch` workload (see the module docs).
pub fn run(run: &RunConfig, tracer: &mut Tracer, checks: &mut Checks) -> Result<Outcome, String> {
    let spec = Spec::new(run.size);
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let instance = vpart_instances::by_name(INSTANCE)
            .ok_or_else(|| format!("unknown instance {INSTANCE}"))?;
        let schedule = Schedule::new(&instance, &spec, run.seed);
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some((instance, schedule));
    }
    let (instance, schedule) = prepared.ok_or("no set-up ran")?;
    // Warm-up: one untimed repetition, which also pins the decisions.
    let t = Instant::now();
    let reference = untraced_rep(&spec, &instance, &schedule, true, checks)?;
    let setup_s = median(&setup) + t.elapsed().as_secs_f64();
    let repairs = reference.decisions.iter().filter(|d| d.0).count();
    eprintln!(
        "{INSTANCE}: {} epochs, {repairs} repairs, {:.0} B migrated",
        spec.epochs, reference.migrated_bytes
    );

    let deadline = Instant::now() + run.seconds;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while Instant::now() < deadline
        || plain.len() < spec.min_reps
        || (run.trace && traced.len() < spec.min_reps)
    {
        let rep = if run.trace && traced.len() < plain.len() {
            traced.push(traced_rep(&spec, &instance, &schedule, tracer, checks)?);
            traced.last()
        } else {
            plain.push(untraced_rep(&spec, &instance, &schedule, false, checks)?);
            plain.last()
        };
        let rep = rep.ok_or("repetition vanished")?;
        checks.check(rep.decisions == reference.decisions, || {
            "epoch decisions differ between repetitions of one seed".to_string()
        });
        checks.check(
            rep.cost_reduction.is_none_or(|r| Some(r) == reference.cost_reduction)
                && rep.migrated_bytes == reference.migrated_bytes,
            || {
                format!(
                    "seeded results moved between repetitions: reduction {:?} vs {:?}, bytes {} vs {}",
                    rep.cost_reduction,
                    reference.cost_reduction,
                    rep.migrated_bytes,
                    reference.migrated_bytes
                )
            },
        );
    }
    eprintln!(
        "{} untraced and {} traced repetitions",
        plain.len(),
        traced.len()
    );

    let col = |reps: &[Rep], f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let epochs: Vec<f64> = plain.iter().flat_map(|r| r.epoch_ms.clone()).collect();
    let mut end_to_end = Metrics::default();
    end_to_end.put("setup_s", setup_s, "s");
    end_to_end.put("advise_s", median(&col(&plain, |r| r.advise_s)), "s");
    end_to_end.put("pipeline_s", median(&col(&plain, |r| r.total_s)), "s");
    let cost_reduction = reference
        .cost_reduction
        .ok_or("the reference repetition judges every epoch")?;
    end_to_end.put("cost_reduction", cost_reduction, "ratio");
    end_to_end.put(
        "replay_txns_per_s",
        median(&col(&plain, |r| r.observed_txns / r.total_s)),
        "txn/s",
    );
    end_to_end.put("epoch_p50_ms", percentile(&epochs, 0.50), "ms");
    end_to_end.put("epoch_p95_ms", percentile(&epochs, 0.95), "ms");
    end_to_end.put("migrated_bytes", reference.migrated_bytes, "B");

    let mut per_layer = Metrics::default();
    if run.trace {
        for (k, &(name, _)) in traced[0].layer.iter().enumerate() {
            let values: Vec<f64> = traced.iter().map(|r| r.layer[k].1).collect();
            per_layer.put(name, median(&values), crate::layer_unit(name));
        }
        let overhead =
            median(&col(&traced, |r| r.total_s)) / median(&col(&plain, |r| r.total_s)) - 1.0;
        per_layer.put("trace.overhead_frac", overhead, "ratio");
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
    })
}
