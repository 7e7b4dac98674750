//! Algorithm 1: simulated annealing with alternating fixes.
//!
//! ```text
//! 1: initialize temperature τ > 0, reduction factor ρ ∈ (0,1)
//! 2: set number L of inner loops
//! 3: initialize x randomly (each transaction a uniform site)
//! 4: fix ← "x"
//! 5: S ← findSolution(fix)
//! 6: while not frozen:
//! 7:   for i in 1..=L:
//! 8:     x ← neighborhood of x   (move ~10% of transactions)
//! 9:     y ← neighborhood of y   (extend or drop replication of ~10% of attributes)
//! 10:    S' ← findSolution(fix)
//! 11:    Δ ← cost(S') − cost(S)
//! 12:    accept if Δ ≤ 0 or rand < e^(−Δ/τ)
//! 13:    fix ← the other element of {"x","y"}
//! 14:  τ ← ρ·τ
//! ```
//!
//! The initial temperature follows §5.1: a solution 5% worse than the best
//! is accepted with 50% probability in the first iterations, giving
//! `τ₀ = 0.05·C* / ln 2`. Freezing: the temperature decayed below
//! `min_temp_ratio·τ₀`, or no best-cost improvement for `freeze_levels`
//! consecutive temperature levels, or the time limit expired.
//!
//! # Incremental evaluation
//!
//! The paper's inner loop re-solves `findSolution(fix)` and re-evaluates
//! the full objective for every candidate — `O(nnz + |A|·|S|)` per move,
//! which Amossen identifies as the practical bottleneck. This port drives
//! the accept/reject loop through [`IncrementalCost`] deltas instead: a
//! neighborhood perturbation mutates the running state in
//! `O(moved txn's terms)`, and a rejected candidate is rolled back via the
//! undo log. The `y` neighborhood walks replication in both directions:
//! each perturbed attribute either gains a replica or sheds a droppable one
//! (an `O(1)` [`IncrementalCost::apply_attr_drop`]), so chains explore
//! mixed add/drop walks instead of relying on the per-level polish to prune
//! bloat. The expensive exact subproblem re-optimization (`findSolution`)
//! runs once per *temperature level* as a polish step; the same checkpoint
//! runs a full recompute as a floating-point drift guard
//! ([`IncrementalCost::resync`]).
//!
//! # Multi-start, warm start and portfolio cut-off
//!
//! [`SaConfig::restarts`] runs that chain `restarts` times with seeds
//! `seed + restart_index`, spread over at most [`SaConfig::threads`] OS
//! threads, each chain with the full per-chain time budget. The merge is
//! deterministic — lowest objective (6) wins, ties broken toward the
//! lowest restart index — and independent of thread count and completion
//! order, so results for a given `(seed, restarts)` are identical whether
//! run on 1 thread or 16, **provided no chain is cut off by its
//! per-chain [`SaConfig::time_limit`]** (a timed-out chain stops at
//! whatever iteration the clock reached, which depends on machine load;
//! such chains are flagged via [`RestartStat::timed_out`]). Per-chain
//! statistics land in [`SolveReport::restarts`].
//!
//! [`SaConfig::warm_start`] seeds chain 0 from an existing partitioning
//! instead of a random assignment — the *warm re-solve* of the online
//! repartitioning loop. The chain starts at the better of the warm layout
//! and its `y | x` polish, so the reported best never regresses below the
//! warm start's objective (6).
//!
//! [`SaConfig::probe_levels`] turns multi-start into a portfolio race:
//! every chain runs the probe horizon, then chains dominated by the shared
//! incumbent (everything below the best ⌈restarts/2⌉) are cut off and only
//! the survivors anneal to freeze. Cut chains are flagged via
//! [`RestartStat::cut_off`]. The phase boundary is a fixed level count and
//! the ranking is deterministic, so portfolio results stay reproducible
//! for a fixed `(seed, restarts)` and independent of `threads`.

use crate::config::CostConfig;
use crate::cost::coeffs::CostCoefficients;
use crate::cost::incremental::IncrementalCost;
use crate::cost::objective::{coefficient_score, evaluate, fast_objective6};
use crate::error::CoreError;
use crate::report::{RestartStat, SolveReport, Termination};
use crate::sa::subproblem::{
    optimal_x_for_y, optimal_x_for_y_ilp, optimal_y_for_x, optimal_y_for_x_ilp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use vpart_model::{AttrId, Instance, Partitioning, SiteId, TxnId};
use vpart_obs::{Obs, Span};

/// How `findSolution(fix)` is solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubproblemMode {
    /// Exact closed form for the λ-weighted cost part (fast; default).
    Greedy,
    /// Small MIPs including the max-load term, with a per-call time limit
    /// (the paper ran GLPK with a 30 s limit per iteration).
    IlpBacked {
        /// Per-subproblem time limit.
        time_limit: Duration,
    },
}

/// Configuration of the SA solver.
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// RNG seed (results are deterministic per `(seed, restarts)`,
    /// independent of `threads` as long as no chain hits `time_limit`).
    pub seed: u64,
    /// Geometric cooling factor ρ ∈ (0,1).
    pub rho: f64,
    /// Inner loop length L per temperature level.
    pub inner_loops: usize,
    /// Fraction of transactions/attributes perturbed per neighborhood
    /// (the paper found 10% best).
    pub move_fraction: f64,
    /// Initial acceptance rule of §5.1: a solution `accept_worse_pct`
    /// worse is accepted with 50% probability at τ₀.
    pub accept_worse_pct: f64,
    /// Stop after this many non-improving temperature levels.
    pub freeze_levels: usize,
    /// Stop when τ < `min_temp_ratio`·τ₀.
    pub min_temp_ratio: f64,
    /// Wall-clock limit *per chain*.
    pub time_limit: Duration,
    /// Subproblem solver.
    pub subproblem: SubproblemMode,
    /// Number of independent annealing chains (seeds `seed..seed+restarts`).
    pub restarts: usize,
    /// Maximum OS threads running chains concurrently. Affects wall time
    /// only, not results: restarts are split into contiguous blocks, one
    /// per thread, and the merge ignores completion order. The one
    /// exception is a chain cut off by `time_limit`, whose stopping point
    /// depends on machine load (see [`RestartStat::timed_out`]).
    pub threads: usize,
    /// Optional warm start: chain 0 anneals from this partitioning (or its
    /// `y | x` polish, whichever is cheaper) instead of a random
    /// assignment. Remaining chains stay random. The partitioning must be
    /// feasible for the solved instance and site count.
    pub warm_start: Option<Partitioning>,
    /// Portfolio cut-off: with `restarts > 1`, run every chain this many
    /// temperature levels, keep the best ⌈restarts/2⌉ against the shared
    /// probe incumbent, and anneal only the survivors to freeze. `None`
    /// runs every chain to freeze (classic multi-start).
    pub probe_levels: Option<usize>,
    /// Observability sink. Off by default ([`Obs::disabled`]); when
    /// enabled the solve records `sa_solve`/`sa_chain` spans, per-level
    /// `sa_level` events and the `sa_*_total` counter family. The inner
    /// accept/reject loop only touches local counters — obs calls happen
    /// once per temperature level and once per chain, keeping the
    /// disabled-path overhead in the noise.
    pub obs: Obs,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            rho: 0.85,
            inner_loops: 60,
            move_fraction: 0.1,
            accept_worse_pct: 0.05,
            freeze_levels: 10,
            min_temp_ratio: 1e-6,
            time_limit: Duration::from_secs(600),
            subproblem: SubproblemMode::Greedy,
            restarts: 1,
            threads: 1,
            warm_start: None,
            probe_levels: None,
            obs: Obs::disabled(),
        }
    }
}

impl SaConfig {
    /// A small, fast, fully deterministic configuration for tests and
    /// examples.
    pub fn fast_deterministic(seed: u64) -> Self {
        Self {
            seed,
            rho: 0.7,
            inner_loops: 20,
            freeze_levels: 4,
            time_limit: Duration::from_secs(30),
            ..Self::default()
        }
    }

    /// Multi-start variant: `restarts` chains over at most `threads`
    /// threads.
    pub fn multi_start(mut self, restarts: usize, threads: usize) -> Self {
        self.restarts = restarts;
        self.threads = threads;
        self
    }

    /// Seeds chain 0 from `incumbent` (warm re-solve).
    pub fn warm_started(mut self, incumbent: Partitioning) -> Self {
        self.warm_start = Some(incumbent);
        self
    }

    /// Enables the portfolio cut-off after `probe_levels` temperature
    /// levels (meaningful with `restarts > 1`).
    pub fn adaptive(mut self, probe_levels: usize) -> Self {
        self.probe_levels = Some(probe_levels);
        self
    }
}

/// Outcome of one annealing chain.
struct Chain {
    best: Partitioning,
    best_cost: f64,
    stat: RestartStat,
}

/// `findSolution("x" fixed)`: the best `y` for a transaction assignment.
fn find_y(
    cfg: &SaConfig,
    instance: &Instance,
    coeffs: &CostCoefficients,
    n_sites: usize,
    cost: &CostConfig,
    x: &[SiteId],
) -> Partitioning {
    match cfg.subproblem {
        SubproblemMode::Greedy => optimal_y_for_x(instance, coeffs, x, n_sites, cost),
        SubproblemMode::IlpBacked { time_limit } => {
            optimal_y_for_x_ilp(instance, coeffs, x, n_sites, cost, time_limit)
        }
    }
}

/// `findSolution("y" fixed)`: the best `x` for an attribute placement.
fn find_x(
    cfg: &SaConfig,
    instance: &Instance,
    coeffs: &CostCoefficients,
    cost: &CostConfig,
    p: &Partitioning,
) -> Partitioning {
    match cfg.subproblem {
        SubproblemMode::Greedy => optimal_x_for_y(instance, coeffs, p, cost),
        SubproblemMode::IlpBacked { time_limit } => {
            optimal_x_for_y_ilp(instance, coeffs, p, cost, time_limit)
        }
    }
}

/// One annealing chain with its full running state. Chains are resumable:
/// [`ChainState::run_levels`] anneals up to a level budget (the portfolio
/// probe) or to freeze, and [`ChainState::finish`] applies the final
/// polish and emits the per-chain statistics.
struct ChainState<'a> {
    cfg: &'a SaConfig,
    instance: &'a Instance,
    coeffs: &'a CostCoefficients,
    cost: &'a CostConfig,
    n_sites: usize,
    restart: usize,
    seed: u64,
    rng: StdRng,
    start: Instant,
    inc: IncrementalCost<'a>,
    current_cost: f64,
    best: Partitioning,
    best_cost: f64,
    tau: f64,
    tau0: f64,
    fix_x: bool,
    levels: usize,
    stale_levels: usize,
    iterations: usize,
    accepted: usize,
    resyncs: usize,
    abs_delta_sum: f64,
    max_drift: f64,
    timed_out: bool,
    frozen: bool,
    cut_off: bool,
    /// Chain-scoped obs handle (parent = this chain's span).
    obs: Obs,
    span: Span,
    /// Per-level (level, tau, accepted, iterations, best_objective6,
    /// at_us) samples, buffered as PODs and rendered into `sa_level`
    /// events at [`ChainState::finish`] — the trace lock and the field
    /// allocations stay off the annealing loop.
    level_log: Vec<(usize, f64, usize, usize, f64, u64)>,
}

impl<'a> ChainState<'a> {
    fn new(
        cfg: &'a SaConfig,
        instance: &'a Instance,
        coeffs: &'a CostCoefficients,
        cost: &'a CostConfig,
        n_sites: usize,
        restart: usize,
        solve_obs: &Obs,
    ) -> Self {
        let seed = cfg.seed.wrapping_add(restart as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        let span = solve_obs.span_begin(
            "sa_chain",
            &[("restart", restart.into()), ("seed", seed.into())],
        );
        let obs = solve_obs.under(&span);

        // Line 3 + line 5: random x, S ← findSolution("x") — except for a
        // warm-started chain 0, which begins at the incumbent (or its
        // polish, whichever evaluates cheaper).
        let initial = match (&cfg.warm_start, restart) {
            (Some(warm), 0) => {
                let polished = find_y(cfg, instance, coeffs, n_sites, cost, warm.x());
                let warm_cost = fast_objective6(instance, coeffs, warm, cost);
                let polished_cost = fast_objective6(instance, coeffs, &polished, cost);
                if polished_cost < warm_cost {
                    polished
                } else {
                    warm.clone()
                }
            }
            _ => {
                let x0: Vec<SiteId> = (0..instance.n_txns())
                    .map(|_| SiteId::from_index(rng.gen_range(0..n_sites)))
                    .collect();
                find_y(cfg, instance, coeffs, n_sites, cost, &x0)
            }
        };
        let inc = IncrementalCost::new(instance, coeffs, cost, initial);
        let current_cost = inc.objective6();
        let best = inc.partitioning().clone();
        let best_cost = current_cost;

        // §5.1 initial temperature: 50% = e^(−0.05·C*/τ₀).
        let tau = (cfg.accept_worse_pct * best_cost.max(1e-12)) / std::f64::consts::LN_2;
        Self {
            cfg,
            instance,
            coeffs,
            cost,
            n_sites,
            restart,
            seed,
            rng,
            start,
            inc,
            current_cost,
            best,
            best_cost,
            tau,
            tau0: tau,
            fix_x: true, // line 4
            levels: 0,
            stale_levels: 0,
            iterations: 0,
            accepted: 0,
            resyncs: 0,
            abs_delta_sum: 0.0,
            max_drift: 0.0,
            timed_out: false,
            frozen: false,
            cut_off: false,
            obs,
            span,
            level_log: Vec::new(),
        }
    }

    /// Anneals until frozen, or for at most `budget` more temperature
    /// levels when given (the portfolio probe horizon).
    fn run_levels(&mut self, budget: Option<usize>) {
        let mut remaining = budget;
        while !self.frozen {
            if let Some(r) = &mut remaining {
                if *r == 0 {
                    return;
                }
                *r -= 1;
            }
            self.run_one_level();
        }
    }

    /// One temperature level: `inner_loops` neighborhood candidates, then
    /// the resync + `findSolution` checkpoint and the cooling step.
    fn run_one_level(&mut self) {
        let cfg = self.cfg;
        let n_txns = self.instance.n_txns();
        let n_attrs = self.instance.n_attrs();
        let txn_moves = ((n_txns as f64 * cfg.move_fraction).ceil() as usize).max(1);
        let attr_moves = ((n_attrs as f64 * cfg.move_fraction).ceil() as usize).max(1);

        let improved_at_level_start = self.best_cost;
        for _ in 0..cfg.inner_loops {
            if self.start.elapsed() >= cfg.time_limit {
                self.timed_out = true;
                self.frozen = true;
                return;
            }
            self.iterations += 1;
            // Lines 8–9, incrementally: perturb the non-fixed side of the
            // running state (each mutation updates the objective in
            // O(moved terms)).
            let mark = self.inc.mark();
            if self.fix_x {
                // Move ~10% of transactions to uniform random sites;
                // forced replicas keep the layout feasible.
                for _ in 0..txn_moves {
                    let t = TxnId::from_index(self.rng.gen_range(0..n_txns));
                    let s = SiteId::from_index(self.rng.gen_range(0..self.n_sites));
                    self.inc.apply_txn_move(t, s);
                }
            } else {
                // Walk replication of ~10% of attributes in both
                // directions: a replicated attribute sheds a random
                // droppable copy half the time, otherwise replication
                // extends by one site.
                for _ in 0..attr_moves {
                    let a = AttrId::from_index(self.rng.gen_range(0..n_attrs));
                    let reps = self.inc.partitioning().replication(a);
                    if reps > 1 && self.rng.gen::<f64>() < 0.5 {
                        let k = self.rng.gen_range(0..reps);
                        let site = self.inc.partitioning().attr_sites(a).nth(k);
                        if let Some(s) = site {
                            // No-op when the copy is forced by a reader.
                            self.inc.apply_attr_drop(a, s);
                        }
                    } else if reps < self.n_sites {
                        loop {
                            let s = SiteId::from_index(self.rng.gen_range(0..self.n_sites));
                            if self.inc.apply_attr_replica(a, s) {
                                break;
                            }
                        }
                    }
                }
            }
            // Lines 11–12: accept or roll back via the undo log.
            let cand_cost = self.inc.objective6();
            let delta = cand_cost - self.current_cost;
            if delta <= 0.0 || self.rng.gen::<f64>() < (-delta / self.tau).exp() {
                self.inc.commit();
                self.current_cost = cand_cost;
                self.accepted += 1;
                self.abs_delta_sum += delta.abs();
                if self.current_cost < self.best_cost {
                    self.best = self.inc.partitioning().clone();
                    self.best_cost = self.current_cost;
                }
            } else {
                self.inc.revert(mark);
            }
            self.fix_x = !self.fix_x; // line 13 (inside the inner loop)
        }

        // Temperature-level checkpoint 1 — drift guard: full recompute of
        // the accumulators, bounding float error from the add/subtract
        // chains of the inner loop.
        self.max_drift = self.max_drift.max(self.inc.resync());
        self.resyncs += 1;
        self.current_cost = self.inc.objective6();
        // Checkpoint 2 — line 10's exact subproblem re-optimization
        // (`findSolution`), once per level instead of once per move.
        // `y | x` rebuilds the placement from scratch, pruning any replica
        // bloat the neighborhood walk left behind; `x | y` then re-homes
        // transactions.
        let polished_y = find_y(
            self.cfg,
            self.instance,
            self.coeffs,
            self.n_sites,
            self.cost,
            self.inc.partitioning().x(),
        );
        let polished_x = find_x(self.cfg, self.instance, self.coeffs, self.cost, &polished_y);
        for polished in [polished_y, polished_x] {
            let c = fast_objective6(self.instance, self.coeffs, &polished, self.cost);
            if c < self.current_cost {
                self.inc = IncrementalCost::new(self.instance, self.coeffs, self.cost, polished);
                self.resyncs += 1;
                self.current_cost = c;
                if c < self.best_cost {
                    self.best = self.inc.partitioning().clone();
                    self.best_cost = c;
                }
            }
        }

        self.tau *= cfg.rho;
        self.levels += 1;
        // One POD push per temperature level (not per move); the records
        // themselves are built in `finish`, so neither the inner loop
        // above nor the level boundary touches the trace lock.
        if self.obs.is_enabled() {
            self.level_log.push((
                self.levels,
                self.tau,
                self.accepted,
                self.iterations,
                self.best_cost,
                self.obs.timestamp_us(),
            ));
        }
        if self.best_cost < improved_at_level_start - 1e-12 {
            self.stale_levels = 0;
        } else {
            self.stale_levels += 1;
        }
        if self.stale_levels >= cfg.freeze_levels || self.tau < cfg.min_temp_ratio * self.tau0 {
            self.frozen = true;
        }
    }

    /// Final polish (re-derive the minimal-cost `y` for the best `x`) and
    /// per-chain statistics.
    fn finish(mut self) -> Chain {
        let polished = find_y(
            self.cfg,
            self.instance,
            self.coeffs,
            self.n_sites,
            self.cost,
            self.best.x(),
        );
        let polished_cost = fast_objective6(self.instance, self.coeffs, &polished, self.cost);
        if polished_cost < self.best_cost {
            self.best = polished;
            self.best_cost = polished_cost;
        }
        let rejected = self.iterations - self.accepted;
        let mean_abs_delta = if self.accepted > 0 {
            self.abs_delta_sum / self.accepted as f64
        } else {
            0.0
        };
        if self.obs.is_enabled() {
            for &(level, tau, accepted, iterations, best, at_us) in &self.level_log {
                self.obs.event_at(
                    "sa_level",
                    at_us,
                    &[
                        ("level", level.into()),
                        ("tau", tau.into()),
                        ("accepted", accepted.into()),
                        ("iterations", iterations.into()),
                        ("best_objective6", best.into()),
                    ],
                );
            }
            self.obs
                .counter_add("sa_moves_total", self.iterations as f64);
            self.obs
                .counter_add("sa_accepted_total", self.accepted as f64);
            self.obs.counter_add("sa_rejected_total", rejected as f64);
            self.obs
                .counter_add("sa_resyncs_total", self.resyncs as f64);
            if self.cut_off {
                self.obs.counter_inc("sa_chains_cut_total");
            }
        }
        self.obs.span_end(
            self.span,
            &[
                ("seed", self.seed.into()),
                ("levels", self.levels.into()),
                ("iterations", self.iterations.into()),
                ("accepted", self.accepted.into()),
                ("rejected", rejected.into()),
                ("resyncs", self.resyncs.into()),
                ("mean_abs_delta", mean_abs_delta.into()),
                ("objective6", self.best_cost.into()),
                ("cut_off", self.cut_off.into()),
                ("timed_out", self.timed_out.into()),
            ],
        );
        Chain {
            stat: RestartStat {
                restart: self.restart,
                seed: self.seed,
                objective6: self.best_cost,
                objective4: coefficient_score(self.coeffs, &self.best).0,
                levels: self.levels,
                iterations: self.iterations,
                accepted: self.accepted,
                rejected,
                resyncs: self.resyncs,
                mean_abs_delta,
                max_drift: self.max_drift,
                elapsed: self.start.elapsed(),
                timed_out: self.timed_out,
                cut_off: self.cut_off,
                winner: false,
            },
            best: self.best,
            best_cost: self.best_cost,
        }
    }
}

/// The simulated-annealing solver.
#[derive(Debug, Clone, Default)]
pub struct SaSolver {
    /// Solver configuration.
    pub config: SaConfig,
}

impl SaSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        Self { config }
    }

    /// Heuristically minimizes objective (6) for `instance` on `n_sites`.
    pub fn solve(
        &self,
        instance: &Instance,
        n_sites: usize,
        cost: &CostConfig,
    ) -> Result<SolveReport, CoreError> {
        cost.validate()?;
        if n_sites == 0 {
            return Err(CoreError::Model(vpart_model::ModelError::NoSites));
        }
        let cfg = &self.config;
        if !(cfg.rho > 0.0 && cfg.rho < 1.0) {
            return Err(CoreError::BadConfig(format!(
                "rho must be in (0,1), got {}",
                cfg.rho
            )));
        }
        if cfg.inner_loops == 0 {
            return Err(CoreError::BadConfig("inner_loops must be positive".into()));
        }
        if cfg.restarts == 0 {
            return Err(CoreError::BadConfig("restarts must be positive".into()));
        }
        if cfg.threads == 0 {
            return Err(CoreError::BadConfig("threads must be positive".into()));
        }
        if cfg.probe_levels == Some(0) {
            return Err(CoreError::BadConfig("probe_levels must be positive".into()));
        }
        if let Some(warm) = &cfg.warm_start {
            if warm.n_sites() != n_sites {
                return Err(CoreError::BadConfig(format!(
                    "warm start has {} sites, solve asked for {n_sites}",
                    warm.n_sites()
                )));
            }
            warm.validate(instance, false)?;
        }
        let start = Instant::now();
        let solve_span = cfg.obs.span_begin(
            "sa_solve",
            &[
                ("restarts", cfg.restarts.into()),
                ("n_sites", n_sites.into()),
                ("seed", cfg.seed.into()),
                ("warm_started", cfg.warm_start.is_some().into()),
            ],
        );
        let solve_obs = cfg.obs.under(&solve_span);
        let coeffs = CostCoefficients::compute(instance, cost);

        // Chains are lazily constructed inside the worker threads (the
        // initial findSolution pass is a full temperature-level's worth
        // of work, so serializing it on the caller thread would undercut
        // multi-thread solves).
        let make = |r: usize| ChainState::new(cfg, instance, &coeffs, cost, n_sites, r, &solve_obs);
        let mut states: Vec<Option<ChainState>> = (0..cfg.restarts).map(|_| None).collect();

        // Portfolio mode: probe every chain for a fixed level budget, cut
        // the dominated half against the shared probe incumbent, and only
        // anneal the survivors to freeze. The phase boundary and ranking
        // are deterministic, so this stays reproducible and
        // thread-count-independent.
        let mut cut_count = 0usize;
        match cfg.probe_levels {
            Some(probe) if cfg.restarts > 1 => {
                run_parallel(&mut states, cfg.threads, Some(probe), &make);
                let chain = |i: usize| states[i].as_ref().expect("probed chain exists");
                let keep = cfg.restarts.div_ceil(2);
                let mut order: Vec<usize> = (0..states.len()).collect();
                order.sort_by(|&i, &j| {
                    chain(i)
                        .best_cost
                        .total_cmp(&chain(j).best_cost)
                        .then(i.cmp(&j))
                });
                for &i in &order[keep..] {
                    let state = states[i].as_mut().expect("probed chain exists");
                    if !state.frozen {
                        state.cut_off = true;
                        state.frozen = true;
                        cut_count += 1;
                    }
                }
                run_parallel(&mut states, cfg.threads, None, &make);
            }
            _ => run_parallel(&mut states, cfg.threads, None, &make),
        }
        let workers = cfg.threads.min(cfg.restarts);
        let chains: Vec<Chain> = states
            .into_iter()
            .map(|s| s.expect("every chain ran").finish())
            .collect();

        // Deterministic merge: lowest objective (6); ties break toward the
        // lowest restart index (= lowest chain seed).
        let winner = chains
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| a.best_cost.total_cmp(&b.best_cost).then_with(|| i.cmp(j)))
            .map(|(i, _)| i)
            .expect("restarts >= 1");
        let mut stats: Vec<RestartStat> = Vec::with_capacity(chains.len());
        let mut best: Option<Partitioning> = None;
        for (i, chain) in chains.into_iter().enumerate() {
            let mut stat = chain.stat;
            stat.winner = i == winner;
            if stat.winner {
                best = Some(chain.best);
            }
            stats.push(stat);
        }
        let best = best.expect("winner chain exists");
        best.validate(instance, false)?;

        let breakdown = evaluate(instance, &best, cost);
        let levels: usize = stats.iter().map(|s| s.levels).sum();
        let iterations: usize = stats.iter().map(|s| s.iterations).sum();
        let accepted: usize = stats.iter().map(|s| s.accepted).sum();
        let portfolio = if cut_count > 0 {
            format!(", {cut_count} chain(s) cut at probe")
        } else {
            String::new()
        };
        let elapsed = start.elapsed();
        if cfg.obs.is_enabled() {
            let ratio = if iterations > 0 {
                accepted as f64 / iterations as f64
            } else {
                0.0
            };
            cfg.obs.gauge_set("sa_acceptance_ratio", ratio);
            cfg.obs
                .observe_wall("solve_wall_seconds", elapsed.as_secs_f64());
        }
        cfg.obs.span_end(
            solve_span,
            &[
                ("winner_seed", stats[winner].seed.into()),
                ("objective6", breakdown.objective6.into()),
                ("chains_cut", cut_count.into()),
            ],
        );
        Ok(SolveReport {
            partitioning: best,
            breakdown,
            termination: Termination::Heuristic,
            elapsed,
            detail: format!(
                "sa: {} restart(s) on {} thread(s), {levels} levels, {iterations} iterations, \
                 {accepted} accepted, seed {} (winner {}{portfolio}{})",
                cfg.restarts,
                workers,
                cfg.seed,
                stats[winner].seed,
                if cfg.warm_start.is_some() {
                    ", warm-started"
                } else {
                    ""
                },
            ),
            restarts: stats,
        })
    }
}

/// Runs `run_levels(budget)` on every chain, split over at most `threads`
/// scoped OS threads in contiguous blocks; empty slots are constructed
/// with `make(restart_index)` first, so chain initialization happens on
/// the worker threads too. Chains never migrate between slots and the
/// caller inspects them by index, so results are independent of thread
/// count and completion order.
fn run_parallel<'a, F>(
    states: &mut [Option<ChainState<'a>>],
    threads: usize,
    budget: Option<usize>,
    make: &F,
) where
    F: Fn(usize) -> ChainState<'a> + Sync,
{
    let workers = threads.min(states.len());
    if workers <= 1 {
        for (i, slot) in states.iter_mut().enumerate() {
            slot.get_or_insert_with(|| make(i)).run_levels(budget);
        }
        return;
    }
    let chunk = states.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (w, block) in states.chunks_mut(chunk).enumerate() {
            let first = w * chunk;
            handles.push(scope.spawn(move || {
                for (i, slot) in block.iter_mut().enumerate() {
                    slot.get_or_insert_with(|| make(first + i))
                        .run_levels(budget);
                }
            }));
        }
        for h in handles {
            h.join().expect("annealing chain panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, Workload};

    fn separable() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("r1", 10.0), ("r2", 10.0)]).unwrap();
        sb.table("S", &[("s1", 10.0), ("s2", 10.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0), AttrId(1)]))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(2), AttrId(3)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("sep", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn finds_the_separable_optimum() {
        let ins = separable();
        let cfg = CostConfig::default();
        let r = SaSolver::new(SaConfig::fast_deterministic(42))
            .solve(&ins, 2, &cfg)
            .unwrap();
        r.partitioning.validate(&ins, false).unwrap();
        assert_eq!(r.termination, Termination::Heuristic);
        assert_eq!(r.breakdown.objective4, 40.0, "known optimum");
    }

    #[test]
    fn deterministic_per_seed() {
        let ins = separable();
        let cfg = CostConfig::default();
        let a = SaSolver::new(SaConfig::fast_deterministic(7))
            .solve(&ins, 2, &cfg)
            .unwrap();
        let b = SaSolver::new(SaConfig::fast_deterministic(7))
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert_eq!(a.partitioning, b.partitioning);
        assert_eq!(a.breakdown.objective4, b.breakdown.objective4);
    }

    #[test]
    fn deterministic_regardless_of_thread_count() {
        // The documented guarantee: for a fixed (seed, restarts), results
        // are identical whatever `threads` is — chain seeds derive from
        // the restart index and the merge ignores completion order. The
        // guarantee is conditional on no chain hitting its wall-clock
        // limit; this instance freezes orders of magnitude below the 30 s
        // budget, and the `timed_out` assertion documents the
        // precondition. Runs both classic multi-start and the portfolio
        // cut-off mode.
        let ins = separable();
        let cfg = CostConfig::default();
        for probe in [None, Some(2)] {
            let solve = |threads: usize| {
                let mut sa = SaConfig::fast_deterministic(3).multi_start(4, threads);
                sa.probe_levels = probe;
                let r = SaSolver::new(sa).solve(&ins, 2, &cfg).unwrap();
                assert!(
                    r.restarts.iter().all(|s| !s.timed_out),
                    "tiny instance must freeze naturally"
                );
                r
            };
            let one = solve(1);
            for threads in [2, 3, 8] {
                let multi = solve(threads);
                assert_eq!(one.partitioning, multi.partitioning, "threads={threads}");
                assert_eq!(
                    one.breakdown.objective6, multi.breakdown.objective6,
                    "threads={threads}"
                );
                let costs =
                    |r: &SolveReport| r.restarts.iter().map(|s| s.objective6).collect::<Vec<_>>();
                assert_eq!(costs(&one), costs(&multi), "threads={threads}");
                let cuts =
                    |r: &SolveReport| r.restarts.iter().map(|s| s.cut_off).collect::<Vec<_>>();
                assert_eq!(cuts(&one), cuts(&multi), "threads={threads}");
            }
        }
    }

    #[test]
    fn multi_start_reports_stats_and_never_loses_to_single_start() {
        let ins = separable();
        let cfg = CostConfig::default();
        let single = SaSolver::new(SaConfig::fast_deterministic(5))
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert_eq!(single.restarts.len(), 1);
        assert!(single.restarts[0].winner);
        let multi = SaSolver::new(SaConfig::fast_deterministic(5).multi_start(4, 2))
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert_eq!(multi.restarts.len(), 4);
        // Chain 0 of the multi-start IS the single-start chain (seed + 0),
        // so best-of-4 can only match or beat it.
        assert!(multi.breakdown.objective6 <= single.breakdown.objective6 + 1e-9);
        assert_eq!(multi.restarts.iter().filter(|s| s.winner).count(), 1);
        for (i, stat) in multi.restarts.iter().enumerate() {
            assert_eq!(stat.restart, i);
            assert_eq!(stat.seed, 5 + i as u64);
            assert!(stat.iterations > 0);
            assert!(!stat.cut_off, "classic multi-start never cuts");
            assert!(stat.max_drift <= 1e-9 * (1.0 + stat.objective6));
        }
        // The winner's chain cost matches the reported breakdown.
        let winner = multi.restarts.iter().find(|s| s.winner).unwrap();
        assert!((winner.objective6 - multi.breakdown.objective6).abs() <= 1e-9);
    }

    #[test]
    fn portfolio_cuts_dominated_chains_and_keeps_the_winner() {
        let ins = separable();
        let cfg = CostConfig::default();
        let classic = SaSolver::new(SaConfig::fast_deterministic(11).multi_start(4, 2))
            .solve(&ins, 2, &cfg)
            .unwrap();
        let adaptive = SaSolver::new(
            SaConfig::fast_deterministic(11)
                .multi_start(4, 2)
                .adaptive(2),
        )
        .solve(&ins, 2, &cfg)
        .unwrap();
        // At most half the chains survive past the probe; the winner is
        // never a cut chain.
        let cut = adaptive.restarts.iter().filter(|s| s.cut_off).count();
        assert!(cut <= 2, "keep at least ⌈restarts/2⌉");
        let winner = adaptive.restarts.iter().find(|s| s.winner).unwrap();
        assert!(!winner.cut_off);
        // Survivors replay the classic chains exactly, so the adaptive
        // winner can never beat the classic best (it only skips work).
        assert!(adaptive.breakdown.objective6 >= classic.breakdown.objective6 - 1e-9);
        // Cut chains stop at the probe horizon.
        for s in adaptive.restarts.iter().filter(|s| s.cut_off) {
            assert!(s.levels <= 2);
        }
    }

    #[test]
    fn warm_start_never_regresses_and_skips_the_random_init() {
        let ins = separable();
        let cfg = CostConfig::default();
        // A deliberately bad but feasible incumbent: everything on site 0.
        let incumbent = Partitioning::single_site(&ins, 2).unwrap();
        let incumbent_cost = {
            let coeffs = CostCoefficients::compute(&ins, &cfg);
            fast_objective6(&ins, &coeffs, &incumbent, &cfg)
        };
        let warm = SaSolver::new(SaConfig::fast_deterministic(9).warm_started(incumbent.clone()))
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert!(warm.breakdown.objective6 <= incumbent_cost + 1e-9);
        // From the separable optimum, the warm re-solve stays there.
        let optimum = warm.partitioning.clone();
        let stay = SaSolver::new(SaConfig::fast_deterministic(9).warm_started(optimum))
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert_eq!(stay.breakdown.objective4, 40.0);
        assert!(stay.detail.contains("warm-started"));
    }

    #[test]
    fn warm_start_shape_is_validated() {
        let ins = separable();
        let cfg = CostConfig::default();
        let incumbent = Partitioning::single_site(&ins, 3).unwrap();
        assert!(matches!(
            SaSolver::new(SaConfig::fast_deterministic(1).warm_started(incumbent))
                .solve(&ins, 2, &cfg),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn single_site_degenerates_to_trivial_layout() {
        let ins = separable();
        let cfg = CostConfig::default();
        let r = SaSolver::new(SaConfig::fast_deterministic(1))
            .solve(&ins, 1, &cfg)
            .unwrap();
        // With one site there is exactly one feasible layout.
        let trivial = Partitioning::single_site(&ins, 1).unwrap();
        assert_eq!(
            r.breakdown.objective4,
            evaluate(&ins, &trivial, &cfg).objective4
        );
    }

    #[test]
    fn rejects_bad_config() {
        let ins = separable();
        let cfg = CostConfig::default();
        let mut sa = SaConfig::fast_deterministic(1);
        sa.rho = 1.5;
        assert!(matches!(
            SaSolver::new(sa).solve(&ins, 2, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        let mut sa = SaConfig::fast_deterministic(1);
        sa.inner_loops = 0;
        assert!(matches!(
            SaSolver::new(sa).solve(&ins, 2, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        let mut sa = SaConfig::fast_deterministic(1);
        sa.restarts = 0;
        assert!(matches!(
            SaSolver::new(sa).solve(&ins, 2, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        let mut sa = SaConfig::fast_deterministic(1);
        sa.threads = 0;
        assert!(matches!(
            SaSolver::new(sa).solve(&ins, 2, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        let mut sa = SaConfig::fast_deterministic(1);
        sa.probe_levels = Some(0);
        assert!(matches!(
            SaSolver::new(sa).solve(&ins, 2, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            SaSolver::default().solve(&ins, 0, &cfg),
            Err(CoreError::Model(vpart_model::ModelError::NoSites))
        ));
    }

    #[test]
    fn obs_records_chain_spans_and_counters() {
        let ins = separable();
        let cfg = CostConfig::default();
        let obs = Obs::enabled();
        let mut sa = SaConfig::fast_deterministic(2).multi_start(2, 2);
        sa.obs = obs.clone();
        let r = SaSolver::new(sa).solve(&ins, 2, &cfg).unwrap();

        // The enriched stats are internally consistent.
        let mut iterations = 0usize;
        for s in &r.restarts {
            assert_eq!(s.accepted + s.rejected, s.iterations);
            assert!(s.resyncs >= s.levels, "one drift-guard resync per level");
            iterations += s.iterations;
        }

        let text = obs.metrics_prometheus();
        assert!(text.contains(&format!("sa_moves_total {iterations}")));
        assert!(text.contains("sa_acceptance_ratio"));
        assert!(text.contains("solve_wall_seconds_bucket"));

        // One sa_solve span, one sa_chain span per restart, nested.
        let trace = obs.trace_json_lines();
        let spans: Vec<serde_json::Value> = trace
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|v: &serde_json::Value| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .collect();
        let solve_id = spans
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("sa_solve"))
            .and_then(|s| s.get("id"))
            .and_then(|i| i.as_u64())
            .expect("sa_solve span recorded");
        let chains: Vec<_> = spans
            .iter()
            .filter(|s| s.get("name").and_then(|n| n.as_str()) == Some("sa_chain"))
            .collect();
        assert_eq!(chains.len(), 2);
        for c in chains {
            assert_eq!(c.get("parent").and_then(|p| p.as_u64()), Some(solve_id));
        }

        // A disabled config records nothing and still solves identically.
        let quiet = SaSolver::new(SaConfig::fast_deterministic(2).multi_start(2, 2))
            .solve(&ins, 2, &cfg)
            .unwrap();
        assert_eq!(quiet.partitioning, r.partitioning);
    }

    #[test]
    fn ilp_backed_subproblems_work_end_to_end() {
        let ins = separable();
        let cfg = CostConfig::default();
        let mut sa = SaConfig::fast_deterministic(3);
        sa.inner_loops = 6;
        sa.freeze_levels = 2;
        sa.subproblem = SubproblemMode::IlpBacked {
            time_limit: Duration::from_secs(5),
        };
        let r = SaSolver::new(sa).solve(&ins, 2, &cfg).unwrap();
        r.partitioning.validate(&ins, false).unwrap();
        assert_eq!(r.breakdown.objective4, 40.0);
    }
}
