//! Incremental (delta) evaluation of objective (6).
//!
//! The simulated-annealing inner loop evaluates one candidate layout per
//! move. Re-running [`fast_objective6`] walks every transaction's
//! coefficient row and every attribute's replica set — `O(nnz + |A|·|S|)`
//! per candidate. [`IncrementalCost`] instead maintains the objective's
//! decomposition under point mutations, so a transaction move costs
//! `O(|terms of the moved txn|)` and a replica change costs `O(|S|)`:
//!
//! * `agg1[a][s] = Σ_{t on s} c1(a,t)` and `agg3[a][s] = Σ_{t on s} c3(a,t)`
//!   — the per-`(attribute, site)` marginals of placing a replica,
//! * `quad = Σ_{(a,s): y[a][s]} agg1[a][s]` — the `x·y` product part of
//!   objective (4),
//! * `lin = Σ_a c2(a)·|replicas(a)|` — the per-replica part,
//! * `site_read[s]`/`site_write[s]` — the equation (5) work decomposition,
//! * `forced[a][s] = #{t on s : a ∈ read_set(t)}` — single-sitedness
//!   reference counts, making feasibility of replica removal an `O(1)`
//!   check.
//!
//! Every mutation appends to an undo log; [`IncrementalCost::revert`]
//! rolls the state (including the owned [`Partitioning`]) back to a
//! [`IncrementalCost::mark`], which is how the annealing loop rejects
//! candidates. Each mutation kind has one delta, which the `apply_*`
//! operations run forwards and `revert` backwards. Floating-point drift
//! from long add/subtract chains is bounded by
//! [`IncrementalCost::resync`], a full recompute the solver runs at
//! temperature-level checkpoints. The recompute keeps its own walk rather
//! than calling the coefficient scorer: it also fills the per-`(attribute,
//! site)` aggregates, which the scorer has no use for.
//!
//! Parity: [`IncrementalCost::objective6`] equals [`fast_objective6`] up
//! to rounding (the two sum the same terms in different orders) for the
//! `AllAttributes`/`NoAttributes` write-accounting strategies
//! (property-tested under random move/revert sequences). The Appendix A
//! latency term is recomputed exactly (not incrementally) when enabled —
//! correct but `O(|Q|)` per evaluation, so latency-enabled solves lose
//! most of the incremental speedup.
//!
//! [`fast_objective6`]: crate::cost::objective::fast_objective6

use crate::config::CostConfig;
use crate::cost::coeffs::CostCoefficients;
use crate::cost::latency::latency_term;
use vpart_model::{AttrId, Instance, Partitioning, SiteId, TxnId};

/// One entry of the undo log.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x[t]` changed; `from` is the previous site.
    TxnMoved { t: TxnId, from: SiteId },
    /// `y[a][s]` flipped 0 → 1.
    ReplicaAdded { a: AttrId, s: SiteId },
    /// `y[a][s]` flipped 1 → 0.
    ReplicaDropped { a: AttrId, s: SiteId },
}

/// A position in the undo log; see [`IncrementalCost::mark`].
pub type Mark = usize;

/// Incrementally maintained cost state for one evolving [`Partitioning`].
#[derive(Debug, Clone)]
pub struct IncrementalCost<'a> {
    instance: &'a Instance,
    coeffs: &'a CostCoefficients,
    config: &'a CostConfig,
    part: Partitioning,
    n_sites: usize,
    /// `Σ_{t on s} c1(a,t)` per `(a, s)` (row-major `a * n_sites + s`).
    agg1: Vec<f64>,
    /// `Σ_{t on s} c3(a,t)` per `(a, s)`.
    agg3: Vec<f64>,
    /// Single-sitedness reference counts per `(a, s)`.
    forced: Vec<u32>,
    /// `Σ c1` over placed `(a, s)` cells — the `x·y` part of objective (4).
    quad: f64,
    /// `Σ c2(a)·|replicas(a)|`.
    lin: f64,
    site_read: Vec<f64>,
    site_write: Vec<f64>,
    undo: Vec<Op>,
    /// Mutations applied since construction; drives the periodic
    /// parity self-check under `debug-invariants`.
    #[cfg(feature = "debug-invariants")]
    mutations: u64,
}

/// How often (in mutations) the `debug-invariants` build re-derives the
/// objective from scratch and asserts parity with the incremental state.
#[cfg(feature = "debug-invariants")]
const PARITY_PERIOD: u64 = 1024;

impl<'a> IncrementalCost<'a> {
    /// Builds the accumulators for `part` (which must be feasible for
    /// `instance`; see [`Partitioning::validate`]). Takes ownership of the
    /// partitioning — mutate it only through the `apply_*` operations so
    /// the cached sums stay consistent.
    pub fn new(
        instance: &'a Instance,
        coeffs: &'a CostCoefficients,
        config: &'a CostConfig,
        part: Partitioning,
    ) -> Self {
        let n_sites = part.n_sites();
        let n_attrs = part.n_attrs();
        let mut state = Self {
            instance,
            coeffs,
            config,
            part,
            n_sites,
            agg1: vec![0.0; n_attrs * n_sites],
            agg3: vec![0.0; n_attrs * n_sites],
            forced: vec![0; n_attrs * n_sites],
            quad: 0.0,
            lin: 0.0,
            site_read: vec![0.0; n_sites],
            site_write: vec![0.0; n_sites],
            undo: Vec::new(),
            #[cfg(feature = "debug-invariants")]
            mutations: 0,
        };
        state.rebuild();
        state
    }

    /// Recomputes every accumulator from the current partitioning.
    fn rebuild(&mut self) {
        let n_sites = self.n_sites;
        self.agg1.fill(0.0);
        self.agg3.fill(0.0);
        self.forced.fill(0);
        self.site_read.fill(0.0);
        self.site_write.fill(0.0);
        self.quad = 0.0;
        self.lin = 0.0;
        for t in 0..self.part.n_txns() {
            let txn = TxnId::from_index(t);
            let s = self.part.site_of(txn).index();
            for &(a, c1, c3) in self.coeffs.txn_terms(txn) {
                self.agg1[a.index() * n_sites + s] += c1;
                self.agg3[a.index() * n_sites + s] += c3;
            }
            for &a in self.instance.read_set(txn) {
                self.forced[a.index() * n_sites + s] += 1;
            }
        }
        for a in 0..self.part.n_attrs() {
            let attr = AttrId::from_index(a);
            let c2 = self.coeffs.c2(attr);
            let c4 = self.coeffs.c4(attr);
            for s in self.part.attr_sites(attr) {
                self.quad += self.agg1[a * n_sites + s.index()];
                self.site_read[s.index()] += self.agg3[a * n_sites + s.index()];
                self.lin += c2;
                self.site_write[s.index()] += c4;
            }
        }
    }

    /// The partitioning in its current (possibly uncommitted) state.
    pub fn partitioning(&self) -> &Partitioning {
        &self.part
    }

    /// Consumes the state, returning the partitioning.
    pub fn into_partitioning(self) -> Partitioning {
        self.part
    }

    /// Objective (4): `quad + lin`.
    pub fn objective4(&self) -> f64 {
        self.quad + self.lin
    }

    /// Per-site work (equation (5)).
    pub fn site_work(&self, s: SiteId) -> f64 {
        self.site_read[s.index()] + self.site_write[s.index()]
    }

    /// `m`: the maximum site work.
    pub fn max_work(&self) -> f64 {
        (0..self.n_sites)
            .map(|s| self.site_read[s] + self.site_write[s])
            .fold(0.0f64, f64::max)
    }

    /// Objective (6): `λ·(quad + lin) + (1−λ)·m` plus the Appendix A
    /// latency term when enabled. Equals
    /// [`crate::cost::objective::fast_objective6`] on the same
    /// partitioning up to rounding.
    pub fn objective6(&self) -> f64 {
        let base =
            self.config.lambda * self.objective4() + (1.0 - self.config.lambda) * self.max_work();
        base + latency_term(self.instance, &self.part, self.config)
    }

    /// Moves transaction `t` to `site`, first adding any replicas its read
    /// set forces there (single-sitedness). `O(|terms(t)|)`. No-op if the
    /// transaction already executes on `site`.
    pub fn apply_txn_move(&mut self, t: TxnId, site: SiteId) {
        let from = self.part.site_of(t);
        if from == site {
            return;
        }
        // Forced replicas must exist before the move so the partitioning
        // never transits through an infeasible state.
        let missing: Vec<AttrId> = self
            .instance
            .read_set(t)
            .iter()
            .copied()
            .filter(|&a| !self.part.has_attr(a, site))
            .collect();
        for a in missing {
            self.apply_attr_replica(a, site);
        }
        self.shift_txn(t, site);
        self.undo.push(Op::TxnMoved { t, from });
        self.note_mutation();
    }

    /// The delta of a transaction move: shifts `t`'s terms and
    /// single-sitedness counts from its current site to `to`, and moves it.
    fn shift_txn(&mut self, t: TxnId, to: SiteId) {
        let from = self.part.site_of(t);
        let (old, new) = (from.index(), to.index());
        for &(a, c1, c3) in self.coeffs.txn_terms(t) {
            let (ro, rn) = (
                a.index() * self.n_sites + old,
                a.index() * self.n_sites + new,
            );
            self.agg1[ro] -= c1;
            self.agg3[ro] -= c3;
            self.agg1[rn] += c1;
            self.agg3[rn] += c3;
            if self.part.has_attr(a, from) {
                self.quad -= c1;
                self.site_read[old] -= c3;
            }
            if self.part.has_attr(a, to) {
                self.quad += c1;
                self.site_read[new] += c3;
            }
        }
        for &a in self.instance.read_set(t) {
            self.forced[a.index() * self.n_sites + old] -= 1;
            self.forced[a.index() * self.n_sites + new] += 1;
        }
        self.part.move_txn(t, to);
    }

    /// Adds a replica of `a` on `site`. Returns `false` (and does nothing)
    /// if the replica already exists. `O(1)`.
    pub fn apply_attr_replica(&mut self, a: AttrId, site: SiteId) -> bool {
        if self.part.has_attr(a, site) {
            return false;
        }
        self.set_replica(a, site, true);
        self.undo.push(Op::ReplicaAdded { a, s: site });
        self.note_mutation();
        true
    }

    /// True if the replica of `a` on `site` exists and can be removed
    /// without violating a constraint: no transaction on `site` reads `a`,
    /// and it is not the last replica.
    pub fn can_drop_replica(&self, a: AttrId, site: SiteId) -> bool {
        self.part.has_attr(a, site)
            && self.forced[a.index() * self.n_sites + site.index()] == 0
            && self.part.replication(a) > 1
    }

    /// Removes the replica of `a` on `site` if feasible (see
    /// [`IncrementalCost::can_drop_replica`]); returns whether it did.
    pub fn apply_attr_drop(&mut self, a: AttrId, site: SiteId) -> bool {
        if !self.can_drop_replica(a, site) {
            return false;
        }
        self.set_replica(a, site, false);
        self.undo.push(Op::ReplicaDropped { a, s: site });
        self.note_mutation();
        true
    }

    /// The delta of a replica change: adds (`present`) or removes the
    /// replica of `a` on `site` and its marginals, unchecked. Removal adds
    /// the negated marginals, which rounds exactly like subtracting them.
    fn set_replica(&mut self, a: AttrId, site: SiteId, present: bool) {
        let sign = if present { 1.0 } else { -1.0 };
        let cell = a.index() * self.n_sites + site.index();
        self.quad += sign * self.agg1[cell];
        self.site_read[site.index()] += sign * self.agg3[cell];
        self.lin += sign * self.coeffs.c2(a);
        self.site_write[site.index()] += sign * self.coeffs.c4(a);
        if present {
            self.part.add_replica(a, site);
        } else {
            self.part.remove_replica(a, site);
        }
    }

    /// Current undo-log position. Mutations made after a mark can be
    /// rolled back with [`IncrementalCost::revert`].
    pub fn mark(&self) -> Mark {
        self.undo.len()
    }

    /// Rolls every mutation after `mark` back, in reverse order. The
    /// partitioning returns to its exact previous layout; accumulated
    /// floats may differ by rounding noise (bounded via
    /// [`IncrementalCost::resync`]).
    pub fn revert(&mut self, mark: Mark) {
        while self.undo.len() > mark {
            let op = self.undo.pop().expect("undo log not empty");
            match op {
                Op::TxnMoved { t, from } => self.shift_txn(t, from),
                Op::ReplicaAdded { a, s } => self.set_replica(a, s, false),
                Op::ReplicaDropped { a, s } => self.set_replica(a, s, true),
            }
        }
    }

    /// Discards undo history (accepts all mutations made so far).
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// `debug-invariants` self-check: every [`PARITY_PERIOD`] mutations,
    /// re-derive objective (6) from scratch and assert the incremental
    /// accumulators agree. Catches delta-bookkeeping bugs the moment a
    /// long solve drifts, at ~0.1% amortized cost. Compiles to nothing
    /// without the feature.
    #[cfg(feature = "debug-invariants")]
    fn note_mutation(&mut self) {
        self.mutations += 1;
        if self.mutations % PARITY_PERIOD != 0 {
            return;
        }
        let full = crate::cost::objective::fast_objective6(
            self.instance,
            self.coeffs,
            &self.part,
            self.config,
        );
        let inc = self.objective6();
        assert!(
            (inc - full).abs() <= 1e-6 * (1.0 + full.abs()),
            "debug-invariants: incremental objective {inc} diverged from \
             full recompute {full} after {} mutations",
            self.mutations
        );
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn note_mutation(&mut self) {}

    /// Drift guard: recomputes all accumulators from scratch and returns
    /// the absolute difference in objective (6) between the incremental
    /// and the fresh value. Commits pending mutations (the undo log is
    /// cleared — reverting across a resync would mix stale accumulators).
    pub fn resync(&mut self) -> f64 {
        let before = self.objective6();
        self.undo.clear();
        self.rebuild();
        (before - self.objective6()).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WriteAccounting;
    use crate::cost::objective::{evaluate, fast_objective6};
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, Workload};

    /// R{k, v}, S{p, q}: reads on k / p+q, a write on v.
    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("k", 4.0), ("v", 8.0)]).unwrap();
        sb.table("S", &[("p", 2.0), ("q", 16.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]).frequency(2.0))
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("q1")
                    .access(&[AttrId(1)])
                    .rows(vpart_model::TableId(0), 3.0),
            )
            .unwrap();
        let q2 = wb
            .add_query(QuerySpec::read("q2").access(&[AttrId(2), AttrId(3)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        wb.transaction("T2", &[q2]).unwrap();
        Instance::new("inc", schema, wb.build().unwrap()).unwrap()
    }

    fn assert_matches_full(inc: &IncrementalCost, ins: &Instance, cfg: &CostConfig) {
        let full = fast_objective6(ins, inc.coeffs, inc.partitioning(), cfg);
        let scale = 1.0 + full.abs();
        assert!(
            (inc.objective6() - full).abs() <= 1e-9 * scale,
            "incremental {} vs full {}",
            inc.objective6(),
            full
        );
        let b = evaluate(ins, inc.partitioning(), cfg);
        assert!((inc.max_work() - b.max_work).abs() <= 1e-9 * (1.0 + b.max_work));
    }

    #[test]
    fn initial_state_matches_full_evaluation() {
        let ins = instance();
        for wa in [
            WriteAccounting::AllAttributes,
            WriteAccounting::NoAttributes,
        ] {
            let cfg = CostConfig::default().with_write_accounting(wa);
            let coeffs = CostCoefficients::compute(&ins, &cfg);
            let part = Partitioning::single_site(&ins, 3).unwrap();
            let inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
            assert_matches_full(&inc, &ins, &cfg);
        }
    }

    #[test]
    fn txn_move_adds_forced_replicas_and_tracks_cost() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 2).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        inc.apply_txn_move(TxnId(2), SiteId(1));
        // T2 reads p, q → both must now be on site 1.
        assert!(inc.partitioning().has_attr(AttrId(2), SiteId(1)));
        assert!(inc.partitioning().has_attr(AttrId(3), SiteId(1)));
        inc.partitioning().validate(&ins, false).unwrap();
        assert_matches_full(&inc, &ins, &cfg);
    }

    #[test]
    fn replica_add_and_drop_round_trip() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 2).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        let before = inc.objective6();
        assert!(inc.apply_attr_replica(AttrId(1), SiteId(1)));
        assert!(!inc.apply_attr_replica(AttrId(1), SiteId(1)), "idempotent");
        assert_matches_full(&inc, &ins, &cfg);
        assert!(inc.apply_attr_drop(AttrId(1), SiteId(1)));
        assert!((inc.objective6() - before).abs() <= 1e-9 * (1.0 + before.abs()));
    }

    #[test]
    fn drop_respects_feasibility() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 2).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        // k is read by T0 on site 0: its only replica is both forced and
        // last, so it cannot be dropped.
        assert!(!inc.can_drop_replica(AttrId(0), SiteId(0)));
        assert!(!inc.apply_attr_drop(AttrId(0), SiteId(0)));
        // After replicating k to site 1, the site-1 copy is unforced and
        // droppable; the site-0 copy remains forced.
        inc.apply_attr_replica(AttrId(0), SiteId(1));
        assert!(inc.can_drop_replica(AttrId(0), SiteId(1)));
        assert!(!inc.can_drop_replica(AttrId(0), SiteId(0)));
        // Missing replicas are not droppable either.
        assert!(!inc.apply_attr_drop(AttrId(2), SiteId(1)));
    }

    #[test]
    fn revert_restores_layout_and_cost() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 3).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        let layout = inc.partitioning().clone();
        let before = inc.objective6();
        let mark = inc.mark();
        inc.apply_txn_move(TxnId(0), SiteId(2));
        inc.apply_attr_replica(AttrId(3), SiteId(1));
        inc.apply_txn_move(TxnId(2), SiteId(1));
        assert!(inc.objective6() != before);
        inc.revert(mark);
        assert_eq!(inc.partitioning(), &layout, "layout restored exactly");
        assert!((inc.objective6() - before).abs() <= 1e-9 * (1.0 + before.abs()));
        assert_matches_full(&inc, &ins, &cfg);
    }

    #[test]
    fn resync_is_a_noop_within_tolerance() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 3).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        // Churn the accumulators with a long apply/revert sequence.
        for round in 0..50usize {
            let mark = inc.mark();
            inc.apply_txn_move(TxnId::from_index(round % 3), SiteId::from_index(round % 3));
            inc.apply_attr_replica(
                AttrId::from_index(round % 4),
                SiteId::from_index((round + 1) % 3),
            );
            if round % 2 == 0 {
                inc.revert(mark);
            } else {
                inc.commit();
            }
        }
        let scale = 1.0 + inc.objective6().abs();
        let drift = inc.resync();
        assert!(drift <= 1e-9 * scale, "checkpoint drift {drift} too large");
        assert_matches_full(&inc, &ins, &cfg);
    }

    /// With `debug-invariants` on, a run long enough to cross several
    /// [`PARITY_PERIOD`] boundaries keeps passing the periodic parity
    /// self-check in `note_mutation` (which would panic on divergence).
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn parity_self_check_passes_long_mutation_runs() {
        let ins = instance();
        let cfg = CostConfig::default();
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 3).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        let mut round = 0usize;
        while inc.mutations < 3 * PARITY_PERIOD {
            round += 1;
            assert!(round < 100_000, "mutation mix failed to accumulate");
            let mark = inc.mark();
            // Cycle through every (txn, site) pair so moves rarely no-op,
            // and alternate replica adds with feasible drops.
            inc.apply_txn_move(
                TxnId::from_index(round % 3),
                SiteId::from_index((round / 3) % 3),
            );
            let (a, s) = (
                AttrId::from_index(round % 4),
                SiteId::from_index((round + 1) % 3),
            );
            if inc.can_drop_replica(a, s) {
                inc.apply_attr_drop(a, s);
            } else {
                inc.apply_attr_replica(a, s);
            }
            if round % 3 == 0 {
                inc.revert(mark);
            } else {
                inc.commit();
            }
        }
        assert_matches_full(&inc, &ins, &cfg);
    }

    #[test]
    fn latency_term_is_included_when_enabled() {
        let ins = instance();
        let cfg = CostConfig::default().with_latency(5.0);
        let coeffs = CostCoefficients::compute(&ins, &cfg);
        let part = Partitioning::single_site(&ins, 2).unwrap();
        let mut inc = IncrementalCost::new(&ins, &coeffs, &cfg, part);
        // Replicating the written attribute v makes q1 remote → ψ = 1.
        inc.apply_attr_replica(AttrId(1), SiteId(1));
        assert_matches_full(&inc, &ins, &cfg);
    }
}
