//! Migration plans: the physical delta between two partitionings.
//!
//! When a workload drifts and a new [`Partitioning`] replaces the incumbent,
//! the cluster has to *move data*: every attribute newly placed on a site
//! must be shipped there (one column fraction, `w_a` bytes per row), every
//! replica no longer present can be dropped locally (free), and every
//! transaction whose home site changed is re-routed (free — routing tables,
//! not data). [`MigrationPlan::between`] computes that delta as per-site,
//! per-table [`FragmentChange`]s with byte estimates; the execution engine
//! (`vpart_engine::Deployment::migrate_batched`) physically applies the
//! [batched](MigrationPlan::batched) plan and meters the bytes it actually
//! moved with the *same* accounting, so plan estimates and engine
//! measurements must agree exactly.
//!
//! Plans are deliberately *label-sensitive*: `between` diffs the two
//! partitionings as given. Site labels are interchangeable to the solvers,
//! so callers should first relabel the new partitioning to maximize overlap
//! with the old one (see `vpart_online::migrate::canonicalize_against`) —
//! a renumbered-but-identical layout then produces an empty plan.
//!
//! # Batching
//!
//! [`MigrationPlan::batched`] orders the plan's micro-ops into
//! rate-limited, crash-safe batches. Its scheduler is event-driven, so a
//! plan costs time in proportion to its own ops and the read sets they
//! touch, not to `installs × pending ops`:
//!
//! * each pending transaction move counts the attributes it reads that
//!   are still missing at its destination, and waits in the lists of
//!   those `(attribute, site)` pairs;
//! * each `(attribute, site)` pair that an install or drop touches counts
//!   the transactions homed on the site that read the attribute;
//! * an install wakes only the moves waiting on its pair, and then
//!   re-checks only the drops it may have unblocked: drops of the same
//!   attribute (one more replica) and drops whose reader count fell
//!   because a woken move left their site.
//!
//! One pass in plan order reaches the same fixpoint that rescanning every
//! pending op until nothing changes would: moves change no placement, so
//! a move never makes another move safe, and a drop only removes a
//! replica, so it never makes a move or another drop safe. Batch
//! boundaries are checked with two counters kept current by every op:
//! (transaction, read attribute) pairs missing at the transaction's home
//! site, and attributes with no replica.

use crate::error::ModelError;
use crate::ids::{AttrId, SiteId, TableId, TxnId};
use crate::instance::Instance;
use crate::partition::Partitioning;
use serde::{Deserialize, Serialize};

/// One site/table fragment delta: attributes to install and to drop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragmentChange {
    /// The site whose fragment changes.
    pub site: SiteId,
    /// The table whose fraction changes on that site.
    pub table: TableId,
    /// Attributes newly placed on the site (data must be shipped in),
    /// in ascending id order.
    pub installed: Vec<AttrId>,
    /// Attributes removed from the site (local delete, free), ascending.
    pub dropped: Vec<AttrId>,
    /// Estimated bytes shipped to the site for the installs:
    /// `(Σ_{a ∈ installed} w_a) × rows`.
    pub bytes: f64,
}

/// One transaction re-homing (routing change; moves no data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnMove {
    /// The transaction.
    pub txn: TxnId,
    /// Its site under the old partitioning.
    pub from: SiteId,
    /// Its site under the new partitioning.
    pub to: SiteId,
}

/// The full old → new delta.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// The incumbent layout the plan starts from.
    pub from: Partitioning,
    /// The target layout the plan produces.
    pub to: Partitioning,
    /// Fragment deltas, ordered by `(site, table)`.
    pub changes: Vec<FragmentChange>,
    /// Transaction re-homings, ordered by transaction id.
    pub txn_moves: Vec<TxnMove>,
    /// The uniform per-fragment row count the byte estimates assume (the
    /// same parameter `vpart_engine::Deployment::new` materializes).
    pub rows_per_fragment: usize,
}

impl MigrationPlan {
    /// Diffs `from` → `to` over `instance`. Both partitionings must share
    /// the instance's shape and site count and validate against it.
    /// `rows_per_fragment` is clamped to at least 1, exactly as the
    /// engine's `Deployment::new` clamps it, so estimates and the
    /// migration meter agree even at the degenerate value 0.
    pub fn between(
        instance: &Instance,
        from: &Partitioning,
        to: &Partitioning,
        rows_per_fragment: usize,
    ) -> Result<Self, ModelError> {
        if from.n_sites() != to.n_sites() {
            return Err(ModelError::DimensionMismatch {
                what: "migration target sites",
                expected: from.n_sites(),
                got: to.n_sites(),
            });
        }
        from.validate(instance, false)?;
        to.validate(instance, false)?;

        let schema = instance.schema();
        let rows_per_fragment = rows_per_fragment.max(1);
        let rows = rows_per_fragment as f64;
        let mut changes = Vec::new();
        for s in 0..from.n_sites() {
            let site = SiteId::from_index(s);
            for t in 0..instance.n_tables() {
                let table = TableId::from_index(t);
                let mut installed = Vec::new();
                let mut dropped = Vec::new();
                for a in schema.table_attrs(table).map(AttrId::from_index) {
                    match (from.has_attr(a, site), to.has_attr(a, site)) {
                        (false, true) => installed.push(a),
                        (true, false) => dropped.push(a),
                        _ => {}
                    }
                }
                if installed.is_empty() && dropped.is_empty() {
                    continue;
                }
                // The exact expression the engine meter re-evaluates:
                // summed width first, scaled by rows once.
                let bytes = installed.iter().map(|&a| schema.width(a)).sum::<f64>() * rows;
                changes.push(FragmentChange {
                    site,
                    table,
                    installed,
                    dropped,
                    bytes,
                });
            }
        }

        let txn_moves = (0..instance.n_txns())
            .map(TxnId::from_index)
            .filter(|&t| from.site_of(t) != to.site_of(t))
            .map(|t| TxnMove {
                txn: t,
                from: from.site_of(t),
                to: to.site_of(t),
            })
            .collect();

        Ok(Self {
            from: from.clone(),
            to: to.clone(),
            changes,
            txn_moves,
            rows_per_fragment,
        })
    }

    /// Total estimated bytes shipped between sites.
    pub fn estimated_bytes(&self) -> f64 {
        self.changes.iter().map(|c| c.bytes).sum()
    }

    /// Number of attribute installs across all fragment changes.
    pub fn installs(&self) -> usize {
        self.changes.iter().map(|c| c.installed.len()).sum()
    }

    /// Number of attribute drops across all fragment changes.
    pub fn drops(&self) -> usize {
        self.changes.iter().map(|c| c.dropped.len()).sum()
    }

    /// True when the plan changes nothing — the drifted re-solve landed on
    /// the incumbent layout (possibly after relabeling).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.txn_moves.is_empty()
    }

    /// Splits the plan into rate-limited [`MigrationBatch`]es of micro-ops,
    /// each shipping at most `batch_bytes` of installs (a single install
    /// wider than the budget still gets its own batch, so progress is
    /// guaranteed).
    ///
    /// Ordering minimizes the peak transient dual-resident width: moves and
    /// drops are *free* and applied eagerly the moment they become safe,
    /// installs that unblock a pending transaction re-homing go first, and
    /// every batch boundary is a valid [`Partitioning`] — reads stay
    /// single-sited and no attribute is ever unplaced, so the deployment
    /// can serve traffic (and crash, and recover) at any boundary.
    ///
    /// Safety rules for the greedy scheduler:
    /// * `Install(a, s)` is always safe (adds a replica);
    /// * `MoveTxn(t, →s')` is safe once every attribute `t` reads is
    ///   present on `s'`;
    /// * `Drop(a, s)` is safe once `a` is replicated elsewhere and no
    ///   transaction currently homed on `s` reads `a`.
    ///
    /// With a plan produced by [`MigrationPlan::between`] this always
    /// terminates: after all installs every move is safe (the target
    /// validates), and after all moves every drop is safe. Plans may arrive
    /// deserialized, so a tampered one yields
    /// [`ModelError::InconsistentPlan`]: one that cannot make progress or
    /// misses `to`, an install of a replica `from` already holds, a drop of
    /// one it lacks, an attribute listed under another table, or a move
    /// that does not start at the transaction's current site.
    ///
    /// The scheduler is event-driven (see the [module docs](self)): the
    /// moves and drops applied after an install are exactly those a full
    /// rescan of every pending op would find safe, in the same order, so
    /// the batches depend only on the plan and the budget. Each boundary
    /// is checked in O(1) by two counters; with the `debug-invariants`
    /// feature the full [`Partitioning::validate`] also runs there and
    /// must agree.
    pub fn batched(
        &self,
        instance: &Instance,
        batch_bytes: f64,
    ) -> Result<BatchedMigrationPlan, ModelError> {
        if batch_bytes.is_nan() || batch_bytes <= 0.0 {
            return Err(ModelError::InvalidBatchBytes { bytes: batch_bytes });
        }
        if self.from.n_sites() != self.to.n_sites() {
            return Err(ModelError::DimensionMismatch {
                what: "migration target sites",
                expected: self.from.n_sites(),
                got: self.to.n_sites(),
            });
        }
        // Plans may arrive deserialized; re-validate the endpoints.
        self.from.validate(instance, false)?;
        self.to.validate(instance, false)?;

        let mut sched = Scheduler::new(self, instance)?;
        let mut batches = Vec::new();
        let mut peak = 0.0_f64;
        // Free ops that are safe before any install open the first batch.
        let mut ops = Vec::new();
        sched.drain(&mut ops);
        loop {
            let mut install_bytes = 0.0_f64;
            while let Some(&(_, _, b, _)) = sched.installs.get(sched.next_install) {
                if install_bytes > 0.0 && install_bytes + b > batch_bytes {
                    break;
                }
                install_bytes += b;
                sched.install(&mut ops);
            }
            if ops.is_empty() {
                if sched.next_install == sched.installs.len() && sched.pending == 0 {
                    break;
                }
                return Err(ModelError::InconsistentPlan {
                    what: "no safe micro-op available; plan cannot make progress",
                });
            }
            // Every boundary must be servable: a crash here leaves a layout
            // the deployment can keep running on.
            let valid = sched.unread == 0 && sched.unplaced == 0;
            #[cfg(feature = "debug-invariants")]
            assert_eq!(
                valid,
                sched.state.validate(instance, false).is_ok(),
                "boundary counters disagree with Partitioning::validate"
            );
            if !valid {
                return Err(ModelError::InconsistentPlan {
                    what: "batch boundary is not a valid partitioning",
                });
            }
            let transient = sched.stored_delta.max(0.0);
            peak = peak.max(transient);
            batches.push(MigrationBatch {
                ops: std::mem::take(&mut ops),
                bytes: install_bytes,
                transient_bytes: transient,
            });
        }

        if sched.state != self.to {
            return Err(ModelError::InconsistentPlan {
                what: "applying all batches does not reach the target partitioning",
            });
        }
        Ok(BatchedMigrationPlan {
            plan: self.clone(),
            batch_bytes,
            batches,
            peak_transient_bytes: peak,
        })
    }
}

/// The slot of pair `(a, s)`: a scan of `a`'s few slots.
fn find_slot(slots: &[(AttrId, SiteId)], first: &[u32], a: AttrId, s: SiteId) -> Option<usize> {
    let from = first[a.index()] as usize;
    let of_a = &slots[from..first[a.index() + 1] as usize];
    of_a.iter().position(|&(_, x)| x == s).map(|i| from + i)
}

/// Per-slot lists in one flat array: slot `k` holds
/// `values[start[k]..start[k + 1]]`, in the order the entries came.
struct SlotLists {
    start: Vec<u32>,
    values: Vec<u32>,
}

impl SlotLists {
    fn new(n_slots: usize, entries: &[(usize, u32)]) -> Self {
        let mut start = vec![0_u32; n_slots + 1];
        for &(k, _) in entries {
            start[k + 1] += 1;
        }
        for k in 0..n_slots {
            start[k + 1] += start[k];
        }
        let mut values = vec![0; entries.len()];
        let mut fill = start[..n_slots].to_vec();
        for &(k, v) in entries {
            values[fill[k] as usize] = v;
            fill[k] += 1;
        }
        Self { start, values }
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.values[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// The state of one [`MigrationPlan::batched`] call: the layout so far
/// and the pending ops, indexed by the `(attribute, site)` pairs they wait
/// on. Only pairs that some install or drop touches get a *slot*; every
/// other pair keeps its placement for the whole plan, so nothing waiting
/// on it can change. Slots, lists and counters are sized by the plan,
/// plus one slot offset per attribute.
struct Scheduler<'a> {
    instance: &'a Instance,
    /// Rows per fragment, as the byte estimates count them.
    rows: f64,
    state: Partitioning,
    /// `(attr, site, bytes, slot)` in application order.
    installs: Vec<(AttrId, SiteId, f64, usize)>,
    next_install: usize,
    moves: &'a [TxnMove],
    /// Per move: attributes its transaction reads that are missing at its
    /// destination.
    missing: Vec<u32>,
    moved: Vec<bool>,
    /// `(attr, site, slot)` in plan order.
    drops: Vec<(AttrId, SiteId, usize)>,
    dropped: Vec<bool>,
    /// Moves and drops not yet applied.
    pending: usize,
    /// The slots' pairs, sorted: the slot ids of attribute `a` are
    /// `first[a]..first[a + 1]`, ascending by site.
    slots: Vec<(AttrId, SiteId)>,
    first: Vec<u32>,
    /// Per slot: transactions homed on the site that read the attribute.
    readers: Vec<u32>,
    /// Per slot: moves to the site whose transaction reads the attribute.
    waiters: SlotLists,
    /// Per slot: drops of the attribute from the site.
    slot_drops: SlotLists,
    /// (transaction, read attribute) pairs missing at the home site.
    unread: usize,
    /// Attributes with no replica.
    unplaced: usize,
    /// Bytes stored beyond the incumbent layout (installs add, drops
    /// reclaim): the transient dual-resident width.
    stored_delta: f64,
    /// Drops to re-check after an install (reused buffer).
    candidates: Vec<u32>,
}

impl<'a> Scheduler<'a> {
    fn new(plan: &'a MigrationPlan, instance: &'a Instance) -> Result<Self, ModelError> {
        let schema = instance.schema();
        let from = &plan.from;
        let n_sites = from.n_sites();
        let rows = plan.rows_per_fragment.max(1) as f64;

        // Deserialized plans may name ids the layout has no room for.
        let out_of_range = ModelError::InconsistentPlan {
            what: "plan names an attribute, site or transaction outside the instance",
        };
        let redundant_install = ModelError::InconsistentPlan {
            what: "install of an already-present replica",
        };
        let missing_drop = ModelError::InconsistentPlan {
            what: "drop of a replica that is not there",
        };
        // Pending micro-ops in the plan's deterministic (site, table, attr)
        // order.
        let mut installs = Vec::new();
        let mut drops = Vec::new();
        for ch in &plan.changes {
            let attrs = || ch.installed.iter().chain(&ch.dropped);
            if ch.site.index() >= n_sites || attrs().any(|a| a.index() >= instance.n_attrs()) {
                return Err(out_of_range);
            }
            if attrs().any(|&a| schema.table_of(a) != ch.table) {
                return Err(ModelError::InconsistentPlan {
                    what: "fragment change lists an attribute of another table",
                });
            }
            for &a in &ch.installed {
                if from.has_attr(a, ch.site) {
                    return Err(redundant_install);
                }
                installs.push((a, ch.site, schema.width(a) * rows));
            }
            for &a in &ch.dropped {
                if !from.has_attr(a, ch.site) {
                    return Err(missing_drop);
                }
                drops.push((a, ch.site));
            }
        }
        let mut moves = plan.txn_moves.iter();
        if moves.any(|mv| mv.txn.index() >= instance.n_txns() || mv.to.index() >= n_sites) {
            return Err(out_of_range);
        }
        // A transaction's second move starts where its first one left it.
        let mut moved = vec![false; instance.n_txns()];
        for mv in &plan.txn_moves {
            if mv.from != from.site_of(mv.txn)
                || std::mem::replace(&mut moved[mv.txn.index()], true)
            {
                return Err(ModelError::InconsistentPlan {
                    what: "txn move does not start at the transaction's current site",
                });
            }
        }
        let mut slots: Vec<(AttrId, SiteId)> = installs
            .iter()
            .map(|&(a, s, _)| (a, s))
            .chain(drops.iter().copied())
            .collect();
        slots.sort_unstable();
        // Installs name pairs absent from `from` and drops pairs present in
        // it, so a pair listed twice is a second install or a second drop.
        if let Some(w) = slots.windows(2).find(|w| w[0] == w[1]) {
            let (a, s) = w[0];
            return Err(if from.has_attr(a, s) {
                missing_drop
            } else {
                redundant_install
            });
        }
        let n_slots = slots.len();
        let mut first = vec![0_u32; instance.n_attrs() + 1];
        for &(a, _) in &slots {
            first[a.index() + 1] += 1;
        }
        for a in 0..instance.n_attrs() {
            first[a + 1] += first[a];
        }
        let slot = |a: AttrId, s: SiteId| find_slot(&slots, &first, a, s);

        let mut readers = vec![0_u32; n_slots];
        for t in (0..instance.n_txns()).map(TxnId::from_index) {
            let home = from.site_of(t);
            for &a in instance.read_set(t) {
                if let Some(k) = slot(a, home) {
                    readers[k] += 1;
                }
            }
        }
        let mut missing = Vec::with_capacity(plan.txn_moves.len());
        let mut waits = Vec::new();
        for (m, mv) in plan.txn_moves.iter().enumerate() {
            let mut n = 0;
            for &a in instance.read_set(mv.txn) {
                n += u32::from(!from.has_attr(a, mv.to));
                if let Some(k) = slot(a, mv.to) {
                    waits.push((k, m as u32));
                }
            }
            missing.push(n);
        }
        let waiters = SlotLists::new(n_slots, &waits);
        let drops: Vec<(AttrId, SiteId, usize)> = drops
            .into_iter()
            .map(|(a, s)| (a, s, slot(a, s).expect("every drop has a slot")))
            .collect();
        let by_slot: Vec<(usize, u32)> = drops
            .iter()
            .enumerate()
            .map(|(d, &(_, _, k))| (k, d as u32))
            .collect();
        let slot_drops = SlotLists::new(n_slots, &by_slot);

        // Installs some pending re-homing waits on come first (they unblock
        // free moves, which in turn unblock free drops); ties keep the
        // plan's (site, table, attr) order.
        let (mut installs, later): (Vec<_>, Vec<_>) = installs
            .into_iter()
            .map(|(a, s, b)| (a, s, b, slot(a, s).expect("every install has a slot")))
            .partition(|&(_, _, _, k)| !waiters.get(k).is_empty());
        installs.extend(later);

        Ok(Self {
            instance,
            rows,
            state: from.clone(),
            installs,
            next_install: 0,
            moves: &plan.txn_moves,
            moved: vec![false; missing.len()],
            missing,
            dropped: vec![false; drops.len()],
            pending: plan.txn_moves.len() + drops.len(),
            drops,
            slots,
            first,
            readers,
            waiters,
            slot_drops,
            // `from` validated: nothing is unread or unplaced.
            unread: 0,
            unplaced: 0,
            stored_delta: 0.0,
            candidates: Vec::new(),
        })
    }

    fn slot(&self, a: AttrId, s: SiteId) -> Option<usize> {
        find_slot(&self.slots, &self.first, a, s)
    }

    fn drop_is_safe(&self, d: usize) -> bool {
        let (a, s, k) = self.drops[d];
        !self.dropped[d]
            && self.readers[k] == 0
            && self.state.replication(a) > usize::from(self.state.has_attr(a, s))
    }

    /// Applies every free op that is safe now: each ready move, then each
    /// safe drop, in plan order. Opens the first batch.
    fn drain(&mut self, ops: &mut Vec<MigrationOp>) {
        for m in 0..self.moves.len() {
            if self.missing[m] == 0 {
                self.apply_move(m, ops);
            }
        }
        for d in 0..self.drops.len() {
            if self.drop_is_safe(d) {
                self.apply_drop(d, ops);
            }
        }
        self.candidates.clear();
    }

    /// Applies the next install, then the moves it made ready and the
    /// drops it unblocked.
    fn install(&mut self, ops: &mut Vec<MigrationOp>) {
        let (a, s, b, k) = self.installs[self.next_install];
        self.next_install += 1;
        let arrives = !self.state.has_attr(a, s);
        if arrives {
            self.unplaced -= usize::from(self.state.replication(a) == 0);
            self.unread -= self.readers[k] as usize;
            for &m in self.waiters.get(k) {
                self.missing[m as usize] -= 1;
            }
        }
        self.state.add_replica(a, s);
        self.stored_delta += b;
        ops.push(MigrationOp::Install {
            attr: a,
            site: s,
            bytes: b,
        });
        if !arrives {
            return;
        }
        // Waiter lists are in plan order, and before this install every
        // pending move still missed something: the ready ones are exactly
        // those missing nothing now.
        for i in 0..self.waiters.get(k).len() {
            let m = self.waiters.get(k)[i] as usize;
            if !self.moved[m] && self.missing[m] == 0 {
                self.apply_move(m, ops);
            }
        }
        // Drops of `a` gained a replica elsewhere; `apply_move` queued the
        // drops whose reader count fell. No other pending drop can have
        // become safe.
        for slot in self.first[a.index()]..self.first[a.index() + 1] {
            let drops = self.slot_drops.get(slot as usize);
            self.candidates.extend_from_slice(drops);
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.sort_unstable();
        candidates.dedup();
        for &d in &candidates {
            if self.drop_is_safe(d as usize) {
                self.apply_drop(d as usize, ops);
            }
        }
        candidates.clear();
        self.candidates = candidates;
    }

    /// Re-homes move `m`'s transaction (safe: it misses nothing there).
    fn apply_move(&mut self, m: usize, ops: &mut Vec<MigrationOp>) {
        let mv = self.moves[m];
        let home = self.state.site_of(mv.txn);
        for &a in self.instance.read_set(mv.txn) {
            self.unread -= usize::from(!self.state.has_attr(a, home));
            self.unread += usize::from(!self.state.has_attr(a, mv.to));
            if let Some(k) = self.slot(a, home) {
                self.readers[k] -= 1;
                self.candidates.extend_from_slice(self.slot_drops.get(k));
            }
            if let Some(k) = self.slot(a, mv.to) {
                self.readers[k] += 1;
            }
        }
        self.state.move_txn(mv.txn, mv.to);
        self.moved[m] = true;
        self.pending -= 1;
        ops.push(MigrationOp::MoveTxn {
            txn: mv.txn,
            from: mv.from,
            to: mv.to,
        });
    }

    /// Deletes drop `d`'s replica (safe: replicated, and unread there).
    fn apply_drop(&mut self, d: usize, ops: &mut Vec<MigrationOp>) {
        let (a, s, k) = self.drops[d];
        if self.state.has_attr(a, s) {
            self.state.remove_replica(a, s);
            self.unplaced += usize::from(self.state.replication(a) == 0);
            self.unread += self.readers[k] as usize;
            for &m in self.waiters.get(k) {
                self.missing[m as usize] += 1;
            }
        }
        self.stored_delta -= self.instance.schema().width(a) * self.rows;
        self.dropped[d] = true;
        self.pending -= 1;
        ops.push(MigrationOp::Drop { attr: a, site: s });
    }
}

/// One atomic micro-op of a batched migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationOp {
    /// Ship one column fraction to a site (`w_a × rows` bytes — the only
    /// op that moves data).
    Install {
        /// The attribute replicated onto the site.
        attr: AttrId,
        /// The receiving site.
        site: SiteId,
        /// Bytes shipped: `w_attr × rows_per_fragment`.
        bytes: f64,
    },
    /// Delete a replica locally (free).
    Drop {
        /// The attribute removed.
        attr: AttrId,
        /// The site it is removed from.
        site: SiteId,
    },
    /// Re-home a transaction (routing change; free).
    MoveTxn {
        /// The transaction.
        txn: TxnId,
        /// Its site before the move.
        from: SiteId,
        /// Its site after the move.
        to: SiteId,
    },
}

// The serde shim's derive does not cover payload enums; encode ops as a
// tagged object by hand.
impl Serialize for MigrationOp {
    fn to_value(&self) -> serde::Value {
        let fields = match *self {
            Self::Install { attr, site, bytes } => vec![
                ("op".to_string(), "install".to_value()),
                ("attr".to_string(), attr.to_value()),
                ("site".to_string(), site.to_value()),
                ("bytes".to_string(), bytes.to_value()),
            ],
            Self::Drop { attr, site } => vec![
                ("op".to_string(), "drop".to_value()),
                ("attr".to_string(), attr.to_value()),
                ("site".to_string(), site.to_value()),
            ],
            Self::MoveTxn { txn, from, to } => vec![
                ("op".to_string(), "move_txn".to_value()),
                ("txn".to_string(), txn.to_value()),
                ("from".to_string(), from.to_value()),
                ("to".to_string(), to.to_value()),
            ],
        };
        serde::Value::Object(fields)
    }
}

impl Deserialize for MigrationOp {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let tag = v.expect_field("op")?.expect_str()?;
        match tag {
            "install" => Ok(Self::Install {
                attr: AttrId::from_value(v.expect_field("attr")?)?,
                site: SiteId::from_value(v.expect_field("site")?)?,
                bytes: f64::from_value(v.expect_field("bytes")?)?,
            }),
            "drop" => Ok(Self::Drop {
                attr: AttrId::from_value(v.expect_field("attr")?)?,
                site: SiteId::from_value(v.expect_field("site")?)?,
            }),
            "move_txn" => Ok(Self::MoveTxn {
                txn: TxnId::from_value(v.expect_field("txn")?)?,
                from: SiteId::from_value(v.expect_field("from")?)?,
                to: SiteId::from_value(v.expect_field("to")?)?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown migration op tag {other:?}"
            ))),
        }
    }
}

/// One rate-limited unit of a [`BatchedMigrationPlan`]. The engine journals
/// and applies batches atomically: a crash can only land *between* batches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationBatch {
    /// Micro-ops in application order.
    pub ops: Vec<MigrationOp>,
    /// Bytes shipped by this batch's installs (the metered quantity).
    pub bytes: f64,
    /// Bytes stored beyond the source layout at this batch's end boundary
    /// (dual-resident replicas installed but whose doomed twins are not
    /// yet dropped). Clamped at zero: drop-heavy plans shrink storage.
    pub transient_bytes: f64,
}

impl MigrationBatch {
    /// Applies this batch's ops to a partitioning (forward direction).
    pub fn apply_to(&self, p: &mut Partitioning) {
        for op in &self.ops {
            match *op {
                MigrationOp::Install { attr, site, .. } => p.add_replica(attr, site),
                MigrationOp::Drop { attr, site } => p.remove_replica(attr, site),
                MigrationOp::MoveTxn { txn, to, .. } => p.move_txn(txn, to),
            }
        }
    }

    /// Undoes this batch on a partitioning: inverse ops in reverse order.
    /// Undoing a committed suffix retraces the forward path, so every
    /// boundary reached during a rollback validates too.
    pub fn undo_on(&self, p: &mut Partitioning) {
        for op in self.ops.iter().rev() {
            match *op {
                MigrationOp::Install { attr, site, .. } => p.remove_replica(attr, site),
                MigrationOp::Drop { attr, site } => p.add_replica(attr, site),
                MigrationOp::MoveTxn { txn, from, .. } => p.move_txn(txn, from),
            }
        }
    }

    /// Bytes a journaled undo of this batch re-ships: every dropped
    /// replica must be re-installed (`w_a × rows` each); un-installing and
    /// re-homing are free.
    pub fn undo_bytes(&self, instance: &Instance, rows_per_fragment: usize) -> f64 {
        let rows = rows_per_fragment.max(1) as f64;
        self.ops
            .iter()
            .map(|op| match *op {
                MigrationOp::Drop { attr, .. } => instance.schema().width(attr) * rows,
                _ => 0.0,
            })
            .sum()
    }
}

/// A [`MigrationPlan`] split into crash-safe, rate-limited batches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchedMigrationPlan {
    /// The underlying atomic plan.
    pub plan: MigrationPlan,
    /// The per-batch install-byte budget the split honored.
    pub batch_bytes: f64,
    /// The batches, in application order.
    pub batches: Vec<MigrationBatch>,
    /// Peak `transient_bytes` over all batch boundaries: the worst extra
    /// storage the migration needs beyond the incumbent layout.
    pub peak_transient_bytes: f64,
}

impl BatchedMigrationPlan {
    /// Number of batches.
    pub fn n_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total estimated bytes shipped (identical to the atomic plan's).
    pub fn estimated_bytes(&self) -> f64 {
        self.plan.estimated_bytes()
    }

    /// The partitioning at the boundary after the first `k` batches
    /// (`k = 0` is the source, `k = n_batches()` the target). Every
    /// boundary is a valid partitioning a deployment can serve from.
    ///
    /// # Panics
    /// If `k > n_batches()`.
    pub fn boundary(&self, k: usize) -> Partitioning {
        assert!(k <= self.batches.len(), "boundary index out of range");
        let mut p = self.plan.from.clone();
        for b in &self.batches[..k] {
            b.apply_to(&mut p);
        }
        p
    }

    /// A structural 64-bit fingerprint of the batched plan (splitmix64
    /// fold over both endpoint layouts, the row count, the budget and
    /// every micro-op). The engine's write-ahead journal records it so a
    /// recovery refuses to replay a journal against the wrong plan. No
    /// wall clock, no OS entropy: equal plans fingerprint equally across
    /// processes and platforms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15_u64;
        let mut put = |v: u64| h = fp_mix(h, v);
        for p in [&self.plan.from, &self.plan.to] {
            put(p.n_sites() as u64);
            for t in (0..p.n_txns()).map(TxnId::from_index) {
                put(p.site_of(t).index() as u64);
            }
            for a in (0..p.n_attrs()).map(AttrId::from_index) {
                let mut bits = 0_u64;
                for s in p.attr_sites(a) {
                    bits = fp_mix(bits, s.index() as u64);
                }
                put(bits);
            }
        }
        put(self.plan.rows_per_fragment as u64);
        put(self.batch_bytes.to_bits());
        put(self.batches.len() as u64);
        for b in &self.batches {
            for op in &b.ops {
                match *op {
                    MigrationOp::Install { attr, site, bytes } => {
                        put(1);
                        put(attr.index() as u64);
                        put(site.index() as u64);
                        put(bytes.to_bits());
                    }
                    MigrationOp::Drop { attr, site } => {
                        put(2);
                        put(attr.index() as u64);
                        put(site.index() as u64);
                    }
                    MigrationOp::MoveTxn { txn, from, to } => {
                        put(3);
                        put(txn.index() as u64);
                        put(from.index() as u64);
                        put(to.index() as u64);
                    }
                }
            }
        }
        h
    }
}

/// One splitmix64-style fold step: mixes `v` into running hash `h`.
fn fp_mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::workload::{QuerySpec, Workload};

    /// R{a, b}, S{c}: T0 reads a+b, T1 reads c.
    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        sb.table("S", &[("c", 2.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0), AttrId(1)]))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(2)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("mig", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn identical_layouts_produce_an_empty_plan() {
        let ins = instance();
        let p = Partitioning::single_site(&ins, 2).unwrap();
        let plan = MigrationPlan::between(&ins, &p, &p, 16).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.estimated_bytes(), 0.0);
        assert_eq!(plan.installs() + plan.drops(), 0);
    }

    #[test]
    fn install_drop_and_txn_moves_are_collected() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        // Move T1 (reads c) to site 1: c installs on site 1; then drop the
        // now-unread c replica on site 0.
        let to = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        let plan = MigrationPlan::between(&ins, &from, &to, 10).unwrap();
        assert_eq!(plan.txn_moves.len(), 1);
        assert_eq!(plan.txn_moves[0].txn, TxnId(1));
        assert_eq!(plan.txn_moves[0].to, SiteId(1));
        // c: dropped from site 0, installed on site 1 → 2 bytes × 10 rows.
        assert_eq!(plan.installs(), 1);
        assert_eq!(plan.drops(), 1);
        assert_eq!(plan.estimated_bytes(), 20.0);
        let install = plan
            .changes
            .iter()
            .find(|c| !c.installed.is_empty())
            .unwrap();
        assert_eq!(install.site, SiteId(1));
        assert_eq!(install.table, TableId(1));
        assert_eq!(install.installed, vec![AttrId(2)]);
    }

    #[test]
    fn mismatched_site_counts_are_rejected() {
        let ins = instance();
        let a = Partitioning::single_site(&ins, 2).unwrap();
        let b = Partitioning::single_site(&ins, 3).unwrap();
        assert!(matches!(
            MigrationPlan::between(&ins, &a, &b, 4),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        let to = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        let plan = MigrationPlan::between(&ins, &from, &to, 8).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: MigrationPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    fn shop_plan(rows: usize) -> (Instance, MigrationPlan) {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        let to = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        let plan = MigrationPlan::between(&ins, &from, &to, rows).unwrap();
        (ins, plan)
    }

    #[test]
    fn unlimited_budget_yields_a_single_batch_reaching_the_target() {
        let (ins, plan) = shop_plan(10);
        let b = plan.batched(&ins, f64::INFINITY).unwrap();
        assert_eq!(b.n_batches(), 1);
        assert_eq!(b.boundary(0), plan.from);
        assert_eq!(b.boundary(1), plan.to);
        let total: f64 = b.batches.iter().map(|x| x.bytes).sum();
        assert_eq!(total, plan.estimated_bytes());
    }

    #[test]
    fn every_boundary_validates_and_budget_is_honored() {
        let (ins, plan) = shop_plan(10);
        // Budget smaller than any single install: one install per batch.
        let b = plan.batched(&ins, 1.0).unwrap();
        assert!(b.n_batches() >= 1);
        for k in 0..=b.n_batches() {
            b.boundary(k).validate(&ins, false).unwrap();
        }
        for batch in &b.batches {
            let installs = batch
                .ops
                .iter()
                .filter(|o| matches!(o, MigrationOp::Install { .. }))
                .count();
            assert!(installs <= 1, "tiny budget must isolate installs");
        }
        assert_eq!(b.boundary(b.n_batches()), plan.to);
        let total: f64 = b.batches.iter().map(|x| x.bytes).sum();
        assert_eq!(total, plan.estimated_bytes());
    }

    #[test]
    fn eager_drops_bound_the_transient_width() {
        let (ins, plan) = shop_plan(10);
        let b = plan.batched(&ins, f64::INFINITY).unwrap();
        // c (2 bytes × 10 rows) installs on site 1; the doomed site-0
        // replica drops inside the same batch once T1 re-homes, so the
        // boundary carries no dual-resident bytes.
        assert_eq!(b.peak_transient_bytes, 0.0);
        assert_eq!(b.batches.last().unwrap().transient_bytes, 0.0);
    }

    #[test]
    fn undo_retraces_the_forward_path() {
        let (ins, plan) = shop_plan(10);
        let b = plan.batched(&ins, 1.0).unwrap();
        let mut p = plan.to.clone();
        for batch in b.batches.iter().rev() {
            batch.undo_on(&mut p);
            p.validate(&ins, false).unwrap();
        }
        assert_eq!(p, plan.from);
        // Undoing re-installs every dropped replica: c on site 0.
        let undo_total: f64 = b
            .batches
            .iter()
            .map(|x| x.undo_bytes(&ins, plan.rows_per_fragment))
            .sum();
        assert_eq!(undo_total, 20.0);
    }

    #[test]
    fn invalid_budgets_are_rejected() {
        let (ins, plan) = shop_plan(10);
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                plan.batched(&ins, bad),
                Err(ModelError::InvalidBatchBytes { .. })
            ));
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let (ins, plan) = shop_plan(10);
        let a = plan.batched(&ins, f64::INFINITY).unwrap();
        let b = plan.batched(&ins, f64::INFINITY).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = plan.batched(&ins, 1.0).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let (ins2, plan2) = shop_plan(11);
        let d = plan2.batched(&ins2, f64::INFINITY).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    /// The error a tampered plan must yield: `InconsistentPlan` with `what`.
    fn assert_inconsistent(ins: &Instance, plan: &MigrationPlan, what: &str) {
        for budget in [1.0, 64.0, f64::INFINITY] {
            match plan.batched(ins, budget) {
                Err(ModelError::InconsistentPlan { what: got }) => assert_eq!(got, what),
                other => panic!("expected InconsistentPlan({what}), got {other:?}"),
            }
        }
    }

    #[test]
    fn removing_an_install_a_move_needs_is_inconsistent() {
        let (ins, mut plan) = shop_plan(10);
        // T1's move to site 1 waits on c arriving there; without that
        // install neither the move nor the drop of c on site 0 can run.
        plan.changes.retain(|c| c.installed.is_empty());
        assert_inconsistent(
            &ins,
            &plan,
            "no safe micro-op available; plan cannot make progress",
        );
    }

    #[test]
    fn an_extra_drop_that_misses_the_target_is_inconsistent() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        // The target keeps a replica of c on site 0 next to T1's new home.
        let mut to = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        to.add_replica(AttrId(2), SiteId(0));
        let mut plan = MigrationPlan::between(&ins, &from, &to, 10).unwrap();
        assert_eq!(plan.drops(), 0);
        // Dropping that replica is safe once T1 has moved, so it runs and
        // the last boundary misses the target.
        plan.changes.push(FragmentChange {
            site: SiteId(0),
            table: TableId(1),
            installed: Vec::new(),
            dropped: vec![AttrId(2)],
            bytes: 0.0,
        });
        assert_inconsistent(
            &ins,
            &plan,
            "applying all batches does not reach the target partitioning",
        );
        // Dropping the only replica of a (read by T0) is never safe.
        plan.changes.last_mut().unwrap().table = TableId(0);
        plan.changes.last_mut().unwrap().dropped = vec![AttrId(0)];
        assert_inconsistent(
            &ins,
            &plan,
            "no safe micro-op available; plan cannot make progress",
        );
    }

    #[test]
    fn a_change_listing_another_tables_attribute_is_inconsistent() {
        let (ins, mut plan) = shop_plan(10);
        let change = plan
            .changes
            .iter_mut()
            .find(|c| !c.installed.is_empty())
            .unwrap();
        // c belongs to S (table 1); claim it for R.
        change.table = TableId(0);
        assert_inconsistent(
            &ins,
            &plan,
            "fragment change lists an attribute of another table",
        );
    }

    #[test]
    fn a_redundant_install_is_inconsistent() {
        let (ins, mut plan) = shop_plan(10);
        let what = "install of an already-present replica";
        // c is already on site 0 under `from`.
        let mut present = plan.clone();
        present.changes.push(FragmentChange {
            site: SiteId(0),
            table: TableId(1),
            installed: vec![AttrId(2)],
            dropped: Vec::new(),
            bytes: 20.0,
        });
        assert_inconsistent(&ins, &present, what);
        // Installing c on site 1 twice.
        let change = plan.changes.iter().find(|c| !c.installed.is_empty());
        let twice = change.unwrap().clone();
        plan.changes.push(twice);
        assert_inconsistent(&ins, &plan, what);
    }

    #[test]
    fn a_drop_of_a_missing_replica_is_inconsistent() {
        let (ins, mut plan) = shop_plan(10);
        let what = "drop of a replica that is not there";
        // Nothing lives on site 1 under `from`.
        let mut missing = plan.clone();
        missing.changes.push(FragmentChange {
            site: SiteId(1),
            table: TableId(0),
            installed: Vec::new(),
            dropped: vec![AttrId(0)],
            bytes: 0.0,
        });
        assert_inconsistent(&ins, &missing, what);
        // Dropping c from site 0 twice.
        let change = plan.changes.iter().find(|c| !c.dropped.is_empty());
        let twice = change.unwrap().clone();
        plan.changes.push(twice);
        assert_inconsistent(&ins, &plan, what);
    }

    #[test]
    fn a_move_from_the_wrong_site_is_inconsistent() {
        let (ins, plan) = shop_plan(10);
        let what = "txn move does not start at the transaction's current site";
        // T1 starts on site 0, not site 1.
        let mut wrong_start = plan.clone();
        wrong_start.txn_moves[0].from = SiteId(1);
        // A second move of T1 would start on site 1, where the first left it.
        let mut twice = plan.clone();
        twice.txn_moves.push(plan.txn_moves[0]);
        for tampered in [wrong_start, twice] {
            assert_inconsistent(&ins, &tampered, what);
        }
    }

    #[test]
    fn ids_outside_the_instance_are_inconsistent_not_a_panic() {
        let (ins, plan) = shop_plan(10);
        let what = "plan names an attribute, site or transaction outside the instance";
        let mut bad_site = plan.clone();
        bad_site.changes[0].site = SiteId(2);
        let mut bad_attr = plan.clone();
        bad_attr.changes[0].dropped.push(AttrId(3));
        let mut bad_txn = plan.clone();
        bad_txn.txn_moves[0].txn = TxnId(2);
        let mut bad_move = plan;
        bad_move.txn_moves[0].to = SiteId(5);
        for tampered in [bad_site, bad_attr, bad_txn, bad_move] {
            assert_inconsistent(&ins, &tampered, what);
        }
    }

    #[test]
    fn batched_serde_round_trip() {
        let (ins, plan) = shop_plan(10);
        let b = plan.batched(&ins, 64.0).unwrap();
        let json = serde_json::to_string(&b).unwrap();
        let back: BatchedMigrationPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
        assert_eq!(b.fingerprint(), back.fingerprint());
    }
}
