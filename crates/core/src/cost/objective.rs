//! Objective evaluation for a concrete partitioning: one walk per
//! quantity.
//!
//! * [`evaluate`] — the authoritative query-level evaluation. One walk
//!   over the queries in id order visits every byte amount objective (4)
//!   charges: whole-fraction reads at the home site, writes under all
//!   three write-accounting strategies, and α-transfers to non-home
//!   replicas. `evaluate` sums them per site into a [`CostBreakdown`];
//!   [`predicted_txn_bytes`] is the same walk viewed per transaction.
//! * [`fast_objective6`] — the coefficient scorer. One walk over the
//!   `c1`–`c4` coefficients yields objective (4) and the maximum site
//!   work; it equals `evaluate` for the `AllAttributes`/`NoAttributes`
//!   strategies, the ones expressible as static coefficients.
//!
//! The paper's convention: solvers *minimize* objective (6) but always
//! *report* objective (4) — `A + p·B` — as "the actual cost of a solution".

use crate::config::{CostConfig, WriteAccounting};
use crate::cost::coeffs::CostCoefficients;
use crate::cost::latency::latency_term;
use vpart_model::{AttrId, Instance, Partitioning, QueryId, SiteId, TxnId};

/// Full cost decomposition of a partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// `A_R`: bytes read by storage access methods (single-sited reads).
    pub read: f64,
    /// `A_W`: bytes written by storage access methods, per the configured
    /// write-accounting strategy.
    pub write: f64,
    /// `B`: bytes transferred between sites (write replication traffic).
    pub transfer: f64,
    /// Objective (4): `A_R + A_W + p·B` — the paper's reported cost.
    pub objective4: f64,
    /// Work per site (equation (5)).
    pub site_work: Vec<f64>,
    /// `m`: the maximum site work.
    pub max_work: f64,
    /// Objective (6): `λ·objective4 + (1−λ)·m`.
    pub objective6: f64,
    /// Appendix A latency term `p_l·Σ f_q·ψ_q` (0 when disabled).
    pub latency: f64,
}

/// Predicted bytes for a single execution of one transaction.
///
/// One execution of transaction `t` means what one engine execution
/// means: every query of `t` runs at its workload frequency, so the
/// model's totals are exactly one execution of every transaction, and a
/// replay stream with counts `n_t` is priced as `Σ_t n_t · TxnBytes[t]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TxnBytes {
    /// Bytes read by storage access methods (whole fraction rows at the
    /// home site, for every read query of the transaction).
    pub read: f64,
    /// Bytes written by storage access methods across all replica sites,
    /// per the configured write-accounting strategy.
    pub written: f64,
    /// Bytes shipped to remote replicas (α-attribute replication traffic).
    pub transferred: f64,
}

impl TxnBytes {
    /// Total predicted bytes touched (read + written + transferred).
    pub fn total(&self) -> f64 {
        self.read + self.written + self.transferred
    }
}

/// What a byte amount of the query walk pays for: a read or a write at a
/// site, or a transfer to a remote replica.
#[derive(Clone, Copy)]
enum Charge {
    Read(SiteId),
    Write(SiteId),
    Transfer,
}

/// The one query-level walk of the cost model: calls `charge` with every
/// byte amount objective (4) prices, the transaction that pays it, and
/// what it pays for — queries, tables and attributes in id order, replica
/// sites in site order.
fn walk_charges(
    instance: &Instance,
    part: &Partitioning,
    config: &CostConfig,
    mut charge: impl FnMut(TxnId, Charge, f64),
) {
    let schema = instance.schema();
    let mut write_sites = vec![false; part.n_sites()];
    for (qi, q) in instance.workload().queries().iter().enumerate() {
        let t = instance.gamma(QueryId::from_index(qi));
        let home = part.site_of(t);
        let writes = q.kind.is_write();
        for &(table, rows) in &q.table_rows {
            // The replica sites a write pays at: all (AllAttributes), none
            // (NoAttributes), or those holding a written attribute of this
            // table (RelevantAttributes).
            write_sites.fill(writes && config.write_accounting == WriteAccounting::AllAttributes);
            if writes && config.write_accounting == WriteAccounting::RelevantAttributes {
                for &a in q.attrs.iter().filter(|&&a| schema.table_of(a) == table) {
                    part.attr_sites(a)
                        .for_each(|s| write_sites[s.index()] = true);
                }
            }
            for ai in schema.table_attrs(table) {
                let a = AttrId::from_index(ai);
                let w = schema.width(a) * q.frequency * rows;
                if !writes {
                    // Read: single-sited — pay for every locally present
                    // attribute of the touched table on the home site.
                    if part.has_attr(a, home) {
                        charge(t, Charge::Read(home), w);
                    }
                    continue;
                }
                // Updated attributes also travel to every replica site
                // other than the executing one.
                let shipped = q.accesses_attr(a);
                for s in part.attr_sites(a) {
                    if write_sites[s.index()] {
                        charge(t, Charge::Write(s), w);
                    }
                    if shipped && s != home {
                        charge(t, Charge::Transfer, w);
                    }
                }
            }
        }
    }
}

/// Evaluates the full cost breakdown of `p` on `instance`.
pub fn evaluate(instance: &Instance, part: &Partitioning, config: &CostConfig) -> CostBreakdown {
    let n_sites = part.n_sites();
    let mut read = 0.0;
    let mut write = 0.0;
    let mut transfer = 0.0;
    let mut site_read = vec![0.0; n_sites];
    let mut site_write = vec![0.0; n_sites];
    walk_charges(instance, part, config, |_, charge, w| match charge {
        Charge::Read(s) => {
            read += w;
            site_read[s.index()] += w;
        }
        Charge::Write(s) => {
            write += w;
            site_write[s.index()] += w;
        }
        Charge::Transfer => transfer += w,
    });

    let site_work: Vec<f64> = site_read
        .iter()
        .zip(&site_write)
        .map(|(r, w)| r + w)
        .collect();
    let max_work = site_work.iter().fold(0.0f64, |m, &w| m.max(w));
    let objective4 = read + write + config.p * transfer;
    let latency = latency_term(instance, part, config);
    let objective6 = config.lambda * objective4 + (1.0 - config.lambda) * max_work + latency;

    CostBreakdown {
        read,
        write,
        transfer,
        objective4,
        site_work,
        max_work,
        objective6,
        latency,
    }
}

/// [`evaluate`]'s walk viewed per transaction: entry `t` prices one
/// execution of `TxnId(t)`, and the component sums over all transactions
/// are the `read`/`write`/`transfer` fields of `evaluate`.
pub fn predicted_txn_bytes(
    instance: &Instance,
    part: &Partitioning,
    config: &CostConfig,
) -> Vec<TxnBytes> {
    let mut out = vec![TxnBytes::default(); instance.n_txns()];
    walk_charges(instance, part, config, |t, charge, w| {
        let bytes = &mut out[t.index()];
        match charge {
            Charge::Read(_) => bytes.read += w,
            Charge::Write(_) => bytes.written += w,
            Charge::Transfer => bytes.transferred += w,
        }
    });
    out
}

/// The one coefficient walk: objective (4) (`Σ c1·x·y + Σ c2·y`) and the
/// maximum site work `m` (from `c3` and `c4`) of `part`.
pub(crate) fn coefficient_score(coeffs: &CostCoefficients, part: &Partitioning) -> (f64, f64) {
    let n_sites = part.n_sites();
    let mut quad = 0.0; // Σ c1(a,t)·y[a][x_t]
    let mut site_read = vec![0.0; n_sites];
    for t in 0..part.n_txns() {
        let txn = TxnId::from_index(t);
        let s = part.site_of(txn);
        for &(a, c1, c3) in coeffs.txn_terms(txn) {
            if part.has_attr(a, s) {
                quad += c1;
                site_read[s.index()] += c3;
            }
        }
    }
    let mut lin = 0.0; // Σ c2(a)·replicas(a)
    let mut site_write = vec![0.0; n_sites];
    for a in 0..part.n_attrs() {
        let attr = AttrId::from_index(a);
        let c2 = coeffs.c2(attr);
        let c4 = coeffs.c4(attr);
        for s in part.attr_sites(attr) {
            lin += c2;
            site_write[s.index()] += c4;
        }
    }
    let m = site_read
        .iter()
        .zip(&site_write)
        .map(|(r, w)| r + w)
        .fold(0.0f64, f64::max);
    (quad + lin, m)
}

/// Coefficient-based evaluation of objective (6), used by the solvers.
/// Matches [`evaluate`] exactly for the `AllAttributes` and
/// `NoAttributes` strategies (the ones expressible as static
/// coefficients). Includes the latency term when enabled.
pub fn fast_objective6(
    instance: &Instance,
    coeffs: &CostCoefficients,
    part: &Partitioning,
    config: &CostConfig,
) -> f64 {
    let (obj4, m) = coefficient_score(coeffs, part);
    config.lambda * obj4 + (1.0 - config.lambda) * m + latency_term(instance, part, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, SiteId, Workload};

    /// R{k(4), v(8)}: T0 reads k (f=2); T1 writes v (f=1, 3 rows).
    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("k", 4.0), ("v", 8.0)]).unwrap();
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
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("obj", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn single_site_costs_by_hand() {
        let ins = instance();
        let cfg = CostConfig::default();
        let p = Partitioning::single_site(&ins, 1).unwrap();
        let b = evaluate(&ins, &p, &cfg);
        // Read: q0 on site 0 reads both k and v (whole table present):
        // W_k = 8, W_v = 16 → A_R = 24.
        assert_eq!(b.read, 24.0);
        // Write (AllAttributes): q1 writes table on 1 replica site:
        // W_k = 12, W_v = 24 → A_W = 36.
        assert_eq!(b.write, 36.0);
        // No remote replicas → B = 0.
        assert_eq!(b.transfer, 0.0);
        assert_eq!(b.objective4, 60.0);
        assert_eq!(b.max_work, 60.0);
        assert_eq!(b.site_work, vec![60.0]);
        // objective6 = 0.1·60 + 0.9·60 = 60.
        assert!((b.objective6 - 60.0).abs() < 1e-12);
        assert_eq!(b.latency, 0.0);
    }

    #[test]
    fn two_sites_with_replication_by_hand() {
        let ins = instance();
        let cfg = CostConfig::default();
        // T0 on site 0, T1 on site 1; k placed on both, v on both.
        let mut p = Partitioning::minimal_for_x(&ins, vec![SiteId(0), SiteId(1)], 2).unwrap();
        // minimal: k on site 0 (read by T0); v unread → site 0.
        p.add_replica(AttrId(0), SiteId(1));
        p.add_replica(AttrId(1), SiteId(1));
        let b = evaluate(&ins, &p, &cfg);
        // Read unchanged (both attrs on site 0): 24.
        assert_eq!(b.read, 24.0);
        // Write: both attrs now on 2 sites → 2·36 = 72.
        assert_eq!(b.write, 72.0);
        // Transfer: v (α of q1) has a replica on site 0 ≠ home(T1)=1 → 24.
        assert_eq!(b.transfer, 24.0);
        assert_eq!(b.objective4, 24.0 + 72.0 + 8.0 * 24.0);
        // Site work: site0 = read 24 + write 36 = 60; site1 = write 36.
        assert_eq!(b.site_work, vec![60.0, 36.0]);
        assert_eq!(b.max_work, 60.0);
    }

    /// T0 on site 0 reads; T1 runs on site 1 and writes v, which lives
    /// only on site 0, while k is replicated on both sites: every write
    /// accounting prices T1 differently, and v is shipped.
    #[test]
    fn per_txn_bytes_by_hand() {
        let ins = instance();
        let mut p = Partitioning::single_site(&ins, 2).unwrap();
        p.add_replica(AttrId(0), SiteId(1));
        p.move_txn(TxnId(1), SiteId(1));
        // T0: whole fraction (k 4 + v 8) × f2 × 1 row = 24.
        // T1 (3 rows): W_k = 12, W_v = 24; v travels to site 0 → 24.
        for (wa, written) in [
            (WriteAccounting::AllAttributes, 12.0 + 12.0 + 24.0),
            (WriteAccounting::RelevantAttributes, 12.0 + 24.0),
            (WriteAccounting::NoAttributes, 0.0),
        ] {
            let cfg = CostConfig::default().with_write_accounting(wa);
            let per = predicted_txn_bytes(&ins, &p, &cfg);
            let got: Vec<_> = per
                .iter()
                .map(|b| (b.read, b.written, b.transferred))
                .collect();
            assert_eq!(got, [(24.0, 0.0, 0.0), (0.0, written, 24.0)], "{wa:?}");
            assert_eq!(per[1].total(), written + 24.0);
            let b = evaluate(&ins, &p, &cfg);
            assert_eq!((b.read, b.write, b.transfer), (24.0, written, 24.0));
        }
    }

    #[test]
    fn fast_paths_agree_with_evaluate() {
        let ins = instance();
        for wa in [
            WriteAccounting::AllAttributes,
            WriteAccounting::NoAttributes,
        ] {
            let cfg = CostConfig::default().with_write_accounting(wa);
            let coeffs = CostCoefficients::compute(&ins, &cfg);
            for x in [
                vec![SiteId(0), SiteId(0)],
                vec![SiteId(0), SiteId(1)],
                vec![SiteId(1), SiteId(0)],
            ] {
                let mut p = Partitioning::minimal_for_x(&ins, x, 2).unwrap();
                let b = evaluate(&ins, &p, &cfg);
                assert!(
                    (fast_objective6(&ins, &coeffs, &p, &cfg) - b.objective6).abs() < 1e-9,
                    "fast6 mismatch ({wa:?})"
                );
                assert!((coefficient_score(&coeffs, &p).0 - b.objective4).abs() < 1e-9);
                // And again with extra replication.
                p.add_replica(AttrId(0), SiteId(1));
                let b = evaluate(&ins, &p, &cfg);
                assert!((fast_objective6(&ins, &coeffs, &p, &cfg) - b.objective6).abs() < 1e-9);
                assert!((coefficient_score(&coeffs, &p).0 - b.objective4).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn relevant_accounting_is_at_most_all_attributes() {
        let ins = instance();
        let all = CostConfig::default();
        let rel = CostConfig::default().with_write_accounting(WriteAccounting::RelevantAttributes);
        let none = CostConfig::default().with_write_accounting(WriteAccounting::NoAttributes);
        let mut p = Partitioning::single_site(&ins, 2).unwrap();
        p.add_replica(AttrId(0), SiteId(1)); // k alone on site 1
        let b_all = evaluate(&ins, &p, &all);
        let b_rel = evaluate(&ins, &p, &rel);
        let b_none = evaluate(&ins, &p, &none);
        // Site 1 holds only k, which q1 does not write → relevant pays
        // nothing there, all-attributes pays W_k = 12.
        assert_eq!(b_all.write, 36.0 + 12.0);
        assert_eq!(b_rel.write, 36.0);
        assert_eq!(b_none.write, 0.0);
        assert!(b_none.write <= b_rel.write && b_rel.write <= b_all.write);
    }

    #[test]
    fn local_placement_has_zero_transfer_cost_weight() {
        let ins = instance();
        let cfg = CostConfig::local_placement();
        let mut p = Partitioning::single_site(&ins, 2).unwrap();
        p.add_replica(AttrId(1), SiteId(1));
        let b = evaluate(&ins, &p, &cfg);
        assert!(b.transfer > 0.0); // bytes still counted...
        assert_eq!(b.objective4, b.read + b.write); // ...but cost-free
    }
}
