//! Production-rate trace replay with true-byte metering.
//!
//! [`Deployment::execute`](crate::Deployment::execute) meters *fractional*
//! bytes (average widths × fractional row counts) and therefore agrees
//! with the cost model exactly — by construction. This module answers the
//! harder question: how far is the model from what an executor moving
//! **physical** bytes at full speed actually does?
//!
//! A [`ReplayDeployment`] materializes the partitioning as row-major
//! storage ([`RowSegment`]) split into a fixed number of contiguous
//! *row-range shards*. A [`ReplayStream`] expands an instance into a
//! seeded, deterministic stream of row-level touches.
//! [`ReplayDeployment::replay`] runs the stream on `std::thread::scope`
//! workers, each owning a contiguous run of shards outright:
//!
//! * the stream is cut into blocks of a bounded number of touches; within
//!   a block every worker expands a contiguous slice of executions and
//!   routes each touch, hashed once, to the outbox of the worker that
//!   owns its row;
//! * after a barrier, each worker executes the outboxes addressed to it
//!   in producer order — the slices are contiguous and in order, so every
//!   shard sees its touches in stream order, with no locks on storage;
//! * byte meters are per-shard `u64`s merged in shard order, so totals
//!   are **bit-identical across thread counts** (the shard count, not the
//!   thread count, fixes the summation structure);
//! * pass 0 is the metered pass; subsequent passes repeat the same work
//!   until the configured duration elapses and only feed the
//!   throughput clock.
//!
//! The measured bytes are compared against the cost model's prediction
//! ([`PredictedBytes`], computed by the caller from
//! `vpart_core::predicted_txn_bytes` — the engine deliberately does not
//! depend on the solver crates) yielding a [`ReplayModelError`]: the
//! relative gap between predicted and true bytes, which quantifies the
//! model's quantization error (average widths and fractional row counts
//! vs. physical rounded-up columns and integer rows).

use crate::faults::{FaultInjector, FP_REPLAY_PASS};
use crate::storage::RowSegment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vpart_model::{AttrId, Instance, Partitioning, TxnId};
use vpart_obs::{HealthMonitor, Obs};

use crate::executor::EngineError;

/// Default shard count: fixed independently of `threads` so meter
/// summation structure — and thus every byte total — is identical no
/// matter how many workers replay the stream.
pub const DEFAULT_SHARDS: usize = 32;

const FNV_PRIME: u64 = 1099511628211;

/// Row touches one worker routes per block: a block of `T` workers routes
/// at most `T × SLICE_TOUCHES` 8-byte touches (more only when a single
/// execution exceeds the budget), which bounds the routing buffers.
const SLICE_TOUCHES: usize = 1 << 12;

/// splitmix64 finalizer: the row-touch hash.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, deterministic stream of transaction executions to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStream {
    /// Transaction executions in order.
    pub executions: Vec<TxnId>,
    /// Seed for the row-touch hash (which table rows each execution hits).
    pub seed: u64,
}

impl ReplayStream {
    /// Every transaction exactly `rounds` times, round-robin.
    ///
    /// With the paper's equal-frequency assumption (`f_q = 1`), a
    /// `rounds`-round uniform stream measures exactly `rounds ×` the cost
    /// model's predicted byte counts.
    pub fn uniform(instance: &Instance, rounds: usize, seed: u64) -> Self {
        let mut executions = Vec::with_capacity(rounds * instance.n_txns());
        for _ in 0..rounds {
            for t in 0..instance.n_txns() {
                executions.push(TxnId::from_index(t));
            }
        }
        Self { executions, seed }
    }

    /// `total` executions sampled with probability proportional to each
    /// transaction's total query frequency (seeded, deterministic).
    pub fn weighted(instance: &Instance, total: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..instance.n_txns())
            .map(|t| {
                instance
                    .workload()
                    .txn(TxnId::from_index(t))
                    .queries
                    .iter()
                    .map(|&q| instance.workload().query(q).frequency)
                    .sum()
            })
            .collect();
        let sum: f64 = weights.iter().sum();
        let executions = (0..total)
            .map(|_| {
                let mut pick = rng.gen::<f64>() * sum;
                for (t, w) in weights.iter().enumerate() {
                    pick -= w;
                    if pick <= 0.0 {
                        return TxnId::from_index(t);
                    }
                }
                TxnId::from_index(instance.n_txns() - 1)
            })
            .collect();
        Self { executions, seed }
    }

    /// Number of executions per pass.
    pub fn len(&self) -> usize {
        self.executions.len()
    }

    /// True if the stream has no executions.
    pub fn is_empty(&self) -> bool {
        self.executions.is_empty()
    }

    /// How many times each transaction appears.
    pub fn counts(&self, n_txns: usize) -> Vec<usize> {
        let mut c = vec![0; n_txns];
        for t in &self.executions {
            c[t.index()] += 1;
        }
        c
    }
}

/// How the replay stream picks which physical row a touch hits.
///
/// The paper's cost model assumes uniform row touches; the skewed
/// generators measure how far non-uniform access pushes the true-byte
/// meters and throughput. All variants map the same deterministic
/// splitmix64 touch hash, so skewed replays stay bit-identical across
/// thread counts and runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RowSkew {
    /// Uniform over all rows (the paper's assumption; the default).
    #[default]
    Uniform,
    /// Zipfian with parameter `theta ∈ (0, 1)` (YCSB's generator: larger
    /// `theta` ⇒ heavier head; 0.99 is YCSB's default "zipfian").
    Zipf {
        /// The Zipf exponent.
        theta: f64,
    },
    /// A hot set of `frac ∈ (0, 1)` of the rows receives `1 − frac` of
    /// the touches (`hotspot:0.1` ⇒ 10% of rows take 90% of traffic).
    Hotspot {
        /// The hot fraction of rows.
        frac: f64,
    },
}

impl RowSkew {
    /// Parses the CLI's `--skew` syntax: `uniform`, `zipf:<theta>` or
    /// `hotspot:<frac>`.
    pub fn parse(s: &str) -> Result<Self, EngineError> {
        if s == "uniform" {
            return Ok(Self::Uniform);
        }
        if let Some(t) = s.strip_prefix("zipf:") {
            let theta: f64 = t.parse().map_err(|_| EngineError::InvalidReplay {
                what: "zipf skew wants a numeric theta (e.g. zipf:0.99)",
            })?;
            if !(theta > 0.0 && theta < 1.0) {
                return Err(EngineError::InvalidReplay {
                    what: "zipf theta must be in (0, 1)",
                });
            }
            return Ok(Self::Zipf { theta });
        }
        if let Some(fr) = s.strip_prefix("hotspot:") {
            let frac: f64 = fr.parse().map_err(|_| EngineError::InvalidReplay {
                what: "hotspot skew wants a numeric fraction (e.g. hotspot:0.2)",
            })?;
            if !(frac > 0.0 && frac < 1.0) {
                return Err(EngineError::InvalidReplay {
                    what: "hotspot fraction must be in (0, 1)",
                });
            }
            return Ok(Self::Hotspot { frac });
        }
        Err(EngineError::InvalidReplay {
            what: "unknown skew (want uniform, zipf:<theta> or hotspot:<frac>)",
        })
    }
}

/// A [`RowSkew`] compiled against a concrete row count: maps the uniform
/// 64-bit touch hash to a row index. Pure and `Sync` — workers share it.
#[derive(Debug, Clone, Copy)]
enum SkewMap {
    Uniform {
        n: u64,
    },
    /// YCSB's zipfian mapper with `ζ(n, θ)` precomputed.
    Zipf {
        n: f64,
        zetan: f64,
        eta: f64,
        alpha: f64,
        half_pow_theta: f64,
    },
    Hotspot {
        hot: u64,
        cold: u64,
        hot_traffic: f64,
    },
}

impl SkewMap {
    fn new(skew: RowSkew, n: u64) -> Self {
        match skew {
            RowSkew::Uniform => Self::Uniform { n },
            RowSkew::Zipf { theta } => {
                let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                let nf = n as f64;
                let eta = (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Self::Zipf {
                    n: nf,
                    zetan,
                    eta,
                    alpha: 1.0 / (1.0 - theta),
                    half_pow_theta: 0.5f64.powf(theta),
                }
            }
            RowSkew::Hotspot { frac } => {
                let hot = (((n as f64) * frac).ceil() as u64).clamp(1, n);
                Self::Hotspot {
                    hot,
                    cold: n - hot,
                    hot_traffic: 1.0 - frac,
                }
            }
        }
    }

    /// Maps the touch hash `h` to a row index in `[0, n)`.
    #[inline]
    fn map(&self, h: u64) -> usize {
        // Top 53 bits of the hash → uniform u ∈ [0, 1).
        let u = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        match *self {
            Self::Uniform { n } => (h % n) as usize,
            Self::Zipf {
                n,
                zetan,
                eta,
                alpha,
                half_pow_theta,
            } => {
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + half_pow_theta {
                    1
                } else {
                    let r = (n * (eta * u - eta + 1.0).powf(alpha)) as usize;
                    r.min(n as usize - 1)
                }
            }
            Self::Hotspot {
                hot,
                cold,
                hot_traffic,
            } => {
                // A second, independent hash picks the row within the
                // chosen region (reusing `h` would correlate with `u`).
                let h2 = mix(h ^ 0xD00D_F00D_0000_0001);
                if cold == 0 || u < hot_traffic {
                    (h2 % hot) as usize
                } else {
                    (hot + h2 % cold) as usize
                }
            }
        }
    }
}

/// Replay driver knobs.
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Worker threads (clamped to `[1, shards]`). Zero is treated as 1.
    pub threads: usize,
    /// Keep replaying whole passes until at least this much wall time has
    /// elapsed (zero ⇒ exactly one pass — the fully deterministic mode).
    pub min_duration: Duration,
    /// Hard cap on passes regardless of duration (zero is treated as 1).
    pub max_passes: usize,
    /// Row-touch distribution (uniform by default).
    pub skew: RowSkew,
    /// Fault injection: the [`FP_REPLAY_PASS`] point is hit once per
    /// pass; a firing arm crashes that pass, which is discarded (meters
    /// reset if it was the metered pass) and retried — so injected runs
    /// end with meters bit-identical to fault-free ones.
    pub faults: FaultInjector,
}

impl ReplayConfig {
    /// `threads` workers, one metered pass, no timing passes.
    pub fn deterministic(threads: usize) -> Self {
        Self {
            threads,
            max_passes: 1,
            ..Self::default()
        }
    }

    /// `threads` workers replaying for at least `min_duration`.
    pub fn timed(threads: usize, min_duration: Duration) -> Self {
        Self {
            threads,
            min_duration,
            max_passes: usize::MAX,
            ..Self::default()
        }
    }
}

/// The cost model's predicted bytes for one replay pass of a stream.
///
/// Callers build this by summing `vpart_core::predicted_txn_bytes` over
/// the stream's per-transaction counts; the engine takes it as opaque
/// numbers so the model and the meter stay independently implemented.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictedBytes {
    /// Predicted bytes read by storage access methods.
    pub read: f64,
    /// Predicted bytes written by storage access methods.
    pub written: f64,
    /// Predicted bytes shipped between sites.
    pub transferred: f64,
}

impl PredictedBytes {
    /// Total predicted bytes.
    pub fn total(&self) -> f64 {
        self.read + self.written + self.transferred
    }
}

/// Relative model-vs-measured gap, per component and overall.
///
/// Ratios are signed: `(measured − predicted) / predicted`. A component
/// predicted as zero yields `0.0` when the meter also saw zero and
/// `f64::INFINITY` otherwise (the model missed real traffic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayModelError {
    /// What the model predicted for the metered pass.
    pub predicted: PredictedBytes,
    /// What the meter measured (physical bytes, exact integers as `f64`).
    pub measured: PredictedBytes,
    /// Signed relative error on bytes read.
    pub read_ratio: f64,
    /// Signed relative error on bytes written.
    pub write_ratio: f64,
    /// Signed relative error on bytes transferred.
    pub transfer_ratio: f64,
    /// Signed relative error on total bytes — the headline number.
    pub overall_ratio: f64,
}

fn signed_ratio(measured: f64, predicted: f64) -> f64 {
    if predicted <= f64::EPSILON {
        if measured <= f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - predicted) / predicted
    }
}

impl ReplayModelError {
    fn new(predicted: PredictedBytes, measured: PredictedBytes) -> Self {
        Self {
            predicted,
            measured,
            read_ratio: signed_ratio(measured.read, predicted.read),
            write_ratio: signed_ratio(measured.written, predicted.written),
            transfer_ratio: signed_ratio(measured.transferred, predicted.transferred),
            overall_ratio: signed_ratio(measured.total(), predicted.total()),
        }
    }
}

/// Exact per-site physical byte meters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteBytes {
    /// Physical bytes read by storage access methods.
    pub bytes_read: u64,
    /// Physical bytes written by storage access methods.
    pub bytes_written: u64,
}

impl SiteBytes {
    /// Total storage work on this site.
    pub fn work(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Result of a replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Per-site physical meters from the metered pass (pass 0).
    pub per_site: Vec<SiteBytes>,
    /// Physical bytes shipped between sites during the metered pass.
    pub transfer_bytes: u64,
    /// Executions per pass (the stream length).
    pub stream_len: usize,
    /// Whole passes replayed (≥ 1; pass 0 is the metered one).
    pub passes: usize,
    /// Total transaction executions across all passes.
    pub txns_replayed: usize,
    /// Physical rows read during the metered pass.
    pub rows_read: u64,
    /// Physical rows written during the metered pass.
    pub rows_written: u64,
    /// Checksum over read payloads of the metered pass (forces real data
    /// movement; reproducibility probe — thread-count independent).
    pub checksum: u64,
    /// Wall time across all passes.
    pub elapsed: Duration,
    /// Workers that ran: `min(threads, shards)`, each owning at least
    /// one shard.
    pub threads: usize,
    /// Row-range shards used.
    pub shards: usize,
    /// Passes crashed by an injected [`FP_REPLAY_PASS`] fault, discarded
    /// and retried (they count toward neither `passes` nor the meters).
    pub passes_injected: usize,
    /// Model-vs-measured gap, when a prediction was supplied.
    pub model_error: Option<ReplayModelError>,
}

impl ReplayReport {
    /// Aggregated meters across sites.
    pub fn totals(&self) -> SiteBytes {
        let mut t = SiteBytes::default();
        for s in &self.per_site {
            t.bytes_read += s.bytes_read;
            t.bytes_written += s.bytes_written;
        }
        t
    }

    /// Measured throughput in transaction executions per second.
    pub fn throughput_txns_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.txns_replayed as f64 / secs
    }

    /// The meter fields that must be bit-identical across thread counts
    /// and runs: per-site bytes, transfer, rows, stream length, checksum.
    pub fn meter_fingerprint(&self) -> (Vec<SiteBytes>, u64, u64, u64, usize, u64) {
        (
            self.per_site.clone(),
            self.transfer_bytes,
            self.rows_read,
            self.rows_written,
            self.stream_len,
            self.checksum,
        )
    }
}

/// Per-shard meter: owned by exactly one worker during a pass, merged in
/// shard order afterwards — the key to thread-count-independent totals.
#[derive(Debug, Clone, Default)]
struct ShardMeter {
    site_read: Vec<u64>,
    site_written: Vec<u64>,
    transfer: u64,
    rows_read: u64,
    rows_written: u64,
    checksum: u64,
}

impl ShardMeter {
    fn new(n_sites: usize) -> Self {
        Self {
            site_read: vec![0; n_sites],
            site_written: vec![0; n_sites],
            ..Self::default()
        }
    }

    /// Zeroes every meter in place.
    fn reset(&mut self) {
        self.site_read.fill(0);
        self.site_written.fill(0);
        self.transfer = 0;
        self.rows_read = 0;
        self.rows_written = 0;
        self.checksum = 0;
    }
}

/// One site's storage inside one shard: row segments per table plus a
/// preallocated row buffer reused by every read.
#[derive(Debug, Clone)]
struct ShardSite {
    fragments: Vec<Option<RowSegment>>,
    buf: Vec<u8>,
}

/// One contiguous row-range shard: all sites' fragment segments for those
/// rows, plus the shard's meter. A worker owns whole shards — every
/// byte a touch moves lives inside the shard that owns its row.
#[derive(Debug, Clone)]
struct StoreShard {
    sites: Vec<ShardSite>,
    meter: ShardMeter,
}

/// What the owner of a touched row does: one table of one query, resolved
/// to indices and integer widths.
#[derive(Debug, Clone, Copy)]
enum TouchOp {
    /// Read the row's fraction at the transaction's home site.
    Read { table_idx: usize, home: usize },
    /// Write the row on every replica site; `transfer_per_row` is
    /// `Σ_{a∈α∩table} ceil(w_a) × |replicas(a) ∖ {home}|`.
    Write {
        table_idx: usize,
        transfer_per_row: u64,
    },
}

/// Per-table touch plan of one query.
#[derive(Debug, Clone)]
struct TablePlan {
    /// Stable hash key of the table (`mix(0xAB1E ^ table index)`).
    key: u64,
    /// Physical rows touched per repetition (`round(n).max(1)`).
    n_phys: usize,
    /// Index of this table's [`TouchOp`], shifted left by 8 bits to leave
    /// room for the write tag.
    op: u32,
}

/// Precompiled execution plan of one query.
#[derive(Debug, Clone)]
struct QueryPlan {
    /// Repetitions per execution (`round(f_q).max(1)` — engine semantics).
    reps: usize,
    /// Stable hash key distinguishing this query's touches.
    key: u64,
    tables: Vec<TablePlan>,
}

/// Precompiled plan of one transaction.
#[derive(Debug, Clone)]
struct TxnPlan {
    queries: Vec<QueryPlan>,
    /// Row touches of one execution.
    touches: usize,
}

/// One routed row touch: the table row, and the [`TouchOp`] index with
/// the execution's write tag in its low byte.
#[derive(Debug, Clone, Copy)]
struct Touch {
    row: u32,
    op: u32,
}

/// A partitioning deployed as sharded row-major storage for replay.
#[derive(Debug, Clone)]
pub struct ReplayDeployment<'a> {
    instance: &'a Instance,
    partitioning: Partitioning,
    shards: Vec<StoreShard>,
    plans: Vec<TxnPlan>,
    ops: Vec<TouchOp>,
    rows_per_table: usize,
    rows_per_shard: usize,
    obs: Obs,
    health: Option<HealthMonitor>,
}

impl<'a> ReplayDeployment<'a> {
    /// Validates `partitioning` and materializes row-major storage:
    /// `rows_per_table` rows of every table, vertically fractioned per
    /// site, split into `shards` contiguous row-range shards.
    pub fn new(
        instance: &'a Instance,
        partitioning: &Partitioning,
        rows_per_table: usize,
        shards: usize,
    ) -> Result<Self, EngineError> {
        partitioning.validate(instance, false)?;
        let rows_per_table = rows_per_table.max(1);
        if u32::try_from(rows_per_table).is_err() {
            return Err(EngineError::InvalidReplay {
                what: "rows per table must fit in 32 bits",
            });
        }
        let n_shards = shards.clamp(1, rows_per_table);
        let rows_per_shard = rows_per_table.div_ceil(n_shards);
        let schema = instance.schema();
        let n_sites = partitioning.n_sites();
        let n_tables = instance.n_tables();

        let mut store = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let base = s * rows_per_shard;
            let rows = rows_per_shard.min(rows_per_table.saturating_sub(base));
            let mut sites = Vec::with_capacity(n_sites);
            for si in 0..n_sites {
                let site_id = vpart_model::SiteId::from_index(si);
                let mut fragments = Vec::with_capacity(n_tables);
                let mut buf_len = 0usize;
                for t in 0..n_tables {
                    let table = vpart_model::TableId::from_index(t);
                    let attrs: Vec<(AttrId, f64)> = schema
                        .table_attrs(table)
                        .map(AttrId::from_index)
                        .filter(|&a| partitioning.has_attr(a, site_id))
                        .map(|a| (a, schema.width(a)))
                        .collect();
                    if attrs.is_empty() || rows == 0 {
                        fragments.push(None);
                    } else {
                        let frag = RowSegment::new(table, attrs, base, rows);
                        buf_len = buf_len.max(frag.row_width());
                        fragments.push(Some(frag));
                    }
                }
                sites.push(ShardSite {
                    fragments,
                    buf: vec![0u8; buf_len],
                });
            }
            store.push(StoreShard {
                sites,
                meter: ShardMeter::new(n_sites),
            });
        }

        // Precompile per-transaction touch plans: everything the hot loop
        // needs, resolved to indices and integer widths up front.
        let mut plans = Vec::with_capacity(instance.n_txns());
        let mut ops = Vec::new();
        for t in 0..instance.n_txns() {
            let txn = TxnId::from_index(t);
            let home = partitioning.site_of(txn);
            let mut queries = Vec::new();
            let mut touches = 0usize;
            for &qid in &instance.workload().txn(txn).queries {
                let q = instance.workload().query(qid);
                let reps = q.frequency.round().max(1.0) as usize;
                let mut tables = Vec::with_capacity(q.table_rows.len());
                for &(table, n) in &q.table_rows {
                    let op = if q.kind.is_write() {
                        let mut transfer_per_row = 0u64;
                        for &a in &q.attrs {
                            if schema.table_of(a) == table {
                                let w = (schema.width(a).ceil() as u64).max(1);
                                let remote =
                                    partitioning.attr_sites(a).filter(|&s| s != home).count()
                                        as u64;
                                transfer_per_row += w * remote;
                            }
                        }
                        TouchOp::Write {
                            table_idx: table.index(),
                            transfer_per_row,
                        }
                    } else {
                        TouchOp::Read {
                            table_idx: table.index(),
                            home: home.index(),
                        }
                    };
                    let op_idx = u32::try_from(ops.len())
                        .ok()
                        .filter(|&i| i < 1 << 24)
                        .ok_or(EngineError::InvalidReplay {
                            what: "more than 2^24 query table accesses",
                        })?;
                    ops.push(op);
                    let n_phys = n.round().max(1.0) as usize;
                    touches += reps * n_phys;
                    tables.push(TablePlan {
                        key: mix(0xAB1E ^ table.index() as u64),
                        n_phys,
                        op: op_idx << 8,
                    });
                }
                queries.push(QueryPlan {
                    reps,
                    key: mix(0x5EED_0000_0000_0000 ^ qid.index() as u64),
                    tables,
                });
            }
            plans.push(TxnPlan { queries, touches });
        }

        Ok(Self {
            instance,
            partitioning: partitioning.clone(),
            shards: store,
            plans,
            ops,
            rows_per_table,
            rows_per_shard,
            obs: Obs::disabled(),
            health: None,
        })
    }

    /// Attaches an observability sink: [`replay`](Self::replay) then
    /// records a `replay` span, the `replay_txns_total` /
    /// `replay_bytes_total` / `replay_passes_total` counters and the
    /// `model_error_ratio` / `replay_txns_per_sec` gauges. Off by default.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a live health monitor: [`replay`](Self::replay) ticks it
    /// once per completed pass (logical clock = pass index) plus a
    /// closing tick that sees the end-of-run gauges. Requires an enabled
    /// obs handle (see [`with_obs`](Self::with_obs)) to have any effect.
    pub fn with_health(mut self, monitor: HealthMonitor) -> Self {
        self.health = Some(monitor);
        self
    }

    /// The attached health monitor, if any.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// The deployed partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The instance this deployment serves.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// Rows materialized per table.
    pub fn rows_per_table(&self) -> usize {
        self.rows_per_table
    }

    /// Row-range shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total physically materialized bytes across shards and sites.
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|sh| &sh.sites)
            .flat_map(|s| s.fragments.iter().flatten())
            .map(RowSegment::payload_bytes)
            .sum()
    }

    /// Replays `stream` and reports exact physical byte meters, optionally
    /// judged against the model's `predicted` bytes for one pass.
    ///
    /// Pass 0 is metered; further whole passes run until
    /// `config.min_duration` elapses (or `max_passes` is hit) and count
    /// toward throughput only. Meters are bit-identical across thread
    /// counts and repeated runs with the same stream and shard count.
    pub fn replay(
        &mut self,
        stream: &ReplayStream,
        config: &ReplayConfig,
        predicted: Option<&PredictedBytes>,
    ) -> Result<ReplayReport, EngineError> {
        if stream.is_empty() {
            return Err(EngineError::InvalidReplay {
                what: "replay stream has no executions",
            });
        }
        for t in &stream.executions {
            if t.index() >= self.plans.len() {
                return Err(EngineError::InvalidReplay {
                    what: "stream references a transaction outside the instance",
                });
            }
        }
        let n_sites = self.partitioning.n_sites();
        let n_shards = self.shards.len();
        let workers = shard_split(n_shards, config.threads);
        let threads = workers.len();
        let max_passes = config.max_passes.max(1);
        let span = self.obs.span_begin(
            "replay",
            &[
                ("stream_len", stream.len().into()),
                ("threads", threads.into()),
                ("shards", n_shards.into()),
            ],
        );

        for shard in &mut self.shards {
            shard.meter.reset();
        }

        let skew = SkewMap::new(config.skew, self.rows_per_table as u64);
        let mut faults = config.faults.clone();
        let start = Instant::now();
        let mut passes = 0usize;
        let mut passes_injected = 0usize;
        loop {
            let metered = passes == 0;
            self.run_pass(stream, &workers, metered, skew);
            if faults.hit(FP_REPLAY_PASS) {
                // The pass crashed: recovery rolls its partial writes
                // back to the durable fill, the metered pass also resets
                // its meters, and the pass retries — so an injected run
                // converges to the fault-free meters bit-for-bit.
                passes_injected += 1;
                if passes_injected >= 1024 {
                    // Fatal: the black box (when armed) gets the last-N
                    // records before the error surfaces.
                    let _ = self.obs.dump_flight(FP_REPLAY_PASS);
                    return Err(EngineError::Injected {
                        point: FP_REPLAY_PASS.to_string(),
                    });
                }
                for shard in &mut self.shards {
                    for site in &mut shard.sites {
                        for frag in site.fragments.iter_mut().flatten() {
                            frag.refill();
                        }
                    }
                    if metered {
                        shard.meter.reset();
                    }
                }
                continue;
            }
            passes += 1;
            if self.obs.is_enabled() {
                // Per-pass accounting (instead of one bulk add after the
                // loop) so the health monitor's per-pass samples see the
                // counters grow and can derive rates.
                self.obs
                    .counter_add("replay_txns_total", stream.len() as f64);
                self.obs.counter_inc("replay_passes_total");
                if let Some(health) = &mut self.health {
                    health.tick((passes - 1) as u64, &self.obs);
                }
            }
            if passes >= max_passes || start.elapsed() >= config.min_duration {
                break;
            }
        }
        let elapsed = start.elapsed();

        // Merge in shard order: the summation structure depends only on
        // the (fixed) shard count, never on the thread count.
        let mut per_site = vec![SiteBytes::default(); n_sites];
        let mut transfer = 0u64;
        let mut rows_read = 0u64;
        let mut rows_written = 0u64;
        let mut checksum = 0u64;
        for shard in &self.shards {
            for (si, site) in per_site.iter_mut().enumerate() {
                site.bytes_read += shard.meter.site_read[si];
                site.bytes_written += shard.meter.site_written[si];
            }
            transfer += shard.meter.transfer;
            rows_read += shard.meter.rows_read;
            rows_written += shard.meter.rows_written;
            checksum = checksum
                .wrapping_mul(FNV_PRIME)
                .wrapping_add(shard.meter.checksum);
        }

        let measured = PredictedBytes {
            read: per_site.iter().map(|s| s.bytes_read as f64).sum(),
            written: per_site.iter().map(|s| s.bytes_written as f64).sum(),
            transferred: transfer as f64,
        };
        let model_error = predicted.map(|p| ReplayModelError::new(*p, measured));

        let report = ReplayReport {
            per_site,
            transfer_bytes: transfer,
            stream_len: stream.len(),
            passes,
            txns_replayed: passes * stream.len(),
            rows_read,
            rows_written,
            checksum,
            elapsed,
            threads,
            shards: n_shards,
            passes_injected,
            model_error,
        };

        if self.obs.is_enabled() {
            self.obs.counter_add(
                "replay_bytes_total",
                measured.total() * report.passes as f64,
            );
            self.obs
                .gauge_set("replay_txns_per_sec", report.throughput_txns_per_sec());
            if let Some(me) = &report.model_error {
                self.obs.gauge_set("model_error_ratio", me.overall_ratio);
            }
            self.obs.span_end(
                span,
                &[
                    ("passes", report.passes.into()),
                    ("txns_replayed", report.txns_replayed.into()),
                    ("bytes_read", report.totals().bytes_read.into()),
                    ("bytes_written", report.totals().bytes_written.into()),
                    ("transfer_bytes", report.transfer_bytes.into()),
                    ("checksum", report.checksum.into()),
                ],
            );
        }
        if let Some(health) = &mut self.health {
            if self.obs.is_enabled() {
                // A closing tick one past the last pass index, so the
                // end-of-run gauges (model error, throughput) are
                // sampled and judged by the alert rules.
                health.tick(report.passes as u64, &self.obs);
            }
        }

        Ok(report)
    }

    /// One whole pass over the stream, one scoped thread per worker.
    /// Block by block, every worker routes the touches of its slice to
    /// their owners, then executes the touches routed to it (see the
    /// module docs).
    fn run_pass(
        &mut self,
        stream: &ReplayStream,
        workers: &[Range<usize>],
        metered: bool,
        skew: SkewMap,
    ) {
        let mut owner_of_shard = Vec::with_capacity(self.shards.len());
        for (w, range) in workers.iter().enumerate() {
            owner_of_shard.extend(range.clone().map(|_| w));
        }
        let pass = Pass {
            stream,
            plans: &self.plans,
            ops: &self.ops,
            owner_of_shard,
            rows_per_shard: self.rows_per_shard,
            skew,
            metered,
            outboxes: std::array::from_fn(|_| {
                (0..workers.len())
                    .map(|_| Mutex::new(vec![Vec::new(); workers.len()]))
                    .collect()
            }),
            barrier: PassBarrier::new(workers.len()),
        };
        let mut rest = self.shards.as_mut_slice();
        std::thread::scope(|scope| {
            for (w, range) in workers.iter().enumerate() {
                let (owned, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let (pass, first_shard) = (&pass, range.start);
                scope.spawn(move || pass.work(w, first_shard, owned));
            }
        });
    }
}

/// Contiguous shard ranges for `threads` workers (clamped to
/// `[1, n_shards]`): the first `S mod T` workers own `⌈S/T⌉` shards, the
/// rest `⌊S/T⌋`, so every worker owns at least one shard.
fn shard_split(n_shards: usize, threads: usize) -> Vec<Range<usize>> {
    let workers = threads.clamp(1, n_shards.max(1));
    let (share, extra) = (n_shards / workers, n_shards % workers);
    (0..workers)
        .map(|w| {
            let start = w * share + w.min(extra);
            start..start + share + usize::from(w < extra)
        })
        .collect()
}

/// One worker's outboxes for one block: entry `o` holds the touches it
/// routed to owner `o`.
type Outboxes = Mutex<Vec<Vec<Touch>>>;

/// What the workers of one pass share.
struct Pass<'p> {
    stream: &'p ReplayStream,
    plans: &'p [TxnPlan],
    ops: &'p [TouchOp],
    /// The worker owning each shard.
    owner_of_shard: Vec<usize>,
    rows_per_shard: usize,
    skew: SkewMap,
    metered: bool,
    /// Every worker's outboxes, double-buffered by block parity: block
    /// `k + 1` is routed into the other set while owners may still be
    /// executing block `k`, so one barrier per block suffices. The
    /// buffers grow on the workers' own threads, as the touches need.
    outboxes: [Vec<Outboxes>; 2],
    barrier: PassBarrier,
}

impl Pass<'_> {
    /// Worker `me`'s whole pass over `owned`, the shards starting at
    /// `first_shard`.
    fn work(&self, me: usize, first_shard: usize, owned: &mut [StoreShard]) {
        let _break_on_panic = BreakOnPanic(&self.barrier);
        let n_workers = self.outboxes[0].len();
        let mut next = 0usize;
        for parity in [0, 1].into_iter().cycle() {
            if next >= self.stream.len() {
                return;
            }
            // Every worker cuts the same block: `T` consecutive slices
            // of at most `SLICE_TOUCHES` touches each.
            let mut mine = next..next;
            for w in 0..n_workers {
                let start = next;
                let mut load = 0usize;
                while let Some(txn) = self.stream.executions.get(next) {
                    let touches = self.plans[txn.index()].touches;
                    if load > 0 && load + touches > SLICE_TOUCHES {
                        break;
                    }
                    load += touches;
                    next += 1;
                }
                if w == me {
                    mine = start..next;
                }
            }
            let outboxes = &self.outboxes[parity];
            self.route(mine, &mut lock(&outboxes[me]));
            if !self.barrier.wait() {
                return;
            }
            for producer in outboxes {
                // Take the inbox out so that other owners can take theirs
                // from the same producer meanwhile; return it emptied, to
                // keep its capacity for the block after next.
                let mut inbox = std::mem::take(&mut lock(producer)[me]);
                for &touch in &inbox {
                    self.execute(touch, first_shard, owned);
                }
                inbox.clear();
                lock(producer)[me] = inbox;
            }
        }
    }

    /// Expands executions `execs` into row touches — the hash keys of the
    /// stream's row-touch contract — and appends each to the outbox of
    /// the worker owning its row.
    fn route(&self, execs: Range<usize>, outboxes: &mut [Vec<Touch>]) {
        let seed = self.stream.seed;
        for exec_idx in execs {
            let plan = &self.plans[self.stream.executions[exec_idx].index()];
            let exec_key = mix(seed ^ (exec_idx as u64).wrapping_mul(0x9E37_79B9));
            let tag = (exec_idx % 251) as u32;
            for q in &plan.queries {
                for rep in 0..q.reps {
                    let rep_key = exec_key ^ q.key ^ mix(rep as u64);
                    for tp in &q.tables {
                        let tbl_key = rep_key ^ tp.key;
                        let op = tp.op | tag;
                        for j in 0..tp.n_phys {
                            let row = self.skew.map(mix(tbl_key ^ j as u64));
                            let owner = self.owner_of_shard[row / self.rows_per_shard];
                            // Rows fit in 32 bits (checked at deployment).
                            outboxes[owner].push(Touch {
                                row: row as u32,
                                op,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Runs one routed touch on the owned shard holding its row.
    #[inline]
    fn execute(&self, touch: Touch, first_shard: usize, owned: &mut [StoreShard]) {
        let row = touch.row as usize;
        let shard = &mut owned[row / self.rows_per_shard - first_shard];
        match self.ops[(touch.op >> 8) as usize] {
            TouchOp::Read { table_idx, home } => {
                read_touch(shard, home, table_idx, row, self.metered)
            }
            TouchOp::Write {
                table_idx,
                transfer_per_row,
            } => write_touch(
                shard,
                table_idx,
                transfer_per_row,
                row,
                touch.op as u8,
                self.metered,
            ),
        }
    }
}

/// Locks a worker's outboxes. Recovering a poisoned guard is sound: a
/// push leaves the touch lists valid at every step, and a pass whose
/// worker panicked is abandoned at the next barrier, its panic re-raised
/// by the scope.
fn lock(outboxes: &Outboxes) -> MutexGuard<'_, Vec<Vec<Touch>>> {
    outboxes.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable barrier for one pass's workers. A worker that panics
/// breaks it, so the others return instead of waiting for it forever.
struct PassBarrier {
    workers: usize,
    state: Mutex<BarrierState>,
    turned: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    round: usize,
    broken: bool,
}

impl PassBarrier {
    fn new(workers: usize) -> Self {
        Self {
            workers,
            state: Mutex::default(),
            turned: Condvar::new(),
        }
    }

    /// Waits until every worker has arrived; false once the barrier is
    /// broken.
    fn wait(&self) -> bool {
        let mut state = self.lock();
        let round = state.round;
        state.arrived += 1;
        if state.arrived == self.workers {
            state.arrived = 0;
            state.round += 1;
            self.turned.notify_all();
        }
        while state.round == round && !state.broken {
            state = self
                .turned
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.broken
    }

    /// The barrier state stays valid at every step, so a poisoned lock
    /// is recovered.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Breaks the pass's barrier when its worker unwinds.
struct BreakOnPanic<'b>(&'b PassBarrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().broken = true;
            self.0.turned.notify_all();
        }
    }
}

/// Writes one physical row of table `table_idx` on every replica site of
/// the owning shard and meters physical bytes plus replication transfer.
#[inline]
fn write_touch(
    shard: &mut StoreShard,
    table_idx: usize,
    transfer_per_row: u64,
    row: usize,
    tag: u8,
    metered: bool,
) {
    let StoreShard { sites, meter } = shard;
    for (si, site) in sites.iter_mut().enumerate() {
        if let Some(frag) = site.fragments[table_idx].as_mut() {
            let w = frag.write_row(row, tag);
            if metered {
                meter.site_written[si] += w as u64;
                meter.rows_written += 1;
            }
        }
    }
    // α attributes of this row travel to every remote replica — priced
    // once per row, not per destination fragment.
    if metered {
        meter.transfer += transfer_per_row;
    }
}

/// Reads one physical row of table `table_idx` at site `home` of the
/// owning shard into the site's preallocated buffer.
#[inline]
fn read_touch(shard: &mut StoreShard, home: usize, table_idx: usize, row: usize, metered: bool) {
    let StoreShard { sites, meter } = shard;
    let ShardSite { fragments, buf } = &mut sites[home];
    if let Some(frag) = fragments[table_idx].as_ref() {
        let n = frag.read_row_into(row, buf);
        if metered {
            meter.site_read[home] += n as u64;
            meter.rows_read += 1;
            meter.checksum = meter
                .checksum
                .wrapping_mul(FNV_PRIME)
                .wrapping_add(buf[0] as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, SiteId, Workload};

    /// R{a(4), b(8)}: T0 reads a (1 row); T1 writes b (2 rows).
    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]))
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("q1")
                    .access(&[AttrId(1)])
                    .rows(vpart_model::TableId(0), 2.0),
            )
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("replay", schema, wb.build().unwrap()).unwrap()
    }

    /// Fractional widths: R{a(2.5)}: T0 reads a; physical width is 3.
    fn fractional_instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 2.5)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        Instance::new("frac", schema, wb.build().unwrap()).unwrap()
    }

    /// R{a(4)}: T0's query runs 9× as often as T1's.
    fn weighted_instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]).frequency(9.0))
            .unwrap();
        let q1 = wb
            .add_query(QuerySpec::read("q1").access(&[AttrId(0)]))
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("t", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn uniform_counts() {
        let ins = weighted_instance();
        let stream = ReplayStream::uniform(&ins, 5, 0);
        assert_eq!(stream.len(), 10);
        assert_eq!(stream.counts(2), vec![5, 5]);
        assert!(!stream.is_empty());
    }

    #[test]
    fn weighted_respects_frequencies() {
        let ins = weighted_instance();
        let stream = ReplayStream::weighted(&ins, 2000, 3);
        let c = stream.counts(2);
        // T0's weight is 9×, so it should dominate ~90/10.
        assert!(c[0] > c[1] * 5, "counts {c:?}");
        assert_eq!(c[0] + c[1], 2000);
        // Deterministic per seed.
        assert_eq!(stream, ReplayStream::weighted(&ins, 2000, 3));
    }

    #[test]
    fn single_site_physical_meters_by_hand() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let mut dep = ReplayDeployment::new(&ins, &part, 64, 4).unwrap();
        let stream = ReplayStream::uniform(&ins, 1, 7);
        let report = dep
            .replay(&stream, &ReplayConfig::deterministic(1), None)
            .unwrap();
        let t = report.totals();
        // T0 reads 1 physical row of the whole fraction: 4 + 8 = 12 bytes.
        assert_eq!(t.bytes_read, 12);
        // T1 writes 2 physical rows on the single replica: 2 × 12 = 24.
        assert_eq!(t.bytes_written, 24);
        assert_eq!(report.transfer_bytes, 0);
        assert_eq!(report.rows_read, 1);
        assert_eq!(report.rows_written, 2);
        assert_eq!(report.passes, 1);
        assert_eq!(report.txns_replayed, 2);
        assert!(report.model_error.is_none());
    }

    #[test]
    fn replication_generates_physical_transfer() {
        let ins = instance();
        let mut part = Partitioning::single_site(&ins, 2).unwrap();
        part.add_replica(AttrId(1), SiteId(1)); // b replicated; T1 home = s0
        let mut dep = ReplayDeployment::new(&ins, &part, 32, 4).unwrap();
        let stream = ReplayStream::uniform(&ins, 1, 7);
        let report = dep
            .replay(&stream, &ReplayConfig::deterministic(1), None)
            .unwrap();
        // Transfer: b (8 bytes) × 2 physical rows to the remote replica.
        assert_eq!(report.transfer_bytes, 16);
        // Writes hit both fragments: 2 × 12 at site 0 + 2 × 8 at site 1.
        assert_eq!(report.per_site[0].bytes_written, 24);
        assert_eq!(report.per_site[1].bytes_written, 16);
    }

    #[test]
    fn meters_are_thread_count_independent() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::weighted(&ins, 200, 11);
        let mut reference = None;
        for threads in [1usize, 2, 3, 8] {
            let mut dep = ReplayDeployment::new(&ins, &part, 100, 8).unwrap();
            let report = dep
                .replay(&stream, &ReplayConfig::deterministic(threads), None)
                .unwrap();
            let fp = report.meter_fingerprint();
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "meters diverge at {threads} threads"),
            }
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::weighted(&ins, 100, 5);
        let run = |threads| {
            ReplayDeployment::new(&ins, &part, 50, 8)
                .unwrap()
                .replay(&stream, &ReplayConfig::deterministic(threads), None)
                .unwrap()
                .meter_fingerprint()
        };
        assert_eq!(run(2), run(2));
    }

    #[test]
    fn quantization_gap_shows_in_model_error() {
        let ins = fractional_instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let mut dep = ReplayDeployment::new(&ins, &part, 16, 2).unwrap();
        let stream = ReplayStream::uniform(&ins, 1, 3);
        // Model predicts the fractional width 2.5 per read row.
        let predicted = PredictedBytes {
            read: 2.5,
            written: 0.0,
            transferred: 0.0,
        };
        let report = dep
            .replay(&stream, &ReplayConfig::deterministic(1), Some(&predicted))
            .unwrap();
        assert_eq!(report.totals().bytes_read, 3, "physical width rounds up");
        let me = report.model_error.expect("prediction was supplied");
        assert!((me.read_ratio - 0.2).abs() < 1e-12, "3 vs 2.5 → +20%");
        assert_eq!(me.transfer_ratio, 0.0, "zero predicted, zero measured");
        assert!((me.overall_ratio - 0.2).abs() < 1e-12);
    }

    #[test]
    fn timing_passes_scale_throughput_but_not_meters() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::uniform(&ins, 5, 1);
        let mut dep = ReplayDeployment::new(&ins, &part, 32, 4).unwrap();
        let one = dep
            .replay(&stream, &ReplayConfig::deterministic(1), None)
            .unwrap();
        let mut dep = ReplayDeployment::new(&ins, &part, 32, 4).unwrap();
        let many = dep
            .replay(
                &stream,
                &ReplayConfig {
                    threads: 1,
                    min_duration: Duration::from_millis(5),
                    max_passes: 64,
                    ..ReplayConfig::default()
                },
                None,
            )
            .unwrap();
        assert!(many.passes >= 1);
        assert_eq!(many.txns_replayed, many.passes * stream.len());
        // Metered quantities come from pass 0 only.
        assert_eq!(one.meter_fingerprint(), many.meter_fingerprint());
        assert!(many.throughput_txns_per_sec() > 0.0);
    }

    #[test]
    fn empty_stream_is_rejected() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let mut dep = ReplayDeployment::new(&ins, &part, 8, 2).unwrap();
        let stream = ReplayStream {
            executions: vec![],
            seed: 0,
        };
        assert!(matches!(
            dep.replay(&stream, &ReplayConfig::default(), None),
            Err(EngineError::InvalidReplay { .. })
        ));
    }

    /// Routed touches carry 32-bit rows, so larger tables are refused
    /// before anything is materialized.
    #[test]
    fn rows_beyond_32_bits_are_rejected() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        assert!(matches!(
            ReplayDeployment::new(&ins, &part, u32::MAX as usize + 1, 4),
            Err(EngineError::InvalidReplay { .. })
        ));
    }

    #[test]
    fn shard_count_clamps_to_rows() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let dep = ReplayDeployment::new(&ins, &part, 4, 64).unwrap();
        assert_eq!(dep.n_shards(), 4);
        assert!(dep.stored_bytes() > 0);
    }

    #[test]
    fn skew_specs_parse_and_reject() {
        assert_eq!(RowSkew::parse("uniform").unwrap(), RowSkew::Uniform);
        assert_eq!(
            RowSkew::parse("zipf:0.99").unwrap(),
            RowSkew::Zipf { theta: 0.99 }
        );
        assert_eq!(
            RowSkew::parse("hotspot:0.2").unwrap(),
            RowSkew::Hotspot { frac: 0.2 }
        );
        for bad in [
            "zipf",
            "zipf:",
            "zipf:abc",
            "zipf:0",
            "zipf:1.0",
            "zipf:-0.5",
            "hotspot:1.5",
            "hotspot:0",
            "hotspot:x",
            "pareto:2",
        ] {
            assert!(
                matches!(RowSkew::parse(bad), Err(EngineError::InvalidReplay { .. })),
                "spec {bad:?} should be rejected"
            );
        }
    }

    /// The compiled maps really skew: hashed touches land on the head
    /// (zipf) / hot set (hotspot) far more often than uniform would.
    #[test]
    fn skew_maps_concentrate_touches() {
        let n = 1000u64;
        let samples = 20_000u64;
        let zipf = SkewMap::new(RowSkew::Zipf { theta: 0.99 }, n);
        let hot = SkewMap::new(RowSkew::Hotspot { frac: 0.1 }, n);
        let uni = SkewMap::new(RowSkew::Uniform, n);
        let (mut z_head, mut h_hot, mut u_head) = (0u64, 0u64, 0u64);
        for i in 0..samples {
            let h = mix(0xBEEF ^ i);
            let zr = zipf.map(h);
            let hr = hot.map(h);
            let ur = uni.map(h);
            assert!(zr < n as usize && hr < n as usize && ur < n as usize);
            z_head += u64::from(zr < 10);
            h_hot += u64::from(hr < 100);
            u_head += u64::from(ur < 10);
        }
        // Uniform puts ~1% in the top-10 rows; zipf(0.99) puts >30%.
        assert!(u_head < samples / 20, "uniform head share too high");
        assert!(z_head > samples * 3 / 10, "zipf head share too low");
        // hotspot:0.1 routes ~90% of touches to the 10% hot set.
        assert!(h_hot > samples * 8 / 10, "hotspot share too low");
    }

    /// Skewed replays keep the determinism contract: meters are
    /// bit-identical across thread counts, and the skew visibly changes
    /// which rows are touched (checksum) without changing byte totals.
    #[test]
    fn skewed_replay_is_thread_independent() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::uniform(&ins, 40, 7);
        let run = |threads: usize, skew: RowSkew| {
            let mut dep = ReplayDeployment::new(&ins, &part, 64, 8).unwrap();
            let cfg = ReplayConfig {
                skew,
                ..ReplayConfig::deterministic(threads)
            };
            dep.replay(&stream, &cfg, None).unwrap()
        };
        let zipf = RowSkew::Zipf { theta: 0.9 };
        let a = run(1, zipf);
        let b = run(4, zipf);
        assert_eq!(a.meter_fingerprint(), b.meter_fingerprint());
        let uniform = run(1, RowSkew::Uniform);
        assert_eq!(
            a.totals(),
            uniform.totals(),
            "byte totals are row-independent"
        );
        assert_ne!(
            a.checksum, uniform.checksum,
            "skew should touch different rows"
        );
    }

    /// A pass crashed by an injected fault is discarded and retried: the
    /// run completes with meters bit-identical to the fault-free run.
    #[test]
    fn injected_pass_crash_retries_to_identical_meters() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::uniform(&ins, 20, 3);
        let mut dep = ReplayDeployment::new(&ins, &part, 32, 4).unwrap();
        let clean = dep
            .replay(&stream, &ReplayConfig::deterministic(2), None)
            .unwrap();
        assert_eq!(clean.passes_injected, 0);

        let mut dep = ReplayDeployment::new(&ins, &part, 32, 4).unwrap();
        let mut cfg = ReplayConfig::deterministic(2);
        cfg.faults = FaultInjector::new(11);
        cfg.faults.arm_spec("replay.pass:nth=1").unwrap();
        let faulted = dep.replay(&stream, &cfg, None).unwrap();
        assert_eq!(faulted.passes_injected, 1);
        assert_eq!(faulted.passes, 1);
        assert_eq!(clean.meter_fingerprint(), faulted.meter_fingerprint());
    }

    /// Every worker owns a contiguous run of ⌊S/T⌋ or ⌈S/T⌉ shards, and
    /// there are exactly `min(T, S)` of them.
    #[test]
    fn shard_split_is_even_and_contiguous() {
        for n_shards in 1..=40usize {
            for threads in 1..=40usize {
                let split = shard_split(n_shards, threads);
                assert_eq!(
                    split.len(),
                    threads.min(n_shards),
                    "S={n_shards} T={threads}"
                );
                let mut next = 0;
                for range in &split {
                    assert_eq!(range.start, next, "S={n_shards} T={threads}: gap");
                    assert!(!range.is_empty(), "S={n_shards} T={threads}: idle worker");
                    next = range.end;
                }
                assert_eq!(next, n_shards, "S={n_shards} T={threads}: coverage");
                let most = split.iter().map(Range::len).max().unwrap();
                let least = split.iter().map(Range::len).min().unwrap();
                assert!(most - least <= 1, "S={n_shards} T={threads}: uneven");
            }
        }
    }

    /// The report counts the workers that ran: at 32 shards, 12 and 20
    /// requested threads run 12 and 20 workers (an even split leaves
    /// none idle), 64 clamp to 32, and the meters agree.
    #[test]
    fn report_counts_the_workers_that_ran() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::weighted(&ins, 300, 9);
        let run = |threads| {
            ReplayDeployment::new(&ins, &part, 256, 32)
                .unwrap()
                .replay(&stream, &ReplayConfig::deterministic(threads), None)
                .unwrap()
        };
        let one = run(1);
        for (threads, workers) in [(12, 12), (20, 20), (32, 32), (64, 32)] {
            let report = run(threads);
            assert_eq!(report.threads, workers, "--threads {threads}");
            assert_eq!(report.meter_fingerprint(), one.meter_fingerprint());
        }
    }

    /// A worker that panics breaks the barrier: the others stop waiting
    /// and the panic surfaces instead of a hang.
    #[test]
    fn panicking_worker_breaks_the_barrier() {
        let barrier = PassBarrier::new(2);
        std::thread::scope(|scope| {
            let failing = scope.spawn(|| {
                let _guard = BreakOnPanic(&barrier);
                panic!("worker failed");
            });
            assert!(!barrier.wait(), "the survivor stops waiting");
            assert!(failing.join().is_err());
        });
        assert!(!barrier.wait(), "a broken barrier stays broken");
    }

    /// A fault that fires on every pass can never finish: the driver
    /// gives up with `Injected` instead of spinning forever.
    #[test]
    fn always_firing_pass_fault_errors_out() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let stream = ReplayStream::uniform(&ins, 3, 3);
        let mut dep = ReplayDeployment::new(&ins, &part, 8, 2).unwrap();
        let mut cfg = ReplayConfig::deterministic(1);
        cfg.faults = FaultInjector::new(5);
        cfg.faults.arm_spec("replay.pass:prob=1.0").unwrap();
        assert!(matches!(
            dep.replay(&stream, &cfg, None),
            Err(EngineError::Injected { .. })
        ));
    }
}
