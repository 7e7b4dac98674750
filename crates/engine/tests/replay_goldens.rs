//! Replay meter goldens: the physical byte meters and the stored bytes of
//! fixed replay deployments, pinned exactly.
//!
//! Each case deploys one layout, replays one stream at several thread
//! counts, and compares `meter_fingerprint()` (per-site bytes read and
//! written, transfer bytes, rows read and written, stream length and the
//! read-payload checksum) and `stored_bytes()` with
//! `tests/data/replay/<case>.json`. Every thread count must produce the
//! recorded fingerprint. The cases:
//!
//! * TPC-C at 3 sites (seeded SA), 2000 weighted executions, 256 rows in
//!   32 shards, at 1, 2, 3 and 7 threads;
//! * rndAt64x100 at 4 sites, 1024 rows;
//! * TPC-C under `zipf:0.9` and under `hotspot:0.1` row skew;
//! * uneven segments: 100 rows in 7 shards, and 5 rows in 32 shards
//!   (which clamps to 5 shards of one row);
//! * a run whose first pass is crashed by `replay.pass:nth=1` and retried.
//!
//! The checksum folds the first byte of every row read in per-shard
//! stream order, so it pins the fill, the row layout and the order in
//! which each shard sees its touches.
//!
//! To re-record after an intended change, run
//! `VPART_BLESS_REPLAY=1 cargo test -p vpart_engine --test replay_goldens`
//! and review the diff of `tests/data/replay/`.

use serde_json::{json, Value};
use std::path::PathBuf;
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::CostConfig;
use vpart_engine::{FaultInjector, ReplayConfig, ReplayDeployment, ReplayStream, RowSkew};
use vpart_instances::by_name;
use vpart_model::{Instance, Partitioning};

fn solved(ins: &Instance, sites: usize) -> Partitioning {
    SaSolver::new(SaConfig::fast_deterministic(1))
        .solve(ins, sites, &CostConfig::default())
        .expect("SA solves")
        .partitioning
}

/// One pinned replay: a deployment shape, a stream and the thread counts
/// that must all meter the same.
struct Case {
    name: &'static str,
    instance: &'static str,
    sites: usize,
    stream_len: usize,
    stream_seed: u64,
    rows: usize,
    shards: usize,
    threads: &'static [usize],
    skew: &'static str,
    fault: Option<&'static str>,
}

const TPCC: Case = Case {
    name: "tpcc_3_sites",
    instance: "tpcc",
    sites: 3,
    stream_len: 2000,
    stream_seed: 42,
    rows: 256,
    shards: 32,
    threads: &[1, 2, 3, 7],
    skew: "uniform",
    fault: None,
};

fn cases() -> Vec<Case> {
    vec![
        TPCC,
        Case {
            name: "rnd_a64_4_sites",
            instance: "rndAt64x100",
            sites: 4,
            stream_seed: 7,
            rows: 1024,
            threads: &[1, 2],
            ..TPCC
        },
        Case {
            name: "tpcc_zipf",
            threads: &[1, 2, 3],
            skew: "zipf:0.9",
            ..TPCC
        },
        Case {
            name: "tpcc_hotspot",
            threads: &[1, 2, 3],
            skew: "hotspot:0.1",
            ..TPCC
        },
        Case {
            name: "tpcc_rows_100_shards_7",
            rows: 100,
            shards: 7,
            threads: &[1, 3, 8],
            ..TPCC
        },
        Case {
            name: "tpcc_rows_5_shards_32",
            rows: 5,
            threads: &[1, 3, 8],
            ..TPCC
        },
        Case {
            name: "tpcc_pass_fault",
            threads: &[1, 2],
            fault: Some("replay.pass:nth=1"),
            ..TPCC
        },
    ]
}

/// Replays `case` at each of its thread counts; returns the shared
/// meters, or panics naming the first thread count that differs.
fn record(case: &Case) -> Value {
    let ins = by_name(case.instance).expect("catalog instance");
    let part = solved(&ins, case.sites);
    let stream = ReplayStream::weighted(&ins, case.stream_len, case.stream_seed);
    let mut reference: Option<Value> = None;
    for &threads in case.threads {
        let mut dep = ReplayDeployment::new(&ins, &part, case.rows, case.shards).expect("deploys");
        let mut config = ReplayConfig {
            skew: RowSkew::parse(case.skew).expect("skew spec"),
            ..ReplayConfig::deterministic(threads)
        };
        if let Some(spec) = case.fault {
            config.faults = FaultInjector::new(11);
            config.faults.arm_spec(spec).expect("fault spec");
        }
        let report = dep.replay(&stream, &config, None).expect("replays");
        assert_eq!(
            report.passes_injected,
            usize::from(case.fault.is_some()),
            "{}: injected passes",
            case.name
        );
        let (per_site, transfer, rows_read, rows_written, stream_len, checksum) =
            report.meter_fingerprint();
        let meters = json!({
            "shards": dep.n_shards(),
            "stored_bytes": dep.stored_bytes(),
            "per_site": per_site
                .iter()
                .map(|s| format!("{}/{}", s.bytes_read, s.bytes_written))
                .collect::<Vec<_>>(),
            "transfer_bytes": transfer,
            "rows_read": rows_read,
            "rows_written": rows_written,
            "stream_len": stream_len,
            "checksum": format!("{checksum:016x}"),
        });
        match &reference {
            None => reference = Some(meters),
            Some(r) => assert_eq!(
                r, &meters,
                "{}: meters at {threads} threads differ from {} threads",
                case.name, case.threads[0]
            ),
        }
    }
    json!({
        "instance": case.instance,
        "sites": case.sites,
        "stream": format!("weighted({}, {})", case.stream_len, case.stream_seed),
        "rows": case.rows,
        "skew": case.skew,
        "fault": case.fault.unwrap_or("none"),
        "meters": reference.expect("at least one thread count"),
    })
}

#[test]
fn replay_meters_match_the_recorded_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/replay");
    let bless = std::env::var_os("VPART_BLESS_REPLAY").is_some();
    let mut mismatches = Vec::new();
    for case in cases() {
        let actual =
            serde_json::to_string_pretty(&record(&case)).expect("golden serializes") + "\n";
        let path = dir.join(format!("{}.json", case.name));
        if bless {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &actual).expect("golden written");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} (record with VPART_BLESS_REPLAY=1)", path.display())
        });
        if actual != expected {
            mismatches.push(format!(
                "{}:\n--- recorded\n{expected}+++ replayed\n{actual}",
                case.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches:\n{}",
        mismatches.join("\n")
    );
}
