//! Seeded randomized ingestion fuzzing (in the spirit of
//! `crates/ilp/tests/random_mips.rs`): generate random schemas and random
//! well-formed logs with noisy formatting, and assert ingestion always
//! succeeds, counts statements faithfully, and produces instances the
//! solvers accept.

mod common;

use common::Gen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpart_ingest::{ingest, IngestOptions};

#[test]
fn random_workloads_always_ingest() {
    for seed in 0..200u64 {
        let mut g = Gen::new(seed);
        let ddl = g.ddl();
        let (log, statements) = g.log();
        let out = ingest(&ddl, &log, &IngestOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} failed: {e}\nDDL:\n{ddl}\nLOG:\n{log}"));
        assert_eq!(out.report.statements_seen, statements, "seed {seed}");
        assert_eq!(out.report.statements_ingested, statements, "seed {seed}");
        assert!(out.report.txns >= 1);
        assert!(out.instance.n_attrs() >= 1);
    }
}

#[test]
fn random_instances_are_solvable_and_serializable() {
    for seed in 0..25u64 {
        let mut g = Gen::new(0x5EED_0000 + seed);
        let ddl = g.ddl();
        let (log, _) = g.log();
        let out = ingest(&ddl, &log, &IngestOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} failed: {e}"));

        // Round-trip.
        let json = serde_json::to_string(&out.instance).unwrap();
        let back: vpart_model::Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(out.instance, back, "seed {seed}");

        // Solve + validate.
        let cost = vpart_core::CostConfig::default();
        let sa = vpart_core::sa::SaSolver::new(vpart_core::sa::SaConfig::fast_deterministic(seed))
            .solve(&out.instance, 2, &cost)
            .unwrap_or_else(|e| panic!("seed {seed} does not solve: {e}"));
        sa.partitioning
            .validate(&out.instance, false)
            .unwrap_or_else(|e| panic!("seed {seed} invalid partitioning: {e}"));
    }
}

#[test]
fn random_stats_dumps_always_ingest() {
    for seed in 0..150u64 {
        let mut g = Gen::new(0x57A7_0000 + seed);
        let ddl = g.ddl();
        let (dump, rows) = g.pgss_csv();
        let out = vpart_ingest::ingest_stats(
            &ddl,
            &dump,
            vpart_ingest::StatsFormat::PgssCsv,
            &IngestOptions::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed} failed: {e}\nDDL:\n{ddl}\nDUMP:\n{dump}"));
        assert_eq!(out.report.statements_seen, rows, "seed {seed}");
        assert_eq!(out.report.statements_ingested, rows, "seed {seed}");
        assert!(out.instance.n_txns() >= 1);
        // Sampled ingestion of the same dump: scaled frequencies, full
        // confidence coverage, still solvable input.
        let sampled = vpart_ingest::ingest_stats(
            &ddl,
            &dump,
            vpart_ingest::StatsFormat::PgssCsv,
            &IngestOptions::default().with_sample_rate(0.25),
        )
        .unwrap_or_else(|e| panic!("seed {seed} sampled failed: {e}"));
        assert_eq!(sampled.report.confidence.len(), sampled.instance.n_txns());
    }
}

#[test]
fn random_perf_schema_dumps_always_ingest() {
    for seed in 0..150u64 {
        let mut g = Gen::new(0x9E2F_0000 + seed);
        let ddl = g.ddl();
        let (dump, rows) = g.perf_schema_tsv();
        let out = vpart_ingest::ingest_stats(
            &ddl,
            &dump,
            vpart_ingest::StatsFormat::PerfSchema,
            &IngestOptions::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed} failed: {e}\nDDL:\n{ddl}\nDUMP:\n{dump}"));
        assert_eq!(out.report.statements_seen, rows, "seed {seed}");
        assert!(out.instance.n_txns() >= 1);
    }
}

#[test]
fn fuzzed_stats_garbage_never_panics() {
    // Byte-noise dumps must produce Ok or a typed error, never a panic.
    let mut rng = StdRng::seed_from_u64(0xD1_6E57);
    let schema = "CREATE TABLE t (a INT, b VARCHAR(8));";
    let pieces = [
        "query",
        "calls",
        "rows",
        "DIGEST_TEXT",
        "COUNT_STAR",
        "SELECT a FROM t",
        ",",
        "\t",
        "\n",
        "\"",
        "\"\"",
        "5",
        "-3",
        "1e308",
        "NULL",
        "often",
        "",
        "txn",
        "grp",
        "{",
        "[",
        "]",
        "}",
        ":",
        "BEGIN",
    ];
    for _ in 0..500 {
        let n = rng.gen_range(1..40usize);
        let dump: String = (0..n)
            .map(|_| pieces[rng.gen_range(0..pieces.len())])
            .collect::<Vec<_>>()
            .join("");
        for format in [
            vpart_ingest::StatsFormat::PgssCsv,
            vpart_ingest::StatsFormat::PgssJson,
            vpart_ingest::StatsFormat::PerfSchema,
        ] {
            // Either outcome is fine; what matters is that it returns.
            let _ = vpart_ingest::ingest_stats(schema, &dump, format, &IngestOptions::default());
            let _ = vpart_ingest::ingest_stats(
                schema,
                &dump,
                format,
                &IngestOptions::default().lenient(),
            );
        }
    }
}

#[test]
fn fuzzed_garbage_never_panics() {
    // Byte-noise logs must produce Ok or a typed error, never a panic.
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
    let schema = "CREATE TABLE t (a INT, b VARCHAR(8));";
    let pieces = [
        "SELECT", "FROM", "WHERE", "t", "a", "b", "(", ")", ",", ";", "=", "*", "'x'", "1.5", "--",
        "/*", "*/", "BEGIN", "COMMIT", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "?",
        ".", "\n",
    ];
    for _ in 0..500 {
        let n = rng.gen_range(1..30usize);
        let log: String = (0..n)
            .map(|_| pieces[rng.gen_range(0..pieces.len())])
            .collect::<Vec<_>>()
            .join(" ");
        // Either outcome is fine; what matters is that it returns.
        let _ = ingest(schema, &log, &IngestOptions::default());
        let _ = ingest(schema, &log, &IngestOptions::default().lenient());
    }
}
