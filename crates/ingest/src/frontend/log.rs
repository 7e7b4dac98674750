//! Query-log frontend: statements → transactions → aggregated workload.
//!
//! Statements between `BEGIN`/`COMMIT` brackets form one transaction
//! occurrence; statements outside brackets are one-statement transactions
//! (the fallback for logs without explicit bracketing). Occurrences whose
//! parsed statement sequences coincide are aggregated into one
//! *transaction template* whose execution count becomes the query
//! frequency `f_q` — so a log with the Payment transaction 10 000 times
//! produces one `Payment` template at frequency 10 000, exactly the
//! workload statistics the cost model wants.
//!
//! Each parsed statement carries one access per touched table (joins,
//! subqueries and `INSERT ... SELECT` flatten — see [`crate::stmt`]); an
//! access with both read and write attributes (an `UPDATE` target) is
//! split into read + write sub-queries via
//! [`vpart_model::WorkloadBuilder::add_update`], mirroring the hand-built
//! TPC-C model (§5.2 of the paper).
//!
//! Annotations refine the statistics: `-- rows=N` sets a statement's
//! per-table row count (`-- sel=F` scales estimated ones), `-- freq=N`
//! scales an occurrence (on `BEGIN`/`COMMIT` or a bare statement) or one
//! statement's per-execution multiplicity (inside a block), and
//! `-- txn=Name` names the template. `freq=`/`txn=` may sit on either
//! bracket of a block; conflicting values are an error.
//!
//! # One pass, one parse per statement shape
//!
//! An OLTP log is a few statement shapes repeated with different
//! literals. The miner streams the log through [`crate::lexer::Lexer`],
//! one statement of borrowed tokens at a time, and keys each statement by
//! its *shape* (`stmt::shape_key`): the token sequence with
//! literal values erased (their kind — number, string, parameter — kept),
//! the identifier spellings, and the `rows=` / `sel=` / `freq=`
//! annotation values. That is everything the statement parser reads:
//! literal values only matter as "a constant sits here" (a primary-key
//! equality), so `WHERE id = 7` and `WHERE id = 8` parse identically. The
//! parser runs on the first occurrence of each shape; later occurrences
//! cost one lookup that compares the full key (never a bare hash). The
//! cache lives for one [`crate::ingest`] call.
//!
//! Transaction occurrences are lists of statement ids (the interned
//! structure each shape parsed to) with multiplicities, and aggregate by
//! them; snippets are cut from the log only when a diagnostic needs one.
//! Row estimates are reported once per shape and table, anchored at the
//! line and snippet of the shape's first committed occurrence — a
//! rolled-back block contributes none.
//!
//! Aggregation, sampling scale-up and confidence thresholds are shared
//! with the statistics frontends — see [`crate::frontend`].

use super::{merge_stmt, FrontendCtx, Miner, MinerStats, ShapeKind, WorkloadFrontend};
use crate::error::IngestError;
use crate::lexer::{snippet, Lexer, Statement};
use crate::report::{SkipReason, Skipped};
use crate::stmt::statement_stats;
use crate::IngestOptions;
use std::ops::Range;
use vpart_model::{Schema, Workload};

/// The raw-query-log frontend (`--log`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogFrontend;

impl WorkloadFrontend for LogFrontend {
    fn name(&self) -> &'static str {
        "query-log"
    }

    fn mine(
        &self,
        input: &str,
        ctx: &FrontendCtx<'_>,
    ) -> Result<(Workload, MinerStats), IngestError> {
        mine_workload(input, ctx.schema, ctx.primary_keys, ctx.opts)
    }
}

/// The `freq=` weight of a transaction bracket, `None` when unannotated.
fn bracket_weight(stmt: &Statement<'_>) -> Result<Option<f64>, IngestError> {
    Ok(statement_stats(stmt)?.freq)
}

/// A DML statement inside an open block.
struct Member {
    shape: usize,
    line: u32,
    /// Byte span in the log, for a snippet if a diagnostic needs one.
    span: Range<usize>,
}

/// An open `BEGIN` block under construction.
struct OpenBlock<'a> {
    line: u32,
    name: Option<&'a str>,
    /// `freq=` from the `BEGIN` bracket, if any.
    weight: Option<f64>,
    members: Vec<Member>,
}

/// Mines `log` into a [`Workload`] against the parsed schema.
pub fn mine_workload(
    log: &str,
    schema: &Schema,
    primary_keys: &[Vec<vpart_model::AttrId>],
    opts: &IngestOptions,
) -> Result<(Workload, MinerStats), IngestError> {
    let ctx = FrontendCtx {
        schema,
        primary_keys,
        opts,
    };
    let mut lexer = Lexer::new(log);
    let mut miner = Miner::new(&ctx);
    mine_statements(&mut lexer, &mut miner, log).map_err(|e| lexer.first_error(e))?;
    if miner.is_empty() {
        return Err(if miner.stats.statements_seen == 0 {
            IngestError::EmptyLog
        } else {
            IngestError::NothingIngested {
                statements: miner.stats.statements_seen,
            }
        });
    }
    miner.build()
}

/// Feeds every statement of the log to `miner`, grouping brackets.
fn mine_statements<'a>(
    lexer: &mut Lexer<'a>,
    miner: &mut Miner<'_>,
    log: &'a str,
) -> Result<(), IngestError> {
    let mut open: Option<OpenBlock<'a>> = None;
    // Scratch: the `(statement id, multiplicity)` list of one occurrence.
    let mut stmts: Vec<(usize, f64)> = Vec::new();
    while let Some(stmt) = lexer.next_statement()? {
        let shape = miner.shape(stmt)?;
        match miner.kind(shape) {
            ShapeKind::Begin => {
                if open.is_some() {
                    return Err(IngestError::NestedTransaction { line: stmt.line });
                }
                open = Some(OpenBlock {
                    line: stmt.line,
                    name: stmt.annotation("txn"),
                    weight: bracket_weight(stmt)?,
                    members: Vec::new(),
                });
            }
            ShapeKind::Commit => {
                let Some(block) = open.take() else {
                    return Err(IngestError::CommitOutsideTransaction { line: stmt.line });
                };
                // `txn=` / `freq=` may sit on either bracket; both ends
                // must agree when both are given.
                let name = merge_annotation("txn", block.name, stmt.annotation("txn"), stmt.line)?;
                let commit_weight = bracket_weight(stmt)?;
                let weight = match (block.weight, commit_weight) {
                    (Some(a), Some(b)) if a != b => {
                        return Err(IngestError::ConflictingAnnotation {
                            key: "freq".to_string(),
                            first: a.to_string(),
                            second: b.to_string(),
                            line: stmt.line,
                        })
                    }
                    (a, b) => a.or(b).unwrap_or(1.0),
                };
                if !block.members.is_empty() {
                    miner.stats.txn_occurrences += 1;
                    stmts.clear();
                    for m in &block.members {
                        miner.report_estimates(m.shape, m.line, || snippet(&log[m.span.clone()]));
                        if let ShapeKind::Dml { stmt, freq } = miner.kind(m.shape) {
                            merge_stmt(&mut stmts, stmt, freq);
                        }
                    }
                    miner.add_occurrence(name, &stmts, weight);
                }
            }
            ShapeKind::Rollback => {
                let Some(block) = open.take() else {
                    return Err(IngestError::RollbackOutsideTransaction { line: stmt.line });
                };
                miner.stats.statements_ingested -= block.members.len();
                for m in block.members {
                    miner.stats.skipped.push(Skipped {
                        line: m.line,
                        reason: SkipReason::RolledBack,
                        snippet: snippet(&log[m.span]),
                    });
                }
            }
            ShapeKind::Dml { stmt: id, freq } => {
                miner.stats.statements_seen += 1;
                miner.stats.statements_ingested += 1;
                match &mut open {
                    Some(block) => {
                        if block.name.is_none() {
                            block.name = stmt.annotation("txn");
                        }
                        block.members.push(Member {
                            shape,
                            line: stmt.line,
                            span: stmt.span.clone(),
                        });
                    }
                    None => {
                        miner.stats.txn_occurrences += 1;
                        miner.report_estimates(shape, stmt.line, || stmt.snippet());
                        miner.add_occurrence(stmt.annotation("txn"), &[(id, 1.0)], freq);
                    }
                }
            }
            ShapeKind::Skip(reason) => {
                miner.stats.statements_seen += 1;
                miner.stats.skipped.push(Skipped {
                    line: stmt.line,
                    reason,
                    snippet: stmt.snippet(),
                });
            }
        }
    }
    match open {
        Some(block) => Err(IngestError::UnterminatedTransaction { line: block.line }),
        None => Ok(()),
    }
}

/// Combines an annotation that may sit on either transaction bracket.
fn merge_annotation<'a>(
    key: &str,
    begin: Option<&'a str>,
    commit: Option<&'a str>,
    line: u32,
) -> Result<Option<&'a str>, IngestError> {
    match (begin, commit) {
        (Some(a), Some(b)) if a != b => Err(IngestError::ConflictingAnnotation {
            key: key.to_string(),
            first: a.to_string(),
            second: b.to_string(),
            line,
        }),
        (a, b) => Ok(a.or(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::QueryKind;

    fn schema() -> Schema {
        let mut b = Schema::builder();
        b.table("acct", &[("id", 4.0), ("owner", 16.0), ("bal", 8.0)])
            .unwrap();
        b.table("log", &[("id", 4.0), ("amount", 8.0)]).unwrap();
        b.build().unwrap()
    }

    fn opts() -> IngestOptions {
        IngestOptions::default()
    }

    fn mine(log: &str) -> Result<(Workload, MinerStats), IngestError> {
        mine_workload(log, &schema(), &[], &opts())
    }

    #[test]
    fn bare_statements_become_single_statement_txns() {
        let (w, stats) =
            mine("SELECT bal FROM acct WHERE id = 1;\nINSERT INTO log VALUES (1, 2.5);").unwrap();
        assert_eq!(w.n_txns(), 2);
        assert_eq!(w.n_queries(), 2);
        assert_eq!(stats.txn_occurrences, 2);
        assert_eq!(stats.statements_ingested, 2);
    }

    #[test]
    fn duplicate_occurrences_aggregate_into_frequency() {
        let log = "SELECT bal FROM acct WHERE id = 1;\n".repeat(5)
            + "SELECT bal FROM acct WHERE id = 99;\n"
            + "SELECT owner FROM acct WHERE id = 2;";
        let (w, stats) = mine(&log).unwrap();
        // Literals are not part of the template key: the six bal-selects
        // collapse into one template at frequency 6.
        assert_eq!(w.n_txns(), 2);
        assert_eq!(stats.txn_occurrences, 7);
        let q = w.query(vpart_model::QueryId(0));
        assert_eq!(q.frequency, 6.0);
    }

    #[test]
    fn begin_commit_groups_and_names_transactions() {
        let log = "BEGIN; -- txn=transfer\n\
                   SELECT bal FROM acct WHERE id = 1;\n\
                   UPDATE acct SET bal = bal - 10 WHERE id = 1;\n\
                   INSERT INTO log (id, amount) VALUES (1, 10);\n\
                   COMMIT;\n\
                   BEGIN;\n\
                   SELECT bal FROM acct WHERE id = 2;\n\
                   UPDATE acct SET bal = bal - 10 WHERE id = 2;\n\
                   INSERT INTO log (id, amount) VALUES (2, 10);\n\
                   COMMIT;";
        let (w, stats) = mine(log).unwrap();
        assert_eq!(w.n_txns(), 1, "identical blocks aggregate");
        assert_eq!(stats.txn_occurrences, 2);
        let t = w.txn_by_name("transfer").expect("named via annotation");
        // select + update(read+write) + insert = 4 modeled queries.
        assert_eq!(w.txn(t).queries.len(), 4);
        for &q in &w.txn(t).queries {
            assert_eq!(w.query(q).frequency, 2.0);
        }
        let upd_w = w.query_by_name("transfer/1:update_acct/write").unwrap();
        assert_eq!(w.query(upd_w).kind, QueryKind::Write);
        assert_eq!(w.query(upd_w).attrs.len(), 1);
    }

    #[test]
    fn freq_annotation_scales_occurrences() {
        let (w, _) = mine("SELECT /*+ freq=10 */ bal FROM acct WHERE id = 1;").unwrap();
        assert_eq!(w.query(vpart_model::QueryId(0)).frequency, 10.0);
    }

    #[test]
    fn freq_annotation_works_on_either_bracket() {
        let on_begin = "BEGIN; -- freq=4\nSELECT bal FROM acct WHERE id = 1;\nCOMMIT;";
        let on_commit = "BEGIN;\nSELECT bal FROM acct WHERE id = 1;\nCOMMIT; -- freq=4";
        let both = "BEGIN; -- freq=4\nSELECT bal FROM acct WHERE id = 1;\nCOMMIT; -- freq=4";
        for log in [on_begin, on_commit, both] {
            let (w, _) = mine(log).unwrap();
            assert_eq!(w.query(vpart_model::QueryId(0)).frequency, 4.0, "{log}");
        }
    }

    #[test]
    fn conflicting_bracket_annotations_are_errors() {
        let err = mine("BEGIN; -- freq=4\nSELECT bal FROM acct WHERE id = 1;\nCOMMIT; -- freq=5")
            .unwrap_err();
        assert!(
            matches!(&err, IngestError::ConflictingAnnotation { key, line: 3, .. } if key == "freq"),
            "got {err:?}"
        );
        let err = mine("BEGIN; -- txn=a\nSELECT bal FROM acct WHERE id = 1;\nCOMMIT; -- txn=b")
            .unwrap_err();
        assert!(
            matches!(&err, IngestError::ConflictingAnnotation { key, .. } if key == "txn"),
            "got {err:?}"
        );
        // Matching values on both ends are fine (covered above).
    }

    #[test]
    fn repeated_statement_within_txn_gets_multiplicity() {
        let log = "BEGIN;\n\
                   SELECT bal FROM acct WHERE id = 1;\n\
                   SELECT bal FROM acct WHERE id = 7;\n\
                   COMMIT;";
        let (w, _) = mine(log).unwrap();
        assert_eq!(w.n_queries(), 1);
        assert_eq!(w.query(vpart_model::QueryId(0)).frequency, 2.0);
    }

    #[test]
    fn rollback_discards_the_block() {
        let log = "BEGIN;\n\
                   UPDATE acct SET bal = 0 WHERE id = 1;\n\
                   ROLLBACK;\n\
                   SELECT bal FROM acct WHERE id = 1;";
        let (w, stats) = mine(log).unwrap();
        assert_eq!(w.n_txns(), 1);
        assert_eq!(stats.skipped.len(), 1);
        assert_eq!(stats.skipped[0].reason, SkipReason::RolledBack);
    }

    #[test]
    fn rolled_back_blocks_keep_the_counts_consistent() {
        let log = "BEGIN;\n\
                   UPDATE acct SET bal = 0 WHERE id = 1;\n\
                   INSERT INTO log VALUES (1, 5);\n\
                   ROLLBACK;\n\
                   SELECT bal FROM acct WHERE id = 1;";
        let (w, stats) = mine(log).unwrap();
        assert_eq!(
            stats.statements_seen, 3,
            "rolled-back statements count as seen"
        );
        assert_eq!(
            stats.statements_ingested, 1,
            "only the trailing select survives"
        );
        assert_eq!(
            stats.skipped.len(),
            2,
            "one skip entry per rolled-back statement"
        );
        assert!(stats
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::RolledBack));
        assert_eq!(w.n_txns(), 1);
        assert_eq!(stats.txn_occurrences, 1);
        // The rolled-back statements' row estimates are discarded too.
        assert_eq!(stats.row_estimates.len(), 1, "only the select's estimate");
    }

    #[test]
    fn empty_transaction_blocks_contribute_nothing() {
        let log =
            "BEGIN;\nCOMMIT;\nSELECT bal FROM acct WHERE id = 1;\nBEGIN; -- txn=noop\nCOMMIT;";
        let (w, stats) = mine(log).unwrap();
        assert_eq!(w.n_txns(), 1);
        assert_eq!(stats.txn_occurrences, 1);
        assert_eq!(stats.statements_seen, 1);
        assert!(
            w.txn_by_name("noop").is_none(),
            "empty block left no template"
        );
    }

    #[test]
    fn bracket_errors_are_typed() {
        assert_eq!(
            mine("BEGIN;\nSELECT bal FROM acct WHERE id=1;").unwrap_err(),
            IngestError::UnterminatedTransaction { line: 1 }
        );
        assert_eq!(
            mine("BEGIN;\nBEGIN;\nCOMMIT;").unwrap_err(),
            IngestError::NestedTransaction { line: 2 }
        );
        assert_eq!(
            mine("COMMIT;").unwrap_err(),
            IngestError::CommitOutsideTransaction { line: 1 }
        );
        assert_eq!(
            mine("ROLLBACK;").unwrap_err(),
            IngestError::RollbackOutsideTransaction { line: 1 }
        );
        assert_eq!(mine("").unwrap_err(), IngestError::EmptyLog);
        assert_eq!(
            mine("VACUUM;").unwrap_err(),
            IngestError::NothingIngested { statements: 1 }
        );
    }

    #[test]
    fn rows_annotation_reaches_the_model() {
        let (w, stats) = mine("SELECT /*+ rows=10 */ owner FROM acct WHERE id < 100;").unwrap();
        let q = w.query(vpart_model::QueryId(0));
        assert_eq!(q.rows_for_table(vpart_model::TableId(0)), 10.0);
        assert!(stats.row_estimates.is_empty(), "annotated, not estimated");
    }

    #[test]
    fn pk_equality_estimates_are_reported() {
        let pks = vec![vec![vpart_model::AttrId(0)], vec![]];
        let s = schema();
        let log = "SELECT owner FROM acct WHERE id = 7;\n\
                   SELECT owner FROM acct WHERE owner = 'x';";
        let (w, stats) = mine_workload(log, &s, &pks, &opts()).unwrap();
        assert_eq!(stats.row_estimates.len(), 2);
        let pk = &stats.row_estimates[0];
        assert!(pk.pk_equality);
        assert_eq!(pk.rows, 1.0);
        assert_eq!(pk.table, "acct");
        assert!(
            !stats.row_estimates[1].pk_equality,
            "non-key predicate is a guess"
        );
        let q = w.query(vpart_model::QueryId(0));
        assert_eq!(q.rows_for_table(vpart_model::TableId(0)), 1.0);
    }

    #[test]
    fn repeated_statements_report_one_estimate_entry() {
        let log = "SELECT bal FROM acct WHERE id = 1;\n".repeat(5)
            + "SELECT owner FROM acct WHERE owner = 'x';";
        let (_, stats) = mine(&log).unwrap();
        // Five identical selects aggregate into one template — and one
        // report entry, not five.
        assert_eq!(stats.row_estimates.len(), 2);
    }

    #[test]
    fn joined_statements_produce_one_query_per_table() {
        let log = "SELECT bal, amount FROM acct JOIN log ON acct.id = log.id \
                   WHERE acct.id = 3;";
        let (w, _) = mine(log).unwrap();
        assert_eq!(w.n_txns(), 1);
        assert_eq!(w.n_queries(), 2, "one read per joined table");
        let acct = w.query_by_name("txn0/0.0:select_acct").unwrap();
        let logq = w.query_by_name("txn0/0.1:select_log").unwrap();
        assert_eq!(w.query(acct).kind, QueryKind::Read);
        assert_eq!(w.query(logq).kind, QueryKind::Read);
        assert_eq!(w.txn_of(acct), w.txn_of(logq), "same transaction");
    }

    #[test]
    fn sample_rate_scales_log_frequencies_too() {
        let log = "SELECT bal FROM acct WHERE id = 1;\n".repeat(20)
            + "SELECT owner FROM acct WHERE id = 2;";
        let opts = IngestOptions::default().with_sample_rate(0.5);
        let (w, stats) = mine_workload(&log, &schema(), &[], &opts).unwrap();
        assert_eq!(w.query(vpart_model::QueryId(0)).frequency, 40.0);
        assert_eq!(stats.confidence.len(), 2);
        assert_eq!(
            stats.confidence[0].level,
            crate::report::ConfidenceLevel::Ok
        );
        assert_eq!(
            stats.confidence[1].level,
            crate::report::ConfidenceLevel::LowConfidence,
            "a single observation scaled 2x is not trustworthy"
        );
    }
}
