//! Ingestion diagnostics: what was read, what was guessed, what was lost.
//!
//! Ingestion is deliberately lossy for SQL this parser does not model
//! (joins, subqueries, vendor DDL, ...). The [`IngestReport`] makes every
//! loss visible — skipped statements with reasons and source snippets,
//! width guesses for unbounded types — so a user can judge whether the
//! resulting instance still represents their workload.

use std::fmt;

/// Why a statement was skipped instead of ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// A multi-table write target (`UPDATE a, b SET ...`); plain joined
    /// `SELECT`s flatten into per-table accesses instead.
    Join,
    /// A `SELECT` shape that cannot be flattened per table (`UNION`,
    /// derived tables in `FROM`, ...); parenthesized predicate and
    /// select-list subqueries flatten instead.
    Subquery,
    /// Statement kind outside the supported DML subset (DDL, `SET`,
    /// `EXPLAIN`, vendor commands, ...).
    NotADmlStatement,
    /// The statement parsed to an empty attribute set (nothing to cost).
    NoColumns,
    /// A `BEGIN ... ROLLBACK` block: its work was undone, so it
    /// contributes no workload.
    RolledBack,
    /// Statement referenced an unknown table or column (lenient mode only;
    /// strict mode raises [`crate::IngestError`] instead).
    UnknownReference,
    /// The statement's grammar could not be parsed (lenient mode only).
    Unparsable,
    /// A transaction-control statement (`BEGIN`, `COMMIT`, `ROLLBACK`)
    /// inside a statistics dump: dumps aggregate per statement, so the
    /// bracket carries no workload of its own.
    TxnControl,
    /// A malformed statistics row (truncated, non-numeric counters; lenient
    /// mode only — strict mode raises [`crate::IngestError`] instead).
    MalformedStatsRow,
    /// A statistics row with zero observed executions contributes no
    /// workload (e.g. a statement reset since it last ran).
    ZeroCalls,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Join => "multi-table write targets are not supported",
            Self::Subquery => "cannot be flattened per table (UNION, derived table, ...)",
            Self::NotADmlStatement => "not a supported DML statement",
            Self::NoColumns => "no referenced columns",
            Self::RolledBack => "transaction rolled back",
            Self::UnknownReference => "unknown table or column",
            Self::Unparsable => "could not parse",
            Self::TxnControl => "transaction control carries no workload in a statistics dump",
            Self::MalformedStatsRow => "malformed statistics row",
            Self::ZeroCalls => "zero observed executions",
        };
        f.write_str(s)
    }
}

/// One skipped statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Skipped {
    /// 1-based source line.
    pub line: u32,
    /// Why it was skipped.
    pub reason: SkipReason,
    /// Compacted source text.
    pub snippet: String,
}

/// A per-table row count that was estimated rather than annotated.
///
/// Mirrors [`WidthFallback`]: the cost model needs *some* `n_{a,q}` per
/// touched table, and when the log carries no `rows=` annotation the miner
/// derives one — confidently (all primary-key columns equality-bound ⇒
/// exactly one row) or as a guess (`default_rows` scaled by `sel=`).
#[derive(Debug, Clone, PartialEq)]
pub struct RowEstimate {
    /// 1-based source line of the statement.
    pub line: u32,
    /// The table whose row count was estimated.
    pub table: String,
    /// The estimate that was used.
    pub rows: f64,
    /// `true` when derived from a full primary-key equality binding
    /// (principled); `false` for the default-value guess.
    pub pk_equality: bool,
    /// Compacted source text.
    pub snippet: String,
}

/// How much a template's scaled frequency can be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceLevel {
    /// Seen often enough that the population estimate is sound.
    Ok,
    /// Seen fewer times than [`crate::IngestOptions::confidence_min_calls`]:
    /// the scaled-up frequency rests on too few observations to trust.
    LowConfidence,
}

impl fmt::Display for ConfidenceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Ok => "ok",
            Self::LowConfidence => "low confidence",
        })
    }
}

/// Per-template sampling confidence, emitted when ingesting under a
/// `sample_rate` below 1: the observed count is what the (sampled) input
/// contained, the scaled count is the population estimate that reached the
/// cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceEntry {
    /// The transaction template's name.
    pub txn: String,
    /// Executions observed in the sampled input.
    pub observed: f64,
    /// Population estimate (`observed / sample_rate`) used as frequency.
    pub scaled: f64,
    /// Whether the observation count clears the confidence threshold.
    pub level: ConfidenceLevel,
}

/// A column whose SQL type had no principled width; the fallback was used.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthFallback {
    /// Owning table.
    pub table: String,
    /// Column name.
    pub column: String,
    /// The declared SQL type (uppercased).
    pub sql_type: String,
    /// The width that was assumed.
    pub width: f64,
}

/// Per-run ingestion diagnostics and headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Tables in the ingested schema.
    pub tables: usize,
    /// Attributes in the ingested schema (the model's `|A|`).
    pub attrs: usize,
    /// Distinct transaction templates (the model's `|T|`).
    pub txns: usize,
    /// Modeled queries (UPDATE splits count as two).
    pub queries: usize,
    /// Statements seen in the query log.
    pub statements_seen: usize,
    /// Statements that contributed workload.
    pub statements_ingested: usize,
    /// Total transaction executions observed (duplicates aggregated).
    pub txn_occurrences: usize,
    /// Distinct statement shapes the parser ran on (transaction brackets
    /// included): every other statement reused its shape's parse.
    pub statement_shapes: usize,
    /// Skipped statements with reasons.
    pub skipped: Vec<Skipped>,
    /// Width guesses made while reading the DDL.
    pub width_fallbacks: Vec<WidthFallback>,
    /// Row counts derived instead of annotated (PK equality or default).
    pub row_estimates: Vec<RowEstimate>,
    /// The sample rate frequencies were scaled by (1 = complete input).
    pub sample_rate: f64,
    /// Per-template sampling confidence (empty when `sample_rate` is 1).
    pub confidence: Vec<ConfidenceEntry>,
}

impl Default for IngestReport {
    fn default() -> Self {
        Self {
            tables: 0,
            attrs: 0,
            txns: 0,
            queries: 0,
            statements_seen: 0,
            statements_ingested: 0,
            txn_occurrences: 0,
            statement_shapes: 0,
            skipped: Vec::new(),
            width_fallbacks: Vec::new(),
            row_estimates: Vec::new(),
            sample_rate: 1.0,
            confidence: Vec::new(),
        }
    }
}

impl IngestReport {
    /// True when nothing was skipped and nothing was guessed. Primary-key
    /// row estimates do not count as losses (they are exact); default
    /// row guesses do. Low-confidence templates are a separate axis — see
    /// [`IngestReport::low_confidence`].
    pub fn is_lossless(&self) -> bool {
        self.skipped.is_empty()
            && self.width_fallbacks.is_empty()
            && self.row_estimates.iter().all(|e| e.pk_equality)
    }

    /// The templates whose scaled frequency rests on too few observations.
    pub fn low_confidence(&self) -> impl Iterator<Item = &ConfidenceEntry> {
        self.confidence
            .iter()
            .filter(|c| c.level == ConfidenceLevel::LowConfidence)
    }

    /// True when any skip or low-confidence diagnostic is present — the
    /// condition `vpart ingest --strict` fails on.
    pub fn has_diagnostics(&self) -> bool {
        !self.skipped.is_empty() || self.low_confidence().next().is_some()
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ingested {} tables / {} attributes, {} transactions / {} queries",
            self.tables, self.attrs, self.txns, self.queries
        )?;
        writeln!(
            f,
            "log: {}/{} statements ingested over {} transaction executions as {} statement shapes",
            self.statements_ingested,
            self.statements_seen,
            self.txn_occurrences,
            self.statement_shapes
        )?;
        for w in &self.width_fallbacks {
            writeln!(
                f,
                "  width fallback: {}.{} ({}) assumed {} bytes",
                w.table, w.column, w.sql_type, w.width
            )?;
        }
        for e in &self.row_estimates {
            writeln!(
                f,
                "  row estimate line {}: {} = {} rows ({}) — {}",
                e.line,
                e.table,
                e.rows,
                if e.pk_equality {
                    "primary-key equality"
                } else {
                    "default guess; annotate with rows="
                },
                e.snippet
            )?;
        }
        for s in &self.skipped {
            writeln!(f, "  skipped line {}: {} — {}", s.line, s.reason, s.snippet)?;
        }
        if self.sample_rate < 1.0 {
            writeln!(
                f,
                "sampling: frequencies scaled by 1/{} to population estimates",
                self.sample_rate
            )?;
            for c in self.low_confidence() {
                writeln!(
                    f,
                    "  low confidence: {} seen {} times (scaled to {}) — too few \
                     observations to trust",
                    c.txn, c.observed, c.scaled
                )?;
            }
        }
        if self.is_lossless() && !self.has_diagnostics() {
            writeln!(f, "no statements skipped, no statistics guessed")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summarizes_losses() {
        let r = IngestReport {
            tables: 2,
            attrs: 9,
            txns: 3,
            queries: 7,
            statements_seen: 10,
            statements_ingested: 8,
            txn_occurrences: 5,
            statement_shapes: 9,
            skipped: vec![Skipped {
                line: 4,
                reason: SkipReason::Subquery,
                snippet: "SELECT a FROM t UNION SELECT b FROM u".into(),
            }],
            width_fallbacks: vec![WidthFallback {
                table: "t".into(),
                column: "c".into(),
                sql_type: "TEXT".into(),
                width: 64.0,
            }],
            row_estimates: vec![RowEstimate {
                line: 6,
                table: "t".into(),
                rows: 1.0,
                pk_equality: true,
                snippet: "SELECT c FROM t WHERE id = ?".into(),
            }],
            ..IngestReport::default()
        };
        assert!(!r.is_lossless());
        let text = r.to_string();
        assert!(text.contains("8/10 statements"));
        assert!(text.contains("as 9 statement shapes"));
        assert!(text.contains("UNION"));
        assert!(text.contains("t.c (TEXT) assumed 64 bytes"));
        assert!(text.contains("primary-key equality"));
    }

    #[test]
    fn pk_estimates_are_not_losses_but_guesses_are() {
        let mut r = IngestReport {
            row_estimates: vec![RowEstimate {
                line: 1,
                table: "t".into(),
                rows: 1.0,
                pk_equality: true,
                snippet: "…".into(),
            }],
            ..IngestReport::default()
        };
        assert!(r.is_lossless());
        r.row_estimates.push(RowEstimate {
            line: 2,
            table: "t".into(),
            rows: 5.0,
            pk_equality: false,
            snippet: "…".into(),
        });
        assert!(!r.is_lossless());
        assert!(r.to_string().contains("default guess"));
    }

    #[test]
    fn lossless_report_says_so() {
        let r = IngestReport::default();
        assert!(r.is_lossless());
        assert!(r.to_string().contains("no statements skipped"));
    }

    #[test]
    fn low_confidence_is_a_diagnostic_but_not_a_loss() {
        let r = IngestReport {
            sample_rate: 0.01,
            confidence: vec![
                ConfidenceEntry {
                    txn: "hot".into(),
                    observed: 500.0,
                    scaled: 50_000.0,
                    level: ConfidenceLevel::Ok,
                },
                ConfidenceEntry {
                    txn: "rare".into(),
                    observed: 2.0,
                    scaled: 200.0,
                    level: ConfidenceLevel::LowConfidence,
                },
            ],
            ..IngestReport::default()
        };
        assert!(r.is_lossless(), "confidence is orthogonal to losses");
        assert!(r.has_diagnostics());
        assert_eq!(r.low_confidence().count(), 1);
        let text = r.to_string();
        assert!(text.contains("scaled by 1/0.01"));
        assert!(text.contains("low confidence: rare seen 2 times"));
        assert!(!text.contains("hot seen"), "only low entries are printed");
    }
}
