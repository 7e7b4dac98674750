//! Workload frontends: pluggable readers behind one trait.
//!
//! The cost model wants aggregated workload statistics — normalized
//! statement templates with execution counts and row counts. Real
//! deployments hold that information in different shapes: raw query logs,
//! `pg_stat_statements` dumps, MySQL `performance_schema` digests. Each
//! shape is a [`WorkloadFrontend`]: it mines its input text into the same
//! `(Workload, MinerStats)` pair, and everything downstream (instance
//! validation, reporting, solving) is shared.
//!
//! Statistics dumps additionally share a normalized intermediate form: a
//! [`StatsReader`] parses its dump into [`StatsRecord`]s — `(template,
//! calls, rows, txn-group)` — and the blanket [`WorkloadFrontend`] impl
//! feeds those records through the *same* statement flattening and row
//! estimation pipeline the query-log miner uses ([`crate::stmt`]), so
//! joins, subqueries, `PRIMARY KEY` row inference and `sel=` hints inside
//! template text all behave identically across frontends.
//!
//! Sampling: every frontend scales observed frequencies by
//! `1 / sample_rate` to population estimates, and templates observed fewer
//! than [`crate::IngestOptions::confidence_min_calls`] times get a
//! [`ConfidenceLevel::LowConfidence`] entry in the report — scaling a
//! handful of sampled hits by 100× is statistics, not data.

pub(crate) mod csv;
pub mod log;
pub mod perf_schema;
pub mod pgss;

use crate::error::IngestError;
use crate::lexer::{snippet, Annotation, Statement};
use crate::report::{ConfidenceEntry, ConfidenceLevel, RowEstimate, SkipReason, Skipped};
use crate::stmt::{parse_statement, Parsed, ParsedDml, RowBasis, StmtCtx, StmtKind, TableAccess};
use crate::IngestOptions;
use std::collections::HashMap;
use std::fmt;
use vpart_model::{AttrId, Schema, Workload};

/// Schema-side context shared by every frontend.
#[derive(Debug, Clone, Copy)]
pub struct FrontendCtx<'a> {
    /// The schema statements resolve against.
    pub schema: &'a Schema,
    /// Per-table primary-key attribute sets (empty entries when the DDL
    /// declared none). Drives `WHERE pk = ?` row estimation.
    pub primary_keys: &'a [Vec<AttrId>],
    /// Ingestion knobs (strictness, fallbacks, sampling).
    pub opts: &'a IngestOptions,
}

/// A workload frontend: one input shape, mined into the shared workload
/// representation.
pub trait WorkloadFrontend {
    /// Short name for diagnostics (`query-log`, `pgss-csv`, ...).
    fn name(&self) -> &'static str;

    /// Mines frontend-specific input text into a workload plus its
    /// diagnostics.
    fn mine(
        &self,
        input: &str,
        ctx: &FrontendCtx<'_>,
    ) -> Result<(Workload, MinerStats), IngestError>;
}

/// The statistics-dump formats `vpart` can read (`--stats-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// `pg_stat_statements` exported as CSV (`COPY ... TO ... CSV HEADER`
    /// or `psql --csv`): `query`, `calls`, optional `rows` columns.
    PgssCsv,
    /// `pg_stat_statements` exported as a JSON array of row objects.
    PgssJson,
    /// MySQL `performance_schema.events_statements_summary_by_digest`
    /// exported as CSV/TSV: `DIGEST_TEXT`, `COUNT_STAR`, optional
    /// `SUM_ROWS_EXAMINED` / `SUM_ROWS_SENT`.
    PerfSchema,
}

impl StatsFormat {
    /// Every supported format, for usage text.
    pub const ALL: [StatsFormat; 3] = [Self::PgssCsv, Self::PgssJson, Self::PerfSchema];

    /// Parses a `--stats-format` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pgss-csv" => Some(Self::PgssCsv),
            "pgss-json" => Some(Self::PgssJson),
            "perf-schema" => Some(Self::PerfSchema),
            _ => None,
        }
    }

    /// The frontend implementing this format.
    pub fn frontend(self) -> &'static dyn WorkloadFrontend {
        match self {
            Self::PgssCsv => &pgss::PgssCsv,
            Self::PgssJson => &pgss::PgssJson,
            Self::PerfSchema => &perf_schema::PerfSchema,
        }
    }
}

impl fmt::Display for StatsFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::PgssCsv => "pgss-csv",
            Self::PgssJson => "pgss-json",
            Self::PerfSchema => "perf-schema",
        })
    }
}

/// One normalized statistics record: a statement template with its
/// aggregate counters — the shape `pg_stat_statements` and
/// `performance_schema` both export, and the common currency between
/// [`StatsReader`]s and the shared assembly pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsRecord {
    /// Normalized SQL template text (`?` / `$n` placeholders both lex as
    /// parameters; `/*+ rows=… sel=… */` hints inside the text still
    /// apply).
    pub template: String,
    /// Observed execution count (`calls` / `COUNT_STAR`).
    pub calls: f64,
    /// Average rows touched *per call*, when the source measures it;
    /// `None` falls back to the annotation / primary-key / default
    /// estimation pipeline.
    pub rows: Option<f64>,
    /// Transaction-group label: records sharing a label form one
    /// transaction template (the optional `txn` dump column); `None`
    /// makes the record its own single-statement transaction.
    pub group: Option<String>,
    /// 1-based source line of the dump row (element index for JSON).
    pub line: u32,
}

/// A parsed statistics dump: usable records plus row-level skips.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordBatch {
    /// The usable records, in dump order.
    pub records: Vec<StatsRecord>,
    /// Dump rows that were skipped (lenient mode).
    pub skipped: Vec<Skipped>,
    /// Total data rows seen (records + skipped).
    pub rows_seen: usize,
}

impl RecordBatch {
    /// Records a skipped dump row.
    pub(crate) fn skip(&mut self, line: u32, reason: SkipReason, snippet: &str) {
        self.skipped.push(Skipped {
            line,
            reason,
            snippet: crate::lexer::snippet(snippet),
        });
    }
}

/// A statistics-dump reader: parses one dump format into normalized
/// [`StatsRecord`]s. Every reader is a [`WorkloadFrontend`] via the
/// blanket impl, which routes the records through the shared statement
/// pipeline.
pub trait StatsReader {
    /// The `--stats-format` name of this reader.
    fn format_name(&self) -> &'static str;

    /// Parses dump text into records (plus per-row skips in lenient mode).
    fn records(&self, input: &str, opts: &IngestOptions) -> Result<RecordBatch, IngestError>;
}

impl<T: StatsReader> WorkloadFrontend for T {
    fn name(&self) -> &'static str {
        self.format_name()
    }

    fn mine(
        &self,
        input: &str,
        ctx: &FrontendCtx<'_>,
    ) -> Result<(Workload, MinerStats), IngestError> {
        assemble(self.records(input, ctx.opts)?, ctx)
    }
}

/// Mining statistics feeding the ingest report (shared by all frontends).
#[derive(Debug, Clone, Default)]
pub struct MinerStats {
    /// Statements seen in the input (transaction brackets excluded; one
    /// per data row for statistics dumps).
    pub statements_seen: usize,
    /// Statements that contributed workload.
    pub statements_ingested: usize,
    /// Transaction occurrences observed before aggregation (sum of
    /// observed, unscaled execution counts for statistics dumps).
    pub txn_occurrences: usize,
    /// Distinct statement shapes parsed (transaction brackets included);
    /// every other statement reused the parse of its shape.
    pub statement_shapes: usize,
    /// Skipped statements.
    pub skipped: Vec<Skipped>,
    /// Row counts that were estimated rather than annotated, one entry
    /// per statement shape and table.
    pub row_estimates: Vec<RowEstimate>,
    /// Per-template sampling confidence (populated when sampling).
    pub confidence: Vec<ConfidenceEntry>,
}

/// What parsing one statement shape produced.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShapeKind {
    Begin,
    Commit,
    Rollback,
    /// A DML statement: its interned structure and the `freq=` weight of
    /// one occurrence.
    Dml {
        stmt: usize,
        freq: f64,
    },
    Skip(SkipReason),
}

struct Shape {
    kind: ShapeKind,
    /// Whether the shape's row estimates are in the report already.
    estimates_reported: bool,
}

/// A statement's structure with its row bases: statements equal under
/// this key merge into one multiplicity within a transaction.
type StmtKey = (StmtKind, Vec<(AccessKey, RowBasis)>);

/// One table access without its row basis.
type AccessKey = (u32, Vec<u32>, Vec<u32>, u64);

/// A statement's structure without row bases: transaction occurrences
/// whose statements are equal under this key (with equal multiplicities)
/// aggregate into one template.
type ClassKey = (StmtKind, Vec<AccessKey>);

fn access_key(a: &TableAccess) -> AccessKey {
    (
        a.table.0,
        a.read.iter().map(|x| x.0).collect(),
        a.write.iter().map(|x| x.0).collect(),
        a.rows.to_bits(),
    )
}

/// An aggregated transaction template.
struct Template {
    name: Option<String>,
    /// `(statement id, per-execution multiplicity)` of the first
    /// occurrence, in statement order.
    stmts: Vec<(usize, f64)>,
    /// Total observed executions (sum of occurrence weights).
    weight: f64,
}

/// The mining state every frontend shares: the statement-shape cache,
/// the interned statement structures, and the transaction templates
/// aggregated from them.
///
/// [`Miner::shape`] parses a statement only on the first occurrence of
/// its shape ([`crate::stmt::shape_key`]); every later occurrence costs a
/// hash lookup of the key. Statement structures are interned once per
/// shape, so a transaction occurrence is a short list of statement ids
/// and aggregates by the ids' classes and multiplicities.
pub(crate) struct Miner<'c> {
    ctx: FrontendCtx<'c>,
    shape_ids: HashMap<Box<[u8]>, usize>,
    shapes: Vec<Shape>,
    /// Scratch buffer for the shape key of the statement at hand.
    key: Vec<u8>,
    /// Distinct statement structures, by statement id.
    stmts: Vec<ParsedDml>,
    stmt_ids: HashMap<StmtKey, usize>,
    /// Aggregation class of each statement id.
    class_of: Vec<usize>,
    class_ids: HashMap<ClassKey, usize>,
    templates: Vec<Template>,
    template_ids: HashMap<Box<[(usize, u64)]>, usize>,
    /// Scratch buffer for the aggregation key of the occurrence at hand.
    occurrence_key: Vec<(usize, u64)>,
    /// Report counters and diagnostics.
    pub(crate) stats: MinerStats,
}

impl<'c> Miner<'c> {
    pub(crate) fn new(ctx: &FrontendCtx<'c>) -> Self {
        Self {
            ctx: *ctx,
            shape_ids: HashMap::new(),
            shapes: Vec::new(),
            key: Vec::new(),
            stmts: Vec::new(),
            stmt_ids: HashMap::new(),
            class_of: Vec::new(),
            class_ids: HashMap::new(),
            templates: Vec::new(),
            template_ids: HashMap::new(),
            occurrence_key: Vec::new(),
            stats: MinerStats::default(),
        }
    }

    /// The shape id of `stmt`, parsing the statement if its shape is new.
    /// Parse errors surface on the shape's first occurrence, which is the
    /// first statement that fails.
    pub(crate) fn shape(&mut self, stmt: &Statement<'_>) -> Result<usize, IngestError> {
        crate::stmt::shape_key(stmt, &mut self.key);
        if let Some(&id) = self.shape_ids.get(self.key.as_slice()) {
            return Ok(id);
        }
        let sctx = StmtCtx {
            schema: self.ctx.schema,
            pks: self.ctx.primary_keys,
            strict: self.ctx.opts.strict,
            default_rows: self.ctx.opts.default_rows,
        };
        let kind = match parse_statement(stmt, &sctx)? {
            Parsed::Begin => ShapeKind::Begin,
            Parsed::Commit => ShapeKind::Commit,
            Parsed::Rollback => ShapeKind::Rollback,
            Parsed::Skip(reason) => ShapeKind::Skip(reason),
            Parsed::Dml(dml) => ShapeKind::Dml {
                freq: dml.freq,
                stmt: self.intern(dml),
            },
        };
        let id = self.shapes.len();
        self.shapes.push(Shape {
            kind,
            estimates_reported: false,
        });
        self.shape_ids.insert(self.key.as_slice().into(), id);
        Ok(id)
    }

    /// What the parse of `shape` produced.
    pub(crate) fn kind(&self, shape: usize) -> ShapeKind {
        self.shapes[shape].kind
    }

    /// The id of `dml`'s structure, interning it if new.
    fn intern(&mut self, dml: ParsedDml) -> usize {
        let key: StmtKey = (
            dml.kind,
            dml.accesses
                .iter()
                .map(|a| (access_key(a), a.basis))
                .collect(),
        );
        if let Some(&id) = self.stmt_ids.get(&key) {
            return id;
        }
        let class: ClassKey = (dml.kind, key.1.iter().map(|(a, _)| a.clone()).collect());
        let next_class = self.class_ids.len();
        let class = *self.class_ids.entry(class).or_insert(next_class);
        let id = self.stmts.len();
        self.stmts.push(dml);
        self.class_of.push(class);
        self.stmt_ids.insert(key, id);
        id
    }

    /// Reports the estimated (non-annotated) row counts of `shape`,
    /// anchored at `line` / `snippet` — once per shape: every occurrence
    /// of a shape aggregates into the same template with the same
    /// estimate, so the report grows with the shapes, not the input.
    pub(crate) fn report_estimates(
        &mut self,
        shape: usize,
        line: u32,
        snippet: impl FnOnce() -> String,
    ) {
        let entry = &mut self.shapes[shape];
        let ShapeKind::Dml { stmt, .. } = entry.kind else {
            return;
        };
        if std::mem::replace(&mut entry.estimates_reported, true) {
            return;
        }
        let estimated = self.stmts[stmt]
            .accesses
            .iter()
            .filter(|a| matches!(a.basis, RowBasis::PkEquality | RowBasis::Default));
        if estimated.clone().next().is_none() {
            return;
        }
        let snippet = snippet();
        let tables = self.ctx.schema.tables();
        self.stats
            .row_estimates
            .extend(estimated.map(|a| RowEstimate {
                line,
                table: tables[a.table.index()].name.clone(),
                rows: a.rows,
                pk_equality: a.basis == RowBasis::PkEquality,
                snippet: snippet.clone(),
            }));
    }

    /// Adds one transaction occurrence: `stmts` are `(statement id,
    /// multiplicity)` pairs (see [`merge_stmt`]), `weight` the observed
    /// executions it stands for. Occurrences whose statements have equal
    /// classes and multiplicities, in order, aggregate into one template;
    /// the first named occurrence names it.
    pub(crate) fn add_occurrence(
        &mut self,
        name: Option<&str>,
        stmts: &[(usize, f64)],
        weight: f64,
    ) {
        self.occurrence_key.clear();
        self.occurrence_key.extend(
            stmts
                .iter()
                .map(|&(s, mult)| (self.class_of[s], mult.to_bits())),
        );
        match self.template_ids.get(self.occurrence_key.as_slice()) {
            Some(&t) => {
                let t = &mut self.templates[t];
                t.weight += weight;
                if t.name.is_none() {
                    t.name = name.map(str::to_string);
                }
            }
            None => {
                self.template_ids
                    .insert(self.occurrence_key.as_slice().into(), self.templates.len());
                self.templates.push(Template {
                    name: name.map(str::to_string),
                    stmts: stmts.to_vec(),
                    weight,
                });
            }
        }
    }

    /// True until the first occurrence is added.
    pub(crate) fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Applies sampling scale and confidence thresholds and builds the
    /// workload from the templates — the shared tail of every frontend.
    /// One modeled query per table access; read+write accesses (UPDATE
    /// targets) split per the paper's §5.2.
    pub(crate) fn build(mut self) -> Result<(Workload, MinerStats), IngestError> {
        let (schema, opts) = (self.ctx.schema, self.ctx.opts);
        let stats = &mut self.stats;
        stats.statement_shapes = self.shapes.len();
        // Sampled input: scale observed counts up to population estimates.
        let scale = 1.0 / opts.sample_rate;
        let sampled = opts.sample_rate < 1.0;

        let mut wb = Workload::builder(schema);
        let mut used_names: HashMap<String, usize> = HashMap::new();
        for (i, tpl) in self.templates.iter().enumerate() {
            let base = tpl.name.clone().unwrap_or_else(|| format!("txn{i}"));
            let n = used_names.entry(base.clone()).or_insert(0);
            *n += 1;
            let txn_name = if *n == 1 { base } else { format!("{base}#{n}") };
            if sampled {
                // A statement executing `weight × mult` times can be backed
                // by fewer observations than the template itself (stats
                // groups carry per-member counts as mult < 1); the flag
                // follows the weakest statement, not the template total.
                let min_observed = tpl
                    .stmts
                    .iter()
                    .map(|&(_, mult)| tpl.weight * mult)
                    .fold(tpl.weight, f64::min);
                stats.confidence.push(ConfidenceEntry {
                    txn: txn_name.clone(),
                    observed: tpl.weight,
                    scaled: tpl.weight * scale,
                    level: if min_observed < opts.confidence_min_calls {
                        ConfidenceLevel::LowConfidence
                    } else {
                        ConfidenceLevel::Ok
                    },
                });
            }
            let mut qids = Vec::new();
            for (j, &(s, mult)) in tpl.stmts.iter().enumerate() {
                let d = &self.stmts[s];
                let freq = tpl.weight * scale * mult;
                for (k, a) in d.accesses.iter().enumerate() {
                    let table_name = schema.tables()[a.table.index()].name.to_ascii_lowercase();
                    // Single-access statements keep the `txn/j:verb_table`
                    // form; flattened ones append the access index.
                    let qname = if d.accesses.len() == 1 {
                        format!("{txn_name}/{j}:{}_{}", d.kind.verb(), table_name)
                    } else {
                        format!("{txn_name}/{j}.{k}:{}_{}", d.kind.verb(), table_name)
                    };
                    if !a.read.is_empty() && !a.write.is_empty() {
                        let (r, w) =
                            wb.add_update(&qname, freq, &a.read, &a.write, &[(a.table, a.rows)])?;
                        qids.push(r);
                        qids.push(w);
                    } else if a.write.is_empty() {
                        let spec = vpart_model::workload::QuerySpec::read(&qname)
                            .access(&a.read)
                            .frequency(freq)
                            .default_rows(a.rows);
                        qids.push(wb.add_query(spec)?);
                    } else {
                        let spec = vpart_model::workload::QuerySpec::write(&qname)
                            .access(&a.write)
                            .frequency(freq)
                            .default_rows(a.rows);
                        qids.push(wb.add_query(spec)?);
                    }
                }
            }
            wb.transaction(&txn_name, &qids)?;
        }
        Ok((wb.build()?, self.stats))
    }
}

/// Folds one statement into an occurrence's `(statement id,
/// multiplicity)` list: a repeated statement accumulates `mult`, a new
/// one is appended.
pub(crate) fn merge_stmt(stmts: &mut Vec<(usize, f64)>, stmt: usize, mult: f64) {
    match stmts.iter_mut().find(|(s, _)| *s == stmt) {
        Some((_, prev)) => *prev += mult,
        None => stmts.push((stmt, mult)),
    }
}

// ------------------------------------------------- stats-record assembly

/// One merged record plus how many dump rows collapsed into it.
struct MergedRecord {
    rec: StatsRecord,
    dup: usize,
}

/// Rewrites the line carried by a statement-level error to the dump row's
/// line: templates are parsed as standalone one-line texts, so their
/// internal line numbers are meaningless to the user.
fn at_line(e: IngestError, line: u32) -> IngestError {
    use IngestError::*;
    match e {
        UnterminatedString { .. } => UnterminatedString { line },
        UnterminatedComment { .. } => UnterminatedComment { line },
        UnterminatedStatement { .. } => UnterminatedStatement { line },
        Syntax {
            expected, found, ..
        } => Syntax {
            line,
            expected,
            found,
        },
        UnknownTable { name, .. } => UnknownTable { name, line },
        UnknownColumn { table, column, .. } => UnknownColumn {
            table,
            column,
            line,
        },
        AmbiguousColumn { column, tables, .. } => AmbiguousColumn {
            column,
            tables,
            line,
        },
        Unflattenable { .. } => Unflattenable { line },
        other => other,
    }
}

/// Runs normalized statistics records through the shared statement
/// pipeline: parse each template (flattening joins/subqueries, estimating
/// rows), group records by their `txn` label, aggregate and build.
pub(crate) fn assemble(
    batch: RecordBatch,
    ctx: &FrontendCtx<'_>,
) -> Result<(Workload, MinerStats), IngestError> {
    let opts = ctx.opts;
    let mut miner = Miner::new(ctx);
    miner.stats.statements_seen = batch.rows_seen;
    miner.stats.skipped = batch.skipped;

    // Identical (template, group) rows merge first — pg_stat_statements
    // keeps one row per (userid, dbid, query), so the same template can
    // legitimately appear several times. Calls sum; rows average,
    // call-weighted.
    let mut merged: Vec<MergedRecord> = Vec::new();
    let mut index: HashMap<(String, Option<String>), usize> = HashMap::new();
    for r in batch.records {
        match index.entry((r.template.clone(), r.group.clone())) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let m = &mut merged[*e.get()];
                m.rec.rows = match (m.rec.rows, r.rows) {
                    (Some(a), Some(b)) => {
                        Some((a * m.rec.calls + b * r.calls) / (m.rec.calls + r.calls))
                    }
                    (a, b) => a.or(b),
                };
                m.rec.calls += r.calls;
                m.dup += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(merged.len());
                merged.push(MergedRecord { rec: r, dup: 1 });
            }
        }
    }

    // Group membership: records sharing a `txn` label form one
    // transaction occurrence, in dump order; unlabeled records stand
    // alone. Each group member keeps its own calls.
    struct Member {
        calls: f64,
        /// Shapes of the record's DML statements, in order.
        shapes: Vec<usize>,
        line: u32,
        snippet: String,
        dup: usize,
    }
    let mut groups: Vec<(Option<String>, Vec<Member>)> = Vec::new();
    let mut group_index: HashMap<String, usize> = HashMap::new();

    for m in merged {
        let r = &m.rec;
        let snippet = snippet(&r.template);
        let mut text = r.template.trim().to_string();
        if text.is_empty() {
            let e = IngestError::Syntax {
                line: r.line,
                expected: "a SQL statement template".to_string(),
                found: "empty query text".to_string(),
            };
            if opts.strict {
                return Err(e);
            }
            miner
                .stats
                .skip_record(r.line, SkipReason::Unparsable, &snippet);
            continue;
        }
        if !text.ends_with(';') {
            text.push(';');
        }
        // The dump's counters are authoritative: drop any freq=/txn=
        // hints baked into the template text, and let a measured per-call
        // row count override a textual rows= hint. rows=/sel= hints
        // survive when the dump carries no measurement.
        let measured_rows = r.rows.map(|rows| format!("{rows}"));
        let raws = match crate::lexer::statements(&text) {
            Ok(raws) => raws,
            Err(e) if opts.strict => return Err(at_line(e, r.line)),
            Err(_) => {
                miner
                    .stats
                    .skip_record(r.line, SkipReason::Unparsable, &snippet);
                continue;
            }
        };
        let mut shapes = Vec::new();
        for mut raw in raws {
            raw.annotations.retain(|a| {
                !a.key.eq_ignore_ascii_case("freq") && !a.key.eq_ignore_ascii_case("txn")
            });
            if let Some(rows) = &measured_rows {
                raw.annotations
                    .retain(|a| !a.key.eq_ignore_ascii_case("rows"));
                raw.annotations.push(Annotation {
                    key: "rows",
                    value: rows,
                    line: raw.line,
                });
            }
            let shape = miner.shape(&raw).map_err(|e| at_line(e, r.line))?;
            match miner.kind(shape) {
                ShapeKind::Dml { .. } => shapes.push(shape),
                ShapeKind::Begin | ShapeKind::Commit | ShapeKind::Rollback => {
                    miner
                        .stats
                        .skip_record(r.line, SkipReason::TxnControl, &snippet);
                }
                ShapeKind::Skip(reason) => miner.stats.skip_record(r.line, reason, &snippet),
            }
        }
        if shapes.is_empty() {
            continue;
        }
        let member = Member {
            calls: r.calls,
            shapes,
            line: r.line,
            snippet,
            dup: m.dup,
        };
        match &r.group {
            Some(label) => match group_index.entry(label.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    groups[*e.get()].1.push(member);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push((Some(label.clone()), vec![member]));
                }
            },
            None => groups.push((None, vec![member])),
        }
    }

    // Each group becomes one occurrence: its weight is the largest member
    // count, and members execute `calls / weight` times per occurrence —
    // per-statement frequencies (`weight × mult`) stay exactly the
    // observed counts.
    let mut stmts: Vec<(usize, f64)> = Vec::new();
    for (name, members) in groups {
        let weight = members.iter().map(|m| m.calls).fold(f64::MIN, f64::max);
        stmts.clear();
        for member in members {
            miner.stats.statements_ingested += member.dup;
            let mult = member.calls / weight;
            for &shape in &member.shapes {
                miner.report_estimates(shape, member.line, || member.snippet.clone());
                if let ShapeKind::Dml { stmt, .. } = miner.kind(shape) {
                    merge_stmt(&mut stmts, stmt, mult);
                }
            }
        }
        miner.stats.txn_occurrences = miner
            .stats
            .txn_occurrences
            .saturating_add(weight.round() as usize);
        miner.add_occurrence(name.as_deref(), &stmts, weight);
    }

    if miner.is_empty() {
        return Err(if miner.stats.statements_seen == 0 {
            IngestError::EmptyStats
        } else {
            IngestError::NothingIngested {
                statements: miner.stats.statements_seen,
            }
        });
    }
    miner.build()
}

impl MinerStats {
    /// Records a skipped statistics record.
    fn skip_record(&mut self, line: u32, reason: SkipReason, snippet: &str) {
        self.skipped.push(Skipped {
            line,
            reason,
            snippet: snippet.to_string(),
        });
    }
}

/// Parses a `calls`-like numeric field: finite and non-negative.
pub(crate) fn parse_count(value: &str, column: &str, line: u32) -> Result<f64, IngestError> {
    match value.trim().parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(IngestError::StatsNumber {
            line,
            column: column.to_string(),
            value: value.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut b = Schema::builder();
        b.table("acct", &[("id", 4.0), ("owner", 16.0), ("bal", 8.0)])
            .unwrap();
        b.build().unwrap()
    }

    fn record(template: &str, calls: f64, rows: Option<f64>, group: Option<&str>) -> StatsRecord {
        StatsRecord {
            template: template.to_string(),
            calls,
            rows,
            group: group.map(str::to_string),
            line: 1,
        }
    }

    fn run(
        records: Vec<StatsRecord>,
        opts: &IngestOptions,
    ) -> Result<(Workload, MinerStats), IngestError> {
        let schema = schema();
        let batch = RecordBatch {
            rows_seen: records.len(),
            records,
            skipped: Vec::new(),
        };
        let ctx = FrontendCtx {
            schema: &schema,
            primary_keys: &[],
            opts,
        };
        assemble(batch, &ctx)
    }

    #[test]
    fn records_become_weighted_single_statement_txns() {
        let (w, stats) = run(
            vec![
                record("SELECT bal FROM acct WHERE id = $1", 120.0, Some(1.0), None),
                record(
                    "UPDATE acct SET bal = bal - $1 WHERE id = $2",
                    40.0,
                    None,
                    None,
                ),
            ],
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(w.n_txns(), 2);
        assert_eq!(w.query(vpart_model::QueryId(0)).frequency, 120.0);
        assert_eq!(stats.statements_ingested, 2);
        assert_eq!(stats.txn_occurrences, 160);
        // The measured per-call row count is authoritative → no estimate
        // entry for the select; the update still estimates.
        assert!(stats.row_estimates.iter().all(|e| e.table == "acct"));
        assert_eq!(stats.row_estimates.len(), 1);
    }

    #[test]
    fn duplicate_templates_merge_calls_and_average_rows() {
        let (w, stats) = run(
            vec![
                record("SELECT bal FROM acct WHERE id = $1", 10.0, Some(1.0), None),
                record("SELECT bal FROM acct WHERE id = $1", 30.0, Some(5.0), None),
            ],
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(w.n_txns(), 1);
        let q = w.query(vpart_model::QueryId(0));
        assert_eq!(q.frequency, 40.0);
        // 10×1 + 30×5 over 40 calls = 4 rows/call.
        assert_eq!(q.rows_for_table(vpart_model::TableId(0)), 4.0);
        assert_eq!(stats.statements_ingested, 2);
    }

    #[test]
    fn group_labels_form_multi_statement_transactions() {
        let (w, _) = run(
            vec![
                record(
                    "SELECT bal FROM acct WHERE id = $1",
                    8.0,
                    None,
                    Some("xfer"),
                ),
                record(
                    "UPDATE acct SET bal = bal - $1 WHERE id = $2",
                    8.0,
                    None,
                    Some("xfer"),
                ),
            ],
            &IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(w.n_txns(), 1);
        let t = w.txn_by_name("xfer").expect("named by group label");
        // select + update(read+write) = 3 modeled queries.
        assert_eq!(w.txn(t).queries.len(), 3);
        for &q in &w.txn(t).queries {
            assert_eq!(w.query(q).frequency, 8.0);
        }
    }

    #[test]
    fn sampling_scales_frequencies_and_flags_rare_templates() {
        let opts = IngestOptions::default().with_sample_rate(0.1);
        let (w, stats) = run(
            vec![
                record("SELECT bal FROM acct WHERE id = $1", 50.0, None, None),
                record("DELETE FROM acct WHERE id = $1", 2.0, None, None),
            ],
            &opts,
        )
        .unwrap();
        assert_eq!(w.query(vpart_model::QueryId(0)).frequency, 500.0);
        assert_eq!(stats.confidence.len(), 2);
        assert_eq!(stats.confidence[0].level, ConfidenceLevel::Ok);
        assert_eq!(stats.confidence[0].observed, 50.0);
        assert_eq!(stats.confidence[0].scaled, 500.0);
        assert_eq!(stats.confidence[1].level, ConfidenceLevel::LowConfidence);
    }

    #[test]
    fn rare_member_of_a_hot_group_is_still_low_confidence() {
        // The group executes 1000 times, but its UPDATE was observed
        // twice: the scaled UPDATE frequency rests on 2 observations, so
        // the template is flagged regardless of the group total.
        let opts = IngestOptions::default().with_sample_rate(0.1);
        let (_, stats) = run(
            vec![
                record(
                    "SELECT bal FROM acct WHERE id = $1",
                    1000.0,
                    None,
                    Some("hot"),
                ),
                record(
                    "UPDATE acct SET bal = $1 WHERE id = $2",
                    2.0,
                    None,
                    Some("hot"),
                ),
            ],
            &opts,
        )
        .unwrap();
        assert_eq!(stats.confidence.len(), 1);
        assert_eq!(stats.confidence[0].observed, 1000.0);
        assert_eq!(
            stats.confidence[0].level,
            ConfidenceLevel::LowConfidence,
            "weakest member drives the flag"
        );
    }

    #[test]
    fn txn_control_and_unparsable_templates_are_skipped_leniently() {
        let opts = IngestOptions::default().lenient();
        let (w, stats) = run(
            vec![
                record("BEGIN", 100.0, None, None),
                record("SELECT bal FROM acct WHERE id = $1", 10.0, None, None),
                record("SELECT oops syntax ...", 5.0, None, None),
            ],
            &opts,
        )
        .unwrap();
        assert_eq!(w.n_txns(), 1);
        assert_eq!(stats.skipped.len(), 2);
        assert_eq!(stats.skipped[0].reason, SkipReason::TxnControl);
        assert_eq!(stats.skipped[1].reason, SkipReason::Unparsable);
    }

    #[test]
    fn strict_mode_propagates_template_errors_with_dump_lines() {
        let mut rec = record("SELECT nope FROM acct", 3.0, None, None);
        rec.line = 42;
        let err = run(vec![rec], &IngestOptions::default()).unwrap_err();
        assert_eq!(
            err,
            IngestError::UnknownColumn {
                table: "acct".into(),
                column: "nope".into(),
                line: 42
            }
        );
    }
}
