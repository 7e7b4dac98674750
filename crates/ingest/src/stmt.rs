//! Single-statement DML parsing: per-table column extraction.
//!
//! The extraction rules mirror how `vpart_instances::tpcc` models TPC-C by
//! hand (selection predicates count as attribute accesses, UPDATEs carry
//! both the referenced and the written sets so the miner can split them):
//!
//! * `SELECT` — one read access per touched table over select-list ∪
//!   `ON`/`WHERE`/`GROUP BY`/`ORDER BY` columns; `*` means every column of
//!   every table in scope, `t.*` every column of `t`.
//! * `INSERT` — write over the listed columns (all columns without a
//!   list); the number of `VALUES` tuples becomes the row count. The
//!   `INSERT ... SELECT` form adds one read access per source table.
//! * `UPDATE` — written set = `SET` targets; referenced set = `SET`
//!   right-hand-side columns ∪ `WHERE` columns.
//! * `DELETE` — write over the `WHERE` columns (whole table without a
//!   predicate). Row removal touches whole rows, but under the paper's
//!   all-attributes write accounting the β-terms already charge every
//!   replicated attribute of the table, so the predicate set is the
//!   faithful α.
//!
//! Multi-table statements — `JOIN ... ON`, comma joins, `IN (SELECT ...)`
//! and other parenthesized subqueries, `INSERT ... SELECT` — are
//! *flattened*: each touched table yields its own access, exactly like the
//! hand-built TPC-C model expresses New-Order's item/stock reads. Column
//! references resolve against every table in scope (inner scope first for
//! subqueries); unqualified names that several in-scope tables could bind
//! are an [`IngestError::AmbiguousColumn`].
//!
//! Per-table row counts come from, in priority order: a `rows=`
//! annotation; an equality binding of the table's full `PRIMARY KEY`
//! (→ 1 row); otherwise the `default_rows` fallback scaled by the `sel=`
//! annotation, recorded for the ingest report. The caller decides (strict
//! vs lenient) whether unknown tables/columns abort ingestion or skip the
//! statement.

use crate::error::IngestError;
use crate::lexer::{Statement, Tok, Token};
use crate::report::SkipReason;
use std::collections::{BTreeMap, BTreeSet};
use vpart_model::{AttrId, Schema, TableId};

/// Non-column identifiers that may appear inside expressions and clause
/// tails (checked uppercased; must stay sorted for the binary search).
const KEYWORDS: &[&str] = &[
    "ALL",
    "AND",
    "ANY",
    "AS",
    "ASC",
    "BETWEEN",
    "BY",
    "CASE",
    "CAST",
    "CROSS",
    "CURRENT_DATE",
    "CURRENT_TIME",
    "CURRENT_TIMESTAMP",
    "DESC",
    "DISTINCT",
    "ELSE",
    "END",
    "ESCAPE",
    "EXISTS",
    "FALSE",
    "FOR",
    "FULL",
    "GROUP",
    "HAVING",
    "ILIKE",
    "IN",
    "INNER",
    "INTERVAL",
    "IS",
    "JOIN",
    "LEFT",
    "LIKE",
    "LIMIT",
    "NATURAL",
    "NOT",
    "NULL",
    "OF",
    "OFFSET",
    "ON",
    "OR",
    "ORDER",
    "OUTER",
    "RIGHT",
    "SELECT",
    "SET",
    "SOME",
    "THEN",
    "TRUE",
    "UNION",
    "UPDATE",
    "USING",
    "VALUES",
    "WHEN",
    "WHERE",
];

/// Keywords that terminate an `ON` join condition at depth 0.
const ON_END: &[&str] = &[
    "CROSS", "FOR", "FULL", "GROUP", "HAVING", "INNER", "JOIN", "LEFT", "LIMIT", "NATURAL",
    "OFFSET", "ORDER", "RIGHT", "UNION", "USING", "WHERE",
];

/// Keywords that terminate the `WHERE` predicate region at depth 0.
const WHERE_END: &[&str] = &[
    "FOR", "GROUP", "HAVING", "LIMIT", "OFFSET", "ORDER", "UNION",
];

/// What kind of DML a parsed statement is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmtKind {
    /// `SELECT` — a read query.
    Select,
    /// `INSERT` — a write query (plus reads for `INSERT ... SELECT`).
    Insert,
    /// `UPDATE` — split into read + write sub-queries by the miner.
    Update,
    /// `DELETE` — a write query.
    Delete,
}

impl StmtKind {
    /// Lowercase verb for query naming.
    pub fn verb(self) -> &'static str {
        match self {
            StmtKind::Select => "select",
            StmtKind::Insert => "insert",
            StmtKind::Update => "update",
            StmtKind::Delete => "delete",
        }
    }
}

/// How a per-table row count was determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBasis {
    /// Explicit `rows=` annotation.
    Annotated,
    /// Counted from the statement itself (`VALUES` tuple count).
    Exact,
    /// All primary-key columns equality-bound to constants → 1 row.
    PkEquality,
    /// Fallback: `default_rows` × `sel=` — a guess worth reporting.
    Default,
}

/// One table's share of a parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAccess {
    /// The accessed table.
    pub table: TableId,
    /// Referenced (read) attributes, sorted and deduplicated.
    pub read: Vec<AttrId>,
    /// Written attributes, sorted and deduplicated.
    pub write: Vec<AttrId>,
    /// Average rows accessed per execution in this table (`n_{a,q}`).
    pub rows: f64,
    /// How `rows` was determined (drives the ingest-report diagnostics).
    pub basis: RowBasis,
}

/// A successfully parsed DML statement, flattened per table.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedDml {
    /// Statement kind.
    pub kind: StmtKind,
    /// Per-table accesses in first-touch order; the write target (if any)
    /// comes first. Never empty.
    pub accesses: Vec<TableAccess>,
    /// Frequency weight of one log occurrence (`freq=` annotation, else 1).
    pub freq: f64,
}

/// Outcome of parsing one raw statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// A DML statement contributing workload.
    Dml(ParsedDml),
    /// `BEGIN` / `START TRANSACTION`.
    Begin,
    /// `COMMIT` / `END`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
    /// Skipped with a reason (always returned in lenient mode; in strict
    /// mode only for reasons that are not schema/log mismatches).
    Skip(SkipReason),
}

/// Schema-side context for statement parsing.
#[derive(Debug, Clone, Copy)]
pub struct StmtCtx<'a> {
    /// The schema statements resolve against.
    pub schema: &'a Schema,
    /// Per-table primary-key attribute sets (empty slice / empty entries
    /// when the DDL declared none).
    pub pks: &'a [Vec<AttrId>],
    /// Strict (error) vs lenient (skip) handling of unknown references.
    pub strict: bool,
    /// Row-count fallback when neither `rows=` nor a PK equality applies.
    pub default_rows: f64,
}

impl<'a> StmtCtx<'a> {
    /// Primary key of `t`, if one was declared.
    fn pk(&self, t: TableId) -> &[AttrId] {
        self.pks.get(t.index()).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Parses one statement against the schema in `ctx`.
pub fn parse_statement(stmt: &Statement, ctx: &StmtCtx) -> Result<Parsed, IngestError> {
    let head = match stmt.head() {
        Some(h) => h,
        None => return Ok(Parsed::Skip(SkipReason::NotADmlStatement)),
    };
    let result = match head.as_str() {
        "BEGIN" | "START" => return Ok(Parsed::Begin),
        "COMMIT" | "END" => return Ok(Parsed::Commit),
        "ROLLBACK" => return Ok(Parsed::Rollback),
        "SELECT" => parse_select(stmt, ctx),
        "INSERT" => parse_insert(stmt, ctx),
        "UPDATE" => parse_update(stmt, ctx),
        "DELETE" => parse_delete(stmt, ctx),
        _ => return Ok(Parsed::Skip(SkipReason::NotADmlStatement)),
    };
    match result {
        Ok(parsed) => Ok(parsed),
        // Set operations (UNION, ...) cannot be flattened per table; they
        // are skipped in both modes.
        Err(IngestError::Unflattenable { .. }) => Ok(Parsed::Skip(SkipReason::Subquery)),
        Err(e) if ctx.strict => Err(e),
        Err(
            IngestError::UnknownTable { .. }
            | IngestError::UnknownColumn { .. }
            | IngestError::AmbiguousColumn { .. },
        ) => Ok(Parsed::Skip(SkipReason::UnknownReference)),
        Err(IngestError::Syntax { .. }) => Ok(Parsed::Skip(SkipReason::Unparsable)),
        Err(e) => Err(e),
    }
}

/// The `rows=` / `freq=` / `sel=` annotations of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StmtStats {
    /// `rows=N`: average rows per execution, applied to every table.
    pub rows: Option<f64>,
    /// `freq=N`: execution weight (`None` when not annotated).
    pub freq: Option<f64>,
    /// `sel=F`: scale factor for estimated (non-annotated, non-PK-bound)
    /// per-table row counts — join selectivity / fan-out.
    pub sel: Option<f64>,
}

/// Reads the statistics annotations of a statement.
pub fn statement_stats(stmt: &Statement) -> Result<StmtStats, IngestError> {
    let parse_pos = |key: &str| -> Result<Option<f64>, IngestError> {
        match stmt.annotation(key) {
            None => Ok(None),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x > 0.0 && x.is_finite() => Ok(Some(x)),
                _ => Err(IngestError::Syntax {
                    line: stmt.line,
                    expected: format!("a positive number in the {key}= annotation"),
                    found: format!("{v:?}"),
                }),
            },
        }
    };
    Ok(StmtStats {
        rows: parse_pos("rows")?,
        freq: parse_pos("freq")?,
        sel: parse_pos("sel")?,
    })
}

/// Writes the *shape key* of `stmt` into `key`: everything
/// [`parse_statement`] reads of a statement, so two statements with equal
/// keys parse to equal outcomes.
///
/// The key holds the token sequence — token kinds, identifier spellings
/// and punctuation — with literal values erased but their kind kept
/// (number, string, parameter), followed by the values of the `rows=`,
/// `sel=` and `freq=` annotations. Literal values may be erased because
/// the parser only asks *whether* a token is a constant (to bind a key
/// column), never what it is; line numbers and other annotations
/// (`txn=`) are left out because only diagnostics and the log miner read
/// them, per occurrence. Error messages do quote literals and lines, but
/// a statement that fails fails on its shape's first occurrence, which is
/// parsed in full.
///
/// The encoding is injective: every token starts with a kind byte,
/// identifiers and annotation values end in `0xFF` (a byte UTF-8 text
/// never contains), and punctuation is one UTF-8 character.
pub(crate) fn shape_key(stmt: &Statement<'_>, key: &mut Vec<u8>) {
    const END: u8 = 0xFF;
    key.clear();
    for t in &stmt.tokens {
        match t.tok {
            Tok::Ident(s) => {
                key.push(b'i');
                key.extend_from_slice(s.as_bytes());
                key.push(END);
            }
            Tok::Number(_) => key.push(b'n'),
            Tok::Str(_) => key.push(b's'),
            Tok::Param => key.push(b'p'),
            Tok::Punct(c) => {
                key.push(b'c');
                key.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
            }
        }
    }
    for name in ["rows", "sel", "freq"] {
        match stmt.annotation(name) {
            None => key.push(b'-'),
            Some(value) => {
                key.push(b'=');
                key.extend_from_slice(value.as_bytes());
                key.push(END);
            }
        }
    }
}

// ---------------------------------------------------------------- helpers

fn find_table(schema: &Schema, name: &str, line: u32) -> Result<TableId, IngestError> {
    schema
        .tables()
        .iter()
        .position(|t| t.name.eq_ignore_ascii_case(name))
        .map(TableId::from_index)
        .ok_or_else(|| IngestError::UnknownTable {
            name: name.to_string(),
            line,
        })
}

fn find_attr(
    schema: &Schema,
    table: TableId,
    name: &str,
    line: u32,
) -> Result<AttrId, IngestError> {
    table_attr(schema, table, name).ok_or_else(|| IngestError::UnknownColumn {
        table: schema.tables()[table.index()].name.clone(),
        column: name.to_string(),
        line,
    })
}

/// `table`'s attribute named `name`, if any.
pub(crate) fn table_attr(schema: &Schema, table: TableId, name: &str) -> Option<AttrId> {
    schema
        .table_attrs(table)
        .find(|&a| schema.attrs()[a].name.eq_ignore_ascii_case(name))
        .map(AttrId::from_index)
}

fn all_attrs(schema: &Schema, table: TableId) -> Vec<AttrId> {
    schema.table_attrs(table).map(AttrId::from_index).collect()
}

/// Normalizes a collected attribute set: a whole-row (`*`) reference
/// expands to every column, everything else is sorted and deduplicated.
fn finish_attrs(
    mut attrs: Vec<AttrId>,
    star: bool,
    schema: &Schema,
    table: TableId,
) -> Vec<AttrId> {
    if star {
        return all_attrs(schema, table);
    }
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

fn is_keyword(word: &str) -> bool {
    KEYWORDS
        .binary_search(&word.to_ascii_uppercase().as_str())
        .is_ok()
}

fn is_kw_of(t: &Token, set: &[&str]) -> bool {
    matches!(&t.tok, Tok::Ident(s) if set.binary_search(&s.to_ascii_uppercase().as_str()).is_ok())
}

/// True for tokens a column can be equality-bound to (constants).
fn is_literal(t: Option<&Token>) -> bool {
    matches!(
        t.map(|t| &t.tok),
        Some(Tok::Number(_) | Tok::Str(_) | Tok::Param)
    )
}

/// Index of the first depth-0 occurrence of keyword `kw` in `toks`.
fn find_kw(toks: &[Token], kw: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth = depth.saturating_sub(1),
            tok if depth == 0 && tok.is_kw(kw) => return Some(i),
            _ => {}
        }
    }
    None
}

fn syntax_at(toks: &[Token], i: usize, fallback_line: u32, expected: &str) -> IngestError {
    let (line, found) = match toks.get(i) {
        Some(t) => (t.line, format!("{:?}", t.tok)),
        None => (fallback_line, "end of statement".to_string()),
    };
    IngestError::Syntax {
        line,
        expected: expected.to_string(),
        found,
    }
}

fn syntax(stmt: &Statement, i: usize, expected: &str) -> IngestError {
    syntax_at(&stmt.tokens, i, stmt.line, expected)
}

/// A table bound in a statement plus how the statement refers to it.
#[derive(Debug, Clone)]
struct TableRef {
    table: TableId,
    /// Alias bound in the statement (`FROM customer c` / `... AS c`), if any.
    alias: Option<String>,
    /// Token index just past the table reference (incl. any alias).
    end: usize,
}

impl TableRef {
    /// True if `name` refers to this table (by name or alias).
    fn matches(&self, schema: &Schema, name: &str) -> bool {
        schema.tables()[self.table.index()]
            .name
            .eq_ignore_ascii_case(name)
            || self
                .alias
                .as_deref()
                .is_some_and(|a| a.eq_ignore_ascii_case(name))
    }
}

/// Parses a table reference at `toks[i]`:
/// `[schema_qualifier .] name [[AS] alias]`.
fn parse_table_ref(
    toks: &[Token],
    i: usize,
    schema: &Schema,
    fallback_line: u32,
) -> Result<TableRef, IngestError> {
    let Some(Tok::Ident(first)) = toks.get(i).map(|t| &t.tok) else {
        return Err(syntax_at(toks, i, fallback_line, "a table name"));
    };
    let (name, mut j) = if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('.'))) {
        // `schema.table`: the qualifier is ignored (single-namespace model).
        match toks.get(i + 2).map(|t| &t.tok) {
            Some(Tok::Ident(n)) => (n, i + 3),
            _ => {
                return Err(syntax_at(
                    toks,
                    i + 2,
                    fallback_line,
                    "a table name after the schema qualifier",
                ))
            }
        }
    } else {
        (first, i + 1)
    };
    let table = find_table(schema, name, toks[i].line)?;
    let mut alias = None;
    if toks.get(j).is_some_and(|t| t.tok.is_kw("AS")) {
        match toks.get(j + 1).map(|t| &t.tok) {
            Some(Tok::Ident(a)) => {
                alias = Some(a.to_string());
                j += 2;
            }
            _ => return Err(syntax_at(toks, j + 1, fallback_line, "an alias after AS")),
        }
    } else if let Some(Tok::Ident(a)) = toks.get(j).map(|t| &t.tok) {
        // Bare alias — anything that is not a clause keyword.
        if !is_keyword(a) {
            alias = Some(a.to_string());
            j += 1;
        }
    }
    Ok(TableRef {
        table,
        alias,
        end: j,
    })
}

// -------------------------------------------------------- access collection

/// Accumulates per-table column references across a whole statement.
#[derive(Debug, Default)]
struct Accesses {
    /// Tables in first-touch order.
    order: Vec<TableId>,
    /// Read attributes per table.
    read: BTreeMap<TableId, Vec<AttrId>>,
    /// Tables with a whole-row (`*`) read.
    star: BTreeSet<TableId>,
    /// Equality-bound (to a constant) columns per table.
    bound: BTreeMap<TableId, Vec<AttrId>>,
}

impl Accesses {
    fn touch(&mut self, t: TableId) {
        if !self.order.contains(&t) {
            self.order.push(t);
        }
    }

    fn add_read(&mut self, t: TableId, a: AttrId) {
        self.touch(t);
        self.read.entry(t).or_default().push(a);
    }

    fn add_star(&mut self, t: TableId) {
        self.touch(t);
        self.star.insert(t);
    }

    fn add_bound(&mut self, t: TableId, a: AttrId) {
        self.bound.entry(t).or_default().push(a);
    }
}

/// Resolves a possibly-qualified column against a scope chain (innermost
/// first). Returns the owning table and attribute.
fn resolve_column(
    schema: &Schema,
    scopes: &[&[TableRef]],
    qualifier: Option<&str>,
    name: &str,
    line: u32,
) -> Result<(TableId, AttrId), IngestError> {
    if let Some(q) = qualifier {
        for level in scopes {
            if let Some(r) = level.iter().find(|r| r.matches(schema, q)) {
                return Ok((r.table, find_attr(schema, r.table, name, line)?));
            }
        }
        return Err(IngestError::UnknownColumn {
            table: q.to_string(),
            column: name.to_string(),
            line,
        });
    }
    for level in scopes {
        let mut hits: Vec<(TableId, AttrId)> = Vec::new();
        for r in level.iter() {
            if hits.iter().any(|&(t, _)| t == r.table) {
                continue;
            }
            if let Some(a) = table_attr(schema, r.table, name) {
                hits.push((r.table, a));
            }
        }
        match hits.len() {
            0 => continue,
            1 => return Ok(hits[0]),
            _ => {
                return Err(IngestError::AmbiguousColumn {
                    column: name.to_string(),
                    tables: hits
                        .iter()
                        .map(|&(t, _)| schema.tables()[t.index()].name.clone())
                        .collect(),
                    line,
                })
            }
        }
    }
    let in_scope = scopes
        .first()
        .map(|level| {
            level
                .iter()
                .map(|r| schema.tables()[r.table.index()].name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        })
        .unwrap_or_default();
    Err(IngestError::UnknownColumn {
        table: in_scope,
        column: name.to_string(),
        line,
    })
}

/// Scans an expression region for column references, adding them as reads.
///
/// Identifiers directly followed by `(` are function names; `qualifier.col`
/// references must name an in-scope table (or its alias); the identifier
/// after an `AS` is an output alias, not a column; a bare `*` marks a
/// whole-row reference on every table of the innermost scope (also matched
/// by multiplication, which makes the extraction an over-approximation —
/// documented in the crate docs). With `binding`, `col = <constant>`
/// patterns record equality bindings for PK row inference; an `OR` (or a
/// predicate-negating `NOT`) anywhere in the region voids the region's
/// bindings — a disjunction or negation no longer pins a unique row.
/// Operator forms of `NOT` (`IS NOT NULL`, `NOT IN`, ...) do not void.
fn scan_region(
    toks: &[Token],
    schema: &Schema,
    scopes: &[&[TableRef]],
    acc: &mut Accesses,
    binding: bool,
) -> Result<(), IngestError> {
    let mut i = 0usize;
    let mut after_as = false;
    let mut bound: Vec<(TableId, AttrId)> = Vec::new();
    let mut or_seen = false;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('*') => {
                if let Some(level) = scopes.first() {
                    for r in level.iter() {
                        acc.add_star(r.table);
                    }
                }
                i += 1;
            }
            Tok::Ident(name) => {
                if after_as {
                    // Output alias (`expr AS name`): not a column.
                    after_as = false;
                    i += 1;
                    continue;
                }
                let next = toks.get(i + 1).map(|t| &t.tok);
                if matches!(next, Some(Tok::Punct('('))) {
                    // Function name; its arguments are scanned as we go.
                    i += 1;
                } else if matches!(next, Some(Tok::Punct('.'))) {
                    let start = i;
                    match toks.get(i + 2).map(|t| &t.tok) {
                        Some(Tok::Ident(col)) => {
                            let (t, a) =
                                resolve_column(schema, scopes, Some(name), col, toks[i].line)?;
                            acc.add_read(t, a);
                            if binding && bound_at(toks, start, i + 3) {
                                bound.push((t, a));
                            }
                        }
                        Some(Tok::Punct('*')) => {
                            let q = name.to_string();
                            let r = scopes
                                .iter()
                                .find_map(|level| {
                                    level
                                        .iter()
                                        .find(|r| r.matches(schema, &q))
                                        .map(|r| r.table)
                                })
                                .ok_or_else(|| IngestError::UnknownColumn {
                                    table: q,
                                    column: "*".to_string(),
                                    line: toks[i].line,
                                })?;
                            acc.add_star(r);
                        }
                        _ => {}
                    }
                    i += 3;
                } else if is_keyword(name) {
                    after_as = name.eq_ignore_ascii_case("AS");
                    // OR makes equality bindings non-unique (disjunction);
                    // so does a NOT that negates a predicate (`NOT col =`,
                    // `NOT (...)`) — but the non-negating operator forms
                    // (`IS NOT NULL`, `NOT IN`, `NOT LIKE`, ...) leave
                    // sibling conjuncts' bindings intact.
                    let negates_a_predicate = name.eq_ignore_ascii_case("NOT")
                        && match toks.get(i + 1).map(|t| &t.tok) {
                            Some(Tok::Punct('(')) => true,
                            Some(Tok::Ident(next)) => !matches!(
                                next.to_ascii_uppercase().as_str(),
                                "IN" | "LIKE" | "ILIKE" | "BETWEEN" | "EXISTS" | "NULL" | "SIMILAR"
                            ),
                            _ => false,
                        };
                    or_seen |= name.eq_ignore_ascii_case("OR") || negates_a_predicate;
                    i += 1;
                } else {
                    let (t, a) = resolve_column(schema, scopes, None, name, toks[i].line)?;
                    acc.add_read(t, a);
                    if binding && bound_at(toks, i, i + 1) {
                        bound.push((t, a));
                    }
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    if binding && !or_seen {
        for (t, a) in bound {
            acc.add_bound(t, a);
        }
    }
    Ok(())
}

/// True when the column reference spanning `toks[start..end)` is equality-
/// compared to a constant (`col = 7`, `? = t.col`, ...).
///
/// Both the column and the constant must be standalone operands: an
/// adjacent arithmetic operator (`bal + id = 7`, `id = 7 + bal`) means the
/// equality constrains an expression, not the column, and cannot pin a
/// key lookup to one row.
fn bound_at(toks: &[Token], start: usize, end: usize) -> bool {
    let eq = |t: Option<&Token>| matches!(t.map(|t| &t.tok), Some(Tok::Punct('=')));
    let op = |t: Option<&Token>| {
        matches!(
            t.map(|t| &t.tok),
            Some(Tok::Punct(
                '+' | '-' | '*' | '/' | '%' | '|' | '&' | '^' | '<' | '>' | '!'
            ))
        )
    };
    let before = |i: usize| i.checked_sub(1).and_then(|j| toks.get(j));
    // `col = <constant>`
    if eq(toks.get(end))
        && is_literal(toks.get(end + 1))
        && !op(before(start))
        && !op(toks.get(end + 2))
    {
        return true;
    }
    // `<constant> = col`
    start >= 2
        && eq(toks.get(start - 1))
        && is_literal(toks.get(start - 2))
        && !op(before(start - 2))
        && !op(toks.get(end))
}

/// Finds every top-level parenthesized subquery `( SELECT ... )` in `toks`
/// and returns the inclusive `(`..`)` index ranges.
fn subquery_ranges(toks: &[Token], fallback_line: u32) -> Result<Vec<(usize, usize)>, IngestError> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if matches!(toks[i].tok, Tok::Punct('('))
            && toks.get(i + 1).is_some_and(|t| t.tok.is_kw("SELECT"))
        {
            let mut depth = 0usize;
            let mut close = None;
            for (j, t) in toks.iter().enumerate().skip(i) {
                match t.tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let Some(close) = close else {
                return Err(syntax_at(
                    toks,
                    toks.len(),
                    fallback_line,
                    "a `)` closing the subquery",
                ));
            };
            ranges.push((i, close));
            i = close + 1;
        } else {
            i += 1;
        }
    }
    Ok(ranges)
}

/// `toks` minus the given inclusive index ranges.
fn strip_ranges<'a>(toks: &[Token<'a>], ranges: &[(usize, usize)]) -> Vec<Token<'a>> {
    toks.iter()
        .enumerate()
        .filter(|(i, _)| !ranges.iter().any(|&(s, e)| *i >= s && *i <= e))
        .map(|(_, t)| *t)
        .collect()
}

/// Parses the `FROM` table list starting at `toks[i]`: comma joins and the
/// `JOIN ... ON expr` / `USING (cols)` family. Returns the bound refs, the
/// `ON` predicate regions (index ranges into `toks`), the `USING` column
/// name tokens, and the index where the clause tail (`WHERE ...`) starts.
#[allow(clippy::type_complexity)]
fn parse_table_list(
    toks: &[Token],
    mut i: usize,
    schema: &Schema,
    fallback_line: u32,
) -> Result<(Vec<TableRef>, Vec<(usize, usize)>, Vec<usize>, usize), IngestError> {
    let mut refs = Vec::new();
    let mut on_regions = Vec::new();
    let mut using_cols = Vec::new();
    'tables: loop {
        let r = parse_table_ref(toks, i, schema, fallback_line)?;
        i = r.end;
        refs.push(r);
        loop {
            match toks.get(i) {
                Some(t) if matches!(t.tok, Tok::Punct(',')) => {
                    i += 1;
                    continue 'tables;
                }
                Some(t) if t.tok.is_kw("JOIN") => {
                    i += 1;
                    continue 'tables;
                }
                Some(t)
                    if is_kw_of(
                        t,
                        &[
                            "CROSS", "FULL", "INNER", "LEFT", "NATURAL", "OUTER", "RIGHT",
                        ],
                    ) =>
                {
                    i += 1; // join-type noise before JOIN
                }
                Some(t) if t.tok.is_kw("ON") => {
                    let start = i + 1;
                    let mut j = start;
                    let mut depth = 0usize;
                    while let Some(t) = toks.get(j) {
                        match &t.tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => depth = depth.saturating_sub(1),
                            Tok::Punct(',') if depth == 0 => break,
                            _ if depth == 0 && is_kw_of(t, ON_END) => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    on_regions.push((start, j));
                    i = j;
                }
                Some(t) if t.tok.is_kw("USING") => {
                    if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                        return Err(syntax_at(toks, i + 1, fallback_line, "`(` after USING"));
                    }
                    let mut j = i + 2;
                    let mut closed = false;
                    while let Some(t) = toks.get(j) {
                        match &t.tok {
                            Tok::Punct(')') => {
                                closed = true;
                                break;
                            }
                            Tok::Ident(_) => using_cols.push(j),
                            _ => {}
                        }
                        j += 1;
                    }
                    if !closed {
                        return Err(syntax_at(
                            toks,
                            toks.len(),
                            fallback_line,
                            "a `)` closing the USING column list",
                        ));
                    }
                    i = j + 1;
                }
                _ => break 'tables,
            }
        }
    }
    Ok((refs, on_regions, using_cols, i))
}

/// Parses a `SELECT` token region (head `SELECT` at `toks[0]`) into `acc`,
/// recursing into parenthesized subqueries. `outer` is the enclosing scope
/// chain for correlated references.
fn parse_select_scope(
    toks: &[Token],
    outer: &[&[TableRef]],
    ctx: &StmtCtx,
    acc: &mut Accesses,
    fallback_line: u32,
) -> Result<(), IngestError> {
    let ranges = subquery_ranges(&toks[1..], fallback_line)?
        .into_iter()
        .map(|(s, e)| (s + 1, e + 1))
        .collect::<Vec<_>>();
    // Derived tables (`FROM (SELECT ...) alias`) have no flattenable
    // per-table shape — after stripping, only the alias would remain and
    // misparse as an unknown table.
    if let Some(from) = find_kw(toks, "FROM") {
        for &(s, _) in &ranges {
            let derived = match toks.get(s.wrapping_sub(1)).map(|t| &t.tok) {
                Some(t) if t.is_kw("FROM") || t.is_kw("JOIN") => true,
                // A comma continues the table list only while still inside
                // the FROM clause; after a depth-0 WHERE/GROUP BY/ORDER BY
                // it separates expressions (e.g. scalar subqueries), not
                // tables. Depth-0 only: clause keywords inside predicate
                // subqueries or function calls do not end the FROM list.
                Some(Tok::Punct(',')) => {
                    let mut in_from_list = s > from;
                    let mut depth = 0usize;
                    for t in &toks[from..s.max(from)] {
                        match &t.tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => depth = depth.saturating_sub(1),
                            _ if depth == 0
                                && is_kw_of(
                                    t,
                                    &[
                                        "FOR", "GROUP", "HAVING", "LIMIT", "OFFSET", "ORDER",
                                        "UNION", "WHERE",
                                    ],
                                ) =>
                            {
                                in_from_list = false;
                                break;
                            }
                            _ => {}
                        }
                    }
                    in_from_list
                }
                _ => false,
            };
            if derived {
                return Err(IngestError::Unflattenable {
                    line: fallback_line,
                });
            }
        }
    }
    let outer_toks = strip_ranges(toks, &ranges);
    if outer_toks.iter().skip(1).any(|t| t.tok.is_kw("SELECT")) {
        // A non-parenthesized second SELECT (UNION etc.) — unsupported.
        return Err(IngestError::Unflattenable {
            line: fallback_line,
        });
    }

    // Subqueries without FROM (`SELECT 1`, correlated scalars) are legal;
    // top-level SELECTs without FROM are caught by the caller.
    let (refs, on_regions, using_cols, select_end, tail_start) = match find_kw(&outer_toks, "FROM")
    {
        Some(from) => {
            let (refs, on, using, tail) =
                parse_table_list(&outer_toks, from + 1, ctx.schema, fallback_line)?;
            (refs, on, using, from, tail)
        }
        None => {
            let one = outer_toks.len().min(1);
            (Vec::new(), Vec::new(), Vec::new(), one, one)
        }
    };
    let chain: Vec<&[TableRef]> = std::iter::once(refs.as_slice())
        .chain(outer.iter().copied())
        .collect();
    // Select list.
    scan_region(&outer_toks[1..select_end], ctx.schema, &chain, acc, false)?;
    for &(s, e) in &on_regions {
        scan_region(&outer_toks[s..e], ctx.schema, &chain, acc, true)?;
    }
    for &j in &using_cols {
        // USING columns exist in (at least) both joined tables; add the
        // read to every in-scope table that has the column.
        let Tok::Ident(name) = &outer_toks[j].tok else {
            continue;
        };
        let mut any = false;
        for r in &refs {
            if let Some(a) = table_attr(ctx.schema, r.table, name) {
                acc.add_read(r.table, a);
                any = true;
            }
        }
        if !any {
            return Err(IngestError::UnknownColumn {
                table: refs
                    .iter()
                    .map(|r| ctx.schema.tables()[r.table.index()].name.clone())
                    .collect::<Vec<_>>()
                    .join(", "),
                column: name.to_string(),
                line: outer_toks[j].line,
            });
        }
    }
    scan_tail(&outer_toks, tail_start, ctx.schema, &chain, acc)?;
    // A self-join references the same table through two aliases: an
    // equality binding through one alias does not pin the rows scanned
    // through the other, so its bindings cannot prove rows = 1.
    let mut seen_tables: Vec<TableId> = Vec::new();
    for r in &refs {
        if seen_tables.contains(&r.table) {
            acc.bound.remove(&r.table);
        } else {
            seen_tables.push(r.table);
        }
    }

    // Recurse into the subqueries with this scope prepended. Each runs
    // against its own accumulator so `merge` can tell which equality
    // bindings belong to which scope.
    for (s, e) in ranges {
        let mut sub = Accesses::default();
        parse_select_scope(&toks[s + 1..e], &chain, ctx, &mut sub, fallback_line)?;
        merge(acc, sub);
    }
    Ok(())
}

/// Scans a clause tail: the `WHERE` region binds (for PK inference), the
/// rest (`GROUP BY` / `ORDER BY` / ...) only reads.
fn scan_tail(
    toks: &[Token],
    tail_start: usize,
    schema: &Schema,
    scopes: &[&[TableRef]],
    acc: &mut Accesses,
) -> Result<(), IngestError> {
    let tail = &toks[tail_start..];
    match find_kw(tail, "WHERE") {
        Some(w) => {
            let rest = &tail[w + 1..];
            // Depth-0 only: a FOR/ORDER/... inside a function call does
            // not end the predicate region.
            let mut end = rest.len();
            let mut depth = 0usize;
            for (j, t) in rest.iter().enumerate() {
                match &t.tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth = depth.saturating_sub(1),
                    _ if depth == 0 && is_kw_of(t, WHERE_END) => {
                        end = j;
                        break;
                    }
                    _ => {}
                }
            }
            scan_region(&tail[..w], schema, scopes, acc, false)?;
            scan_region(&rest[..end], schema, scopes, acc, true)?;
            scan_region(&rest[end..], schema, scopes, acc, false)
        }
        None => scan_region(tail, schema, scopes, acc, false),
    }
}

// ------------------------------------------------------------- row counts

/// Determines the row count for one table's access.
fn rows_for(table: TableId, acc: &Accesses, stats: &StmtStats, ctx: &StmtCtx) -> (f64, RowBasis) {
    if let Some(r) = stats.rows {
        return (r, RowBasis::Annotated);
    }
    let pk = ctx.pk(table);
    if !pk.is_empty() {
        let bound = acc.bound.get(&table).map(Vec::as_slice).unwrap_or(&[]);
        if pk.iter().all(|a| bound.contains(a)) {
            return (1.0, RowBasis::PkEquality);
        }
    }
    (
        ctx.default_rows * stats.sel.unwrap_or(1.0),
        RowBasis::Default,
    )
}

/// The write side of an `INSERT`/`UPDATE`/`DELETE` statement.
struct WriteTarget {
    table: TableId,
    write: Vec<AttrId>,
    /// Row count already known from the statement shape (`VALUES` tuple
    /// count); `None` → estimate from predicates.
    rows: Option<(f64, RowBasis)>,
}

/// Assembles the final access list: `write_target` (if any) first, then the
/// collected read tables in first-touch order. Tables with no referenced
/// attributes are dropped; an empty result is a [`SkipReason::NoColumns`].
fn build_dml(
    stmt: &Statement,
    kind: StmtKind,
    write_target: Option<WriteTarget>,
    acc: Accesses,
    ctx: &StmtCtx,
) -> Result<Parsed, IngestError> {
    let stats = statement_stats(stmt)?;
    let mut accesses: Vec<TableAccess> = Vec::new();
    let finish = |attrs: Vec<AttrId>, star: bool, table: TableId| {
        finish_attrs(attrs, star, ctx.schema, table)
    };
    if let Some(WriteTarget {
        table,
        write,
        rows: rows_override,
    }) = write_target
    {
        let read = finish(
            acc.read.get(&table).cloned().unwrap_or_default(),
            acc.star.contains(&table),
            table,
        );
        let (rows, basis) = match rows_override {
            Some((r, b)) => match stats.rows {
                Some(explicit) => (explicit, RowBasis::Annotated),
                None => (r, b),
            },
            None => rows_for(table, &acc, &stats, ctx),
        };
        if !read.is_empty() || !write.is_empty() {
            accesses.push(TableAccess {
                table,
                read,
                write,
                rows,
                basis,
            });
        }
    }
    for &t in &acc.order {
        if accesses.iter().any(|a| a.table == t) {
            continue; // merged into the write target above
        }
        let read = finish(
            acc.read.get(&t).cloned().unwrap_or_default(),
            acc.star.contains(&t),
            t,
        );
        if read.is_empty() {
            continue;
        }
        let (rows, basis) = rows_for(t, &acc, &stats, ctx);
        accesses.push(TableAccess {
            table: t,
            read,
            write: Vec::new(),
            rows,
            basis,
        });
    }
    if accesses.is_empty() {
        return Ok(Parsed::Skip(SkipReason::NoColumns));
    }
    Ok(Parsed::Dml(ParsedDml {
        kind,
        accesses,
        freq: stats.freq.unwrap_or(1.0),
    }))
}

// ----------------------------------------------------------- per-statement

fn parse_select(stmt: &Statement, ctx: &StmtCtx) -> Result<Parsed, IngestError> {
    let toks = &stmt.tokens;
    if find_kw(toks, "FROM").is_none() && subquery_ranges(toks, stmt.line)?.is_empty() {
        return Err(syntax(stmt, toks.len(), "FROM"));
    }
    let mut acc = Accesses::default();
    parse_select_scope(toks, &[], ctx, &mut acc, stmt.line)?;
    build_dml(stmt, StmtKind::Select, None, acc, ctx)
}

fn parse_insert(stmt: &Statement, ctx: &StmtCtx) -> Result<Parsed, IngestError> {
    let toks = &stmt.tokens;
    if !toks.get(1).is_some_and(|t| t.tok.is_kw("INTO")) {
        return Err(syntax(stmt, 1, "INTO"));
    }
    let tref = parse_table_ref(toks, 2, ctx.schema, stmt.line)?;
    let table = tref.table;

    // Optional column list.
    let mut i = tref.end;
    let mut write = Vec::new();
    let mut star = true; // no list → whole row
    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('('))) {
        star = false;
        i += 1;
        while let Some(t) = toks.get(i) {
            match &t.tok {
                Tok::Punct(')') => {
                    i += 1;
                    break;
                }
                Tok::Punct(',') => i += 1,
                Tok::Ident(col) => {
                    write.push(find_attr(ctx.schema, table, col, t.line)?);
                    i += 1;
                }
                _ => return Err(syntax(stmt, i, "a column name in the insert list")),
            }
        }
    }
    let write = finish_attrs(write, star, ctx.schema, table);

    let mut acc = Accesses::default();
    let rows_override;
    if toks.get(i).is_some_and(|t| t.tok.is_kw("VALUES")) {
        // Row count = number of depth-1 value tuples.
        let mut tuples = 0usize;
        let mut depth = 0usize;
        for t in &toks[i + 1..] {
            match t.tok {
                Tok::Punct('(') => {
                    depth += 1;
                    if depth == 1 {
                        tuples += 1;
                    }
                }
                Tok::Punct(')') => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if tuples == 0 {
            return Err(syntax(
                stmt,
                toks.len(),
                "a (value, ...) tuple after VALUES",
            ));
        }
        // Scalar subqueries inside the VALUES tuples still contribute
        // reads on their source tables.
        for (s, e) in subquery_ranges(&toks[i + 1..], stmt.line)? {
            let mut sub = Accesses::default();
            parse_select_scope(
                &toks[i + 1 + s + 1..i + 1 + e],
                &[],
                ctx,
                &mut sub,
                stmt.line,
            )?;
            merge(&mut acc, sub);
        }
        rows_override = Some((tuples as f64, RowBasis::Exact));
    } else if toks.get(i).is_some_and(|t| t.tok.is_kw("SELECT")) {
        // `INSERT ... SELECT`: flatten the source select into read accesses.
        parse_select_scope(&toks[i..], &[], ctx, &mut acc, stmt.line)?;
        // The inserted row count is the select's cardinality — unknown
        // without annotations, so the default/sel estimate applies.
        rows_override = None;
    } else {
        return Err(syntax(stmt, i, "VALUES or SELECT"));
    }
    build_dml(
        stmt,
        StmtKind::Insert,
        Some(WriteTarget {
            table,
            write,
            rows: rows_override,
        }),
        acc,
        ctx,
    )
}

fn parse_update(stmt: &Statement, ctx: &StmtCtx) -> Result<Parsed, IngestError> {
    let toks = &stmt.tokens;
    let ranges = subquery_ranges(toks, stmt.line)?;
    let outer = strip_ranges(toks, &ranges);
    if outer.iter().skip(1).any(|t| t.tok.is_kw("SELECT")) {
        return Ok(Parsed::Skip(SkipReason::Subquery));
    }
    let tref = parse_table_ref(&outer, 1, ctx.schema, stmt.line)?;
    let table = tref.table;
    if matches!(outer.get(tref.end).map(|t| &t.tok), Some(Tok::Punct(','))) {
        // Multi-table UPDATE targets stay unsupported.
        return Ok(Parsed::Skip(SkipReason::Join));
    }
    if !outer.get(tref.end).is_some_and(|t| t.tok.is_kw("SET")) {
        return Err(syntax_at(&outer, tref.end, stmt.line, "SET"));
    }
    let refs = vec![tref];
    let scopes: [&[TableRef]; 1] = [&refs];
    let where_idx = find_kw(&outer, "WHERE").unwrap_or(outer.len());
    let assignments = &outer[refs[0].end + 1..where_idx];

    let mut write = Vec::new();
    let mut acc = Accesses::default();
    // Register the write target up front: if a subquery references the
    // same table, merge() must void its equality bindings (they constrain
    // the subquery's scan, not the rows this statement writes).
    acc.touch(table);
    // Split assignments on depth-0 commas: `col = expr`.
    let mut start = 0usize;
    let mut depth = 0usize;
    let mut boundaries = Vec::new();
    for (j, t) in assignments.iter().enumerate() {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth = depth.saturating_sub(1),
            Tok::Punct(',') if depth == 0 => boundaries.push(j),
            _ => {}
        }
    }
    boundaries.push(assignments.len());
    for &end in &boundaries {
        let item = &assignments[start..end];
        start = end + 1;
        if item.is_empty() {
            continue;
        }
        // Target: `col` or `table.col` before `=`.
        let Some(eq) = item.iter().position(|t| matches!(t.tok, Tok::Punct('='))) else {
            return Err(syntax(stmt, 3, "`=` in a SET assignment"));
        };
        let target = &item[..eq];
        let Some(col_tok) = target.last() else {
            return Err(syntax(stmt, 3, "a column name before `=`"));
        };
        let Tok::Ident(col) = &col_tok.tok else {
            return Err(syntax(stmt, 3, "a column name before `=`"));
        };
        write.push(find_attr(ctx.schema, table, col, col_tok.line)?);
        scan_region(&item[eq + 1..], ctx.schema, &scopes, &mut acc, false)?;
    }
    if write.is_empty() {
        return Ok(Parsed::Skip(SkipReason::NoColumns));
    }
    let write = finish_attrs(write, false, ctx.schema, table);
    if where_idx < outer.len() {
        scan_tail(&outer, where_idx, ctx.schema, &scopes, &mut acc)?;
    }
    for (s, e) in ranges {
        let mut sub = Accesses::default();
        parse_select_scope(&toks[s + 1..e], &scopes, ctx, &mut sub, stmt.line)?;
        merge(&mut acc, sub);
    }
    build_dml(
        stmt,
        StmtKind::Update,
        Some(WriteTarget {
            table,
            write,
            rows: None,
        }),
        acc,
        ctx,
    )
}

fn parse_delete(stmt: &Statement, ctx: &StmtCtx) -> Result<Parsed, IngestError> {
    let toks = &stmt.tokens;
    let ranges = subquery_ranges(toks, stmt.line)?;
    let outer = strip_ranges(toks, &ranges);
    if outer.iter().skip(1).any(|t| t.tok.is_kw("SELECT")) {
        return Ok(Parsed::Skip(SkipReason::Subquery));
    }
    if !outer.get(1).is_some_and(|t| t.tok.is_kw("FROM")) {
        return Err(syntax(stmt, 1, "FROM"));
    }
    let tref = parse_table_ref(&outer, 2, ctx.schema, stmt.line)?;
    let table = tref.table;
    let refs = vec![tref];
    let scopes: [&[TableRef]; 1] = [&refs];
    let mut acc = Accesses::default();
    // Register the write target up front so merge() voids same-table
    // subquery bindings (see parse_update).
    acc.touch(table);
    match find_kw(&outer, "WHERE") {
        Some(w) => scan_tail(&outer, w, ctx.schema, &scopes, &mut acc)?,
        None => acc.add_star(table), // full-table delete touches every column
    }
    for (s, e) in ranges {
        let mut sub = Accesses::default();
        parse_select_scope(&toks[s + 1..e], &scopes, ctx, &mut sub, stmt.line)?;
        merge(&mut acc, sub);
    }
    // The predicate columns are the write set (see module docs); other
    // tables referenced by subqueries stay reads.
    let write = {
        let attrs = acc.read.remove(&table).unwrap_or_default();
        let star = acc.star.remove(&table);
        let w = finish_attrs(attrs, star, ctx.schema, table);
        if w.is_empty() {
            all_attrs(ctx.schema, table)
        } else {
            w
        }
    };
    build_dml(
        stmt,
        StmtKind::Delete,
        Some(WriteTarget {
            table,
            write,
            rows: None,
        }),
        acc,
        ctx,
    )
}

/// Merges a subquery's accesses into the enclosing statement's.
///
/// Reads always merge. Equality bindings only survive for tables touched
/// by exactly one of the two scopes: a table referenced in both is
/// scanned through both usages, and a PK equality constraining one usage
/// says nothing about the rows the other touches — so neither side's
/// bindings may pin the shared access to one row.
fn merge(acc: &mut Accesses, sub: Accesses) {
    let shared: Vec<TableId> = sub
        .order
        .iter()
        .copied()
        .filter(|t| acc.order.contains(t))
        .collect();
    for t in &shared {
        acc.bound.remove(t);
    }
    for t in sub.order {
        acc.touch(t);
    }
    for (t, attrs) in sub.read {
        acc.read.entry(t).or_default().extend(attrs);
    }
    acc.star.extend(sub.star);
    for (t, attrs) in sub.bound {
        if !shared.contains(&t) {
            acc.bound.entry(t).or_default().extend(attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::statements;

    fn schema() -> Schema {
        let mut b = Schema::builder();
        b.table(
            "Customer",
            &[("c_id", 4.0), ("c_name", 16.0), ("c_balance", 8.0)],
        )
        .unwrap();
        b.table(
            "Orders",
            &[("o_id", 4.0), ("o_c_id", 4.0), ("o_total", 8.0)],
        )
        .unwrap();
        b.build().unwrap()
    }

    /// Customer PK = c_id, Orders PK = o_id.
    fn pks() -> Vec<Vec<AttrId>> {
        vec![vec![AttrId(0)], vec![AttrId(3)]]
    }

    fn parse_with(sql: &str, strict: bool) -> Result<Parsed, IngestError> {
        let sts = statements(sql).unwrap();
        let s = schema();
        let p = pks();
        let ctx = StmtCtx {
            schema: &s,
            pks: &p,
            strict,
            default_rows: 1.0,
        };
        parse_statement(&sts[0], &ctx)
    }

    fn parse_one(sql: &str) -> Result<Parsed, IngestError> {
        parse_with(sql, true)
    }

    fn dml(sql: &str) -> ParsedDml {
        match parse_one(sql).unwrap() {
            Parsed::Dml(d) => d,
            other => panic!("expected DML, got {other:?}"),
        }
    }

    /// The single access of a single-table statement.
    fn one(sql: &str) -> TableAccess {
        let d = dml(sql);
        assert_eq!(d.accesses.len(), 1, "expected one access for {sql:?}");
        d.accesses.into_iter().next().unwrap()
    }

    fn names(schema: &Schema, attrs: &[AttrId]) -> Vec<String> {
        attrs.iter().map(|&a| schema.attr(a).name.clone()).collect()
    }

    #[test]
    fn select_collects_list_and_predicates() {
        let d = dml("SELECT c_name, c_balance FROM customer WHERE c_id = 42 ORDER BY c_name;");
        assert_eq!(d.kind, StmtKind::Select);
        let a = &d.accesses[0];
        assert_eq!(
            names(&schema(), &a.read),
            vec!["c_id", "c_name", "c_balance"]
        );
        assert!(a.write.is_empty());
        assert_eq!(a.rows, 1.0);
    }

    #[test]
    fn select_star_and_aggregates() {
        let a = one("SELECT * FROM Customer;");
        assert_eq!(a.read.len(), 3);
        let a = one("SELECT MAX(o_total) FROM orders WHERE o_c_id = ?;");
        assert_eq!(names(&schema(), &a.read), vec!["o_c_id", "o_total"]);
    }

    #[test]
    fn aliases_and_schema_qualifiers() {
        // Select-list output alias is not a column.
        let a = one("SELECT c_name AS nick FROM customer WHERE c_id = 1;");
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_name"]);
        // Bare table alias usable as a qualifier.
        let a = one("SELECT c.c_name FROM customer c WHERE c.c_id = 1;");
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_name"]);
        // AS-form table alias.
        let a = one("SELECT c.c_name FROM customer AS c WHERE c_id = 1;");
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_name"]);
        // Schema-qualified table name.
        let a = one("SELECT c_name FROM public.customer WHERE c_id = 1;");
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_name"]);
        // Aliased UPDATE and DELETE.
        let a = one("UPDATE customer c SET c.c_balance = c.c_balance + 1 WHERE c.c_id = 2;");
        assert_eq!(names(&schema(), &a.write), vec!["c_balance"]);
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_balance"]);
        let a = one("DELETE FROM orders o WHERE o.o_id = 3;");
        assert_eq!(names(&schema(), &a.write), vec!["o_id"]);
    }

    #[test]
    fn qualified_columns_must_match_a_table_in_scope() {
        let a = one("SELECT customer.c_name FROM customer WHERE customer.c_id = 1;");
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_name"]);
        assert!(matches!(
            parse_one("SELECT orders.o_id FROM customer;"),
            Err(IngestError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn insert_with_and_without_column_list() {
        let d = dml("INSERT INTO orders (o_id, o_c_id) VALUES (1, 2);");
        assert_eq!(d.kind, StmtKind::Insert);
        let a = &d.accesses[0];
        assert_eq!(names(&schema(), &a.write), vec!["o_id", "o_c_id"]);
        assert_eq!(a.rows, 1.0);
        assert_eq!(a.basis, RowBasis::Exact);
        let a = one("INSERT INTO orders VALUES (1, 2, 9.5), (2, 2, 1.0);");
        assert_eq!(a.write.len(), 3);
        assert_eq!(a.rows, 2.0, "two VALUES tuples");
    }

    #[test]
    fn update_splits_read_and_write_sets() {
        let d = dml("UPDATE customer SET c_balance = c_balance + 10 WHERE c_id = 7;");
        assert_eq!(d.kind, StmtKind::Update);
        let a = &d.accesses[0];
        assert_eq!(names(&schema(), &a.write), vec!["c_balance"]);
        assert_eq!(names(&schema(), &a.read), vec!["c_id", "c_balance"]);
    }

    #[test]
    fn delete_uses_predicate_columns() {
        let d = dml("DELETE FROM orders WHERE o_id = 3;");
        assert_eq!(d.kind, StmtKind::Delete);
        assert_eq!(names(&schema(), &d.accesses[0].write), vec!["o_id"]);
        let a = one("DELETE FROM orders;");
        assert_eq!(a.write.len(), 3, "unpredicated delete touches all columns");
    }

    #[test]
    fn annotations_set_rows_and_freq() {
        let d = dml("SELECT /*+ rows=10 freq=3 */ c_name FROM customer WHERE c_id = 1;");
        assert_eq!(d.accesses[0].rows, 10.0);
        assert_eq!(d.accesses[0].basis, RowBasis::Annotated);
        assert_eq!(d.freq, 3.0);
        assert!(matches!(
            parse_one("SELECT /*+ rows=banana */ c_name FROM customer;"),
            Err(IngestError::Syntax { .. })
        ));
        assert!(matches!(
            parse_one("SELECT /*+ sel=0 */ c_name FROM customer;"),
            Err(IngestError::Syntax { .. })
        ));
    }

    // ------------------------------------------------ multi-table flattening

    #[test]
    fn join_flattens_into_per_table_reads() {
        let s = schema();
        let d = dml(
            "SELECT c_name, o_total FROM customer JOIN orders ON c_id = o_c_id WHERE o_id = 7;",
        );
        assert_eq!(d.kind, StmtKind::Select);
        assert_eq!(d.accesses.len(), 2);
        let cust = &d.accesses[0];
        assert_eq!(names(&s, &cust.read), vec!["c_id", "c_name"]);
        let ord = &d.accesses[1];
        assert_eq!(names(&s, &ord.read), vec!["o_id", "o_c_id", "o_total"]);
        // o_id is the Orders PK and equality-bound → 1 row; customer is
        // join-bound only → default estimate.
        assert_eq!(ord.rows, 1.0);
        assert_eq!(ord.basis, RowBasis::PkEquality);
        assert_eq!(cust.basis, RowBasis::Default);
    }

    #[test]
    fn comma_join_and_aliases() {
        let s = schema();
        let d = dml("SELECT c.c_name, o.o_total FROM customer c, orders o \
             WHERE c.c_id = o.o_c_id AND o.o_id = 1;");
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].read), vec!["c_id", "c_name"]);
        assert_eq!(
            names(&s, &d.accesses[1].read),
            vec!["o_id", "o_c_id", "o_total"]
        );
    }

    #[test]
    fn join_star_touches_every_table_in_scope() {
        let d = dml("SELECT * FROM customer JOIN orders ON c_id = o_c_id;");
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(d.accesses[0].read.len(), 3);
        assert_eq!(d.accesses[1].read.len(), 3);
    }

    #[test]
    fn join_using_reads_the_column_in_both_tables() {
        let mut b = Schema::builder();
        b.table("a", &[("id", 4.0), ("x", 4.0)]).unwrap();
        b.table("b", &[("id", 4.0), ("y", 4.0)]).unwrap();
        let s = b.build().unwrap();
        let sts = statements("SELECT x, y FROM a JOIN b USING (id);").unwrap();
        let ctx = StmtCtx {
            schema: &s,
            pks: &[],
            strict: true,
            default_rows: 1.0,
        };
        let Parsed::Dml(d) = parse_statement(&sts[0], &ctx).unwrap() else {
            panic!("expected DML");
        };
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].read), vec!["id", "x"]);
        assert_eq!(names(&s, &d.accesses[1].read), vec!["id", "y"]);
    }

    #[test]
    fn in_subquery_flattens() {
        let s = schema();
        let d = dml("SELECT c_name FROM customer WHERE c_id IN \
             (SELECT o_c_id FROM orders WHERE o_total > 100);");
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].read), vec!["c_id", "c_name"]);
        assert_eq!(names(&s, &d.accesses[1].read), vec!["o_c_id", "o_total"]);
    }

    #[test]
    fn correlated_subquery_resolves_against_the_outer_scope() {
        let s = schema();
        let d = dml("SELECT c_name FROM customer WHERE EXISTS \
             (SELECT o_id FROM orders WHERE o_c_id = customer.c_id);");
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].read), vec!["c_id", "c_name"]);
        assert_eq!(names(&s, &d.accesses[1].read), vec!["o_id", "o_c_id"]);
    }

    #[test]
    fn insert_from_select_writes_target_reads_sources() {
        let s = schema();
        let d = dml("INSERT INTO orders (o_id, o_c_id) \
             SELECT c_id, c_id FROM customer WHERE c_balance > 0;");
        assert_eq!(d.kind, StmtKind::Insert);
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].write), vec!["o_id", "o_c_id"]);
        assert!(d.accesses[0].read.is_empty());
        assert_eq!(names(&s, &d.accesses[1].read), vec!["c_id", "c_balance"]);
        assert!(d.accesses[1].write.is_empty());
    }

    #[test]
    fn update_with_subquery_predicate() {
        let s = schema();
        let d = dml("UPDATE customer SET c_balance = 0 WHERE c_id IN \
             (SELECT o_c_id FROM orders WHERE o_total > 500);");
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].write), vec!["c_balance"]);
        assert_eq!(names(&s, &d.accesses[0].read), vec!["c_id"]);
        assert_eq!(names(&s, &d.accesses[1].read), vec!["o_c_id", "o_total"]);
    }

    #[test]
    fn delete_with_subquery_predicate() {
        let s = schema();
        let d = dml(
            "DELETE FROM orders WHERE o_c_id IN (SELECT c_id FROM customer WHERE c_balance < 0);",
        );
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(names(&s, &d.accesses[0].write), vec!["o_c_id"]);
        assert_eq!(names(&s, &d.accesses[1].read), vec!["c_id", "c_balance"]);
    }

    #[test]
    fn ambiguous_unqualified_columns_are_rejected() {
        let mut b = Schema::builder();
        b.table("a", &[("id", 4.0), ("x", 4.0)]).unwrap();
        b.table("b", &[("id", 4.0), ("y", 4.0)]).unwrap();
        let s = b.build().unwrap();
        let sts = statements("SELECT id FROM a JOIN b ON x = y;").unwrap();
        let ctx = StmtCtx {
            schema: &s,
            pks: &[],
            strict: true,
            default_rows: 1.0,
        };
        assert!(matches!(
            parse_statement(&sts[0], &ctx),
            Err(IngestError::AmbiguousColumn { .. })
        ));
        let lenient = StmtCtx {
            strict: false,
            ..ctx
        };
        assert_eq!(
            parse_statement(&sts[0], &lenient).unwrap(),
            Parsed::Skip(SkipReason::UnknownReference)
        );
    }

    // ------------------------------------------------- PK row estimation

    #[test]
    fn pk_equality_implies_one_row() {
        let a = one("SELECT c_name FROM customer WHERE c_id = 42;");
        assert_eq!(a.rows, 1.0);
        assert_eq!(a.basis, RowBasis::PkEquality);
        // Reversed operands bind too.
        let a = one("SELECT c_name FROM customer WHERE 42 = c_id;");
        assert_eq!(a.basis, RowBasis::PkEquality);
        // Bind parameters count as constants.
        let a = one("UPDATE customer SET c_balance = 0 WHERE c_id = ?;");
        assert_eq!(a.rows, 1.0);
        assert_eq!(a.basis, RowBasis::PkEquality);
    }

    #[test]
    fn non_pk_predicates_fall_back_to_the_default() {
        // Range predicate on the PK.
        let a = one("SELECT c_name FROM customer WHERE c_id < 42;");
        assert_eq!(a.basis, RowBasis::Default);
        // Equality on a non-key column.
        let a = one("SELECT c_id FROM customer WHERE c_name = 'bob';");
        assert_eq!(a.basis, RowBasis::Default);
        // OR disables the inference (two branches → possibly two rows).
        let a = one("SELECT c_name FROM customer WHERE c_id = 1 OR c_id = 2;");
        assert_eq!(a.basis, RowBasis::Default);
        assert_eq!(a.rows, 1.0, "default_rows = 1.0");
    }

    #[test]
    fn composite_pk_requires_all_columns_bound() {
        let mut b = Schema::builder();
        b.table("oi", &[("o_id", 4.0), ("p_id", 4.0), ("qty", 2.0)])
            .unwrap();
        let s = b.build().unwrap();
        let pks = vec![vec![AttrId(0), AttrId(1)]];
        let ctx = StmtCtx {
            schema: &s,
            pks: &pks,
            strict: true,
            default_rows: 5.0,
        };
        let acc = |sql: &str| {
            let sts = statements(sql).unwrap();
            match parse_statement(&sts[0], &ctx).unwrap() {
                Parsed::Dml(d) => d.accesses.into_iter().next().unwrap(),
                other => panic!("expected DML, got {other:?}"),
            }
        };
        let full = acc("SELECT qty FROM oi WHERE o_id = 1 AND p_id = 2;");
        assert_eq!(full.rows, 1.0);
        assert_eq!(full.basis, RowBasis::PkEquality);
        let partial = acc("SELECT qty FROM oi WHERE o_id = 1;");
        assert_eq!(partial.rows, 5.0, "default_rows fallback");
        assert_eq!(partial.basis, RowBasis::Default);
    }

    #[test]
    fn insert_select_without_a_column_list() {
        let s = schema();
        let d = dml("INSERT INTO orders SELECT c_id, c_id, c_balance FROM customer;");
        assert_eq!(d.kind, StmtKind::Insert);
        assert_eq!(d.accesses.len(), 2);
        assert_eq!(d.accesses[0].write.len(), 3, "no list → whole row");
        assert_eq!(names(&s, &d.accesses[1].read), vec!["c_id", "c_balance"]);
    }

    #[test]
    fn expressions_and_negation_do_not_bind_the_key() {
        // The key inside arithmetic is not a point lookup.
        let a = one("SELECT c_name FROM customer WHERE c_balance + c_id = 7;");
        assert_eq!(a.basis, RowBasis::Default);
        let a = one("SELECT c_name FROM customer WHERE c_id = 7 + c_balance;");
        assert_eq!(a.basis, RowBasis::Default);
        let a = one("SELECT c_name FROM customer WHERE c_balance + 7 = c_id;");
        assert_eq!(a.basis, RowBasis::Default);
        // Negation matches every row but one.
        let a = one("SELECT c_name FROM customer WHERE NOT c_id = 7;");
        assert_eq!(a.basis, RowBasis::Default);
        // A plain equality next to an unrelated predicate still binds.
        let a = one("SELECT c_name FROM customer WHERE c_balance > 0 AND c_id = 7;");
        assert_eq!(a.basis, RowBasis::PkEquality);
    }

    #[test]
    fn scalar_subqueries_after_commas_in_clause_tails_flatten() {
        let d = dml("SELECT c_name FROM customer ORDER BY c_name, (SELECT MAX(o_id) FROM orders);");
        assert_eq!(d.accesses.len(), 2, "order-by subquery flattens");
    }

    #[test]
    fn derived_table_after_a_predicate_subquery_still_skips() {
        // The ON subquery contains a WHERE; the comma before the derived
        // table is still a FROM-list comma (the inner WHERE sits at
        // depth > 0) and the statement must skip, not abort.
        assert_eq!(
            parse_one(
                "SELECT c_name FROM customer JOIN orders \
                 ON c_id IN (SELECT o_c_id FROM orders WHERE o_total > 0), \
                 (SELECT c_id FROM customer) d;"
            )
            .unwrap(),
            Parsed::Skip(SkipReason::Subquery)
        );
    }

    #[test]
    fn operator_not_forms_do_not_void_pk_bindings() {
        let a = one("SELECT c_name FROM customer WHERE c_id = 7 AND c_name IS NOT NULL;");
        assert_eq!(a.basis, RowBasis::PkEquality);
        let d = dml(
            "SELECT c_name FROM customer WHERE c_id = 7 AND c_balance NOT IN \
             (SELECT o_total FROM orders);",
        );
        assert_eq!(d.accesses[0].basis, RowBasis::PkEquality);
        let a = one("SELECT c_name FROM customer WHERE c_id = 7 AND c_name NOT LIKE 'a%';");
        assert_eq!(a.basis, RowBasis::PkEquality);
    }

    #[test]
    fn inner_scope_bindings_do_not_pin_outer_scans() {
        // The subquery binds the customer PK, but the outer query scans
        // customer by balance — the shared access must not claim 1 row.
        let d = dml("SELECT c_name FROM customer WHERE c_balance > \
             (SELECT c_balance FROM customer WHERE c_id = 1);");
        assert_eq!(d.accesses.len(), 1);
        assert_eq!(d.accesses[0].basis, RowBasis::Default);
        // Same with an outer OR next to an inner PK equality.
        let d = dml("SELECT c_name FROM customer WHERE c_balance IN \
             (SELECT c_balance FROM customer WHERE c_id = 1) OR c_id = 5;");
        assert!(d.accesses.iter().all(|a| a.basis == RowBasis::Default));
        // An inner binding on a table the outer scope does NOT touch
        // still pins that table.
        let d = dml("SELECT c_name FROM customer WHERE c_id IN \
             (SELECT o_c_id FROM orders WHERE o_id = 7);");
        let orders = d.accesses.iter().find(|a| a.table == TableId(1)).unwrap();
        assert_eq!(orders.basis, RowBasis::PkEquality);
        assert_eq!(orders.rows, 1.0);
    }

    #[test]
    fn write_targets_are_not_pinned_by_same_table_subqueries() {
        // No WHERE: every customer row is written, even though the scalar
        // subquery's PK lookup reads exactly one.
        let d = dml("UPDATE customer SET c_balance = \
             (SELECT c_balance FROM customer WHERE c_id = 1);");
        assert_eq!(d.accesses.len(), 1);
        assert_eq!(d.accesses[0].basis, RowBasis::Default);
        let d = dml("DELETE FROM customer WHERE c_balance < \
             (SELECT c_balance FROM customer WHERE c_id = 1);");
        assert_eq!(d.accesses[0].basis, RowBasis::Default);
    }

    #[test]
    fn clause_keywords_inside_functions_do_not_split_the_predicate() {
        // The depth-1 FOR must not end the binding region early: the OR
        // after it voids the c_id binding.
        let d = dml("SELECT c_name FROM customer WHERE c_id = 5 AND \
             SUBSTRING(c_name FOR 3) = 'ab' OR c_balance > 0;");
        assert_eq!(d.accesses[0].basis, RowBasis::Default);
    }

    #[test]
    fn unterminated_using_is_a_typed_error() {
        assert!(matches!(
            parse_one("SELECT c_name, o_total FROM customer JOIN orders USING (c_id;"),
            Err(IngestError::Syntax { .. })
        ));
    }

    #[test]
    fn self_join_bindings_do_not_pin_the_shared_access() {
        let d = dml("SELECT a.c_name, b.c_name FROM customer a JOIN customer b \
             ON a.c_balance = b.c_balance WHERE a.c_id = 1;");
        assert_eq!(d.accesses.len(), 1, "one access per table");
        assert_eq!(d.accesses[0].basis, RowBasis::Default);
    }

    #[test]
    fn derived_tables_are_skipped_not_misparsed() {
        // `FROM (SELECT ...) alias` has no flattenable shape; it must
        // skip with a Subquery reason in strict mode too — not abort
        // with a bogus unknown-table error.
        for sql in [
            "SELECT x.c_name FROM (SELECT c_name FROM customer) x;",
            "SELECT c_name FROM customer JOIN (SELECT o_c_id FROM orders) o ON c_id = o_c_id;",
            "SELECT c_name FROM customer, (SELECT o_id FROM orders) o;",
        ] {
            assert_eq!(
                parse_one(sql).unwrap(),
                Parsed::Skip(SkipReason::Subquery),
                "{sql}"
            );
        }
        // Scalar subqueries in the select list still flatten.
        let d = dml("SELECT c_name, (SELECT o_total FROM orders WHERE o_id = 1) FROM customer;");
        assert_eq!(d.accesses.len(), 2);
    }

    #[test]
    fn sel_annotation_scales_default_estimates_only() {
        let d = dml("SELECT /*+ sel=4 */ c_name, o_total FROM customer \
             JOIN orders ON c_id = o_c_id WHERE o_id = 7;");
        let cust = &d.accesses[0];
        let ord = &d.accesses[1];
        assert_eq!(cust.rows, 4.0, "default 1.0 × sel 4");
        assert_eq!(cust.basis, RowBasis::Default);
        assert_eq!(ord.rows, 1.0, "PK-bound tables ignore sel");
        assert_eq!(ord.basis, RowBasis::PkEquality);
    }

    #[test]
    fn unsupported_constructs_are_skipped_with_reasons() {
        let skip = |sql: &str| match parse_one(sql).unwrap() {
            Parsed::Skip(r) => r,
            other => panic!("expected skip for {sql:?}, got {other:?}"),
        };
        assert_eq!(
            skip("SELECT c_name FROM customer UNION SELECT c_name FROM customer;"),
            SkipReason::Subquery
        );
        assert_eq!(
            skip("UPDATE customer, orders SET c_balance = 0;"),
            SkipReason::Join
        );
        assert_eq!(skip("VACUUM;"), SkipReason::NotADmlStatement);
        assert_eq!(skip("SELECT 1 FROM customer;"), SkipReason::NoColumns);
    }

    #[test]
    fn transaction_brackets() {
        assert_eq!(parse_one("BEGIN;").unwrap(), Parsed::Begin);
        assert_eq!(parse_one("START TRANSACTION;").unwrap(), Parsed::Begin);
        assert_eq!(parse_one("COMMIT;").unwrap(), Parsed::Commit);
        assert_eq!(parse_one("ROLLBACK;").unwrap(), Parsed::Rollback);
    }

    #[test]
    fn strict_vs_lenient() {
        assert!(matches!(
            parse_with("SELECT nope FROM customer;", true),
            Err(IngestError::UnknownColumn { .. })
        ));
        assert_eq!(
            parse_with("SELECT nope FROM customer;", false).unwrap(),
            Parsed::Skip(SkipReason::UnknownReference)
        );
        assert!(matches!(
            parse_with("SELECT c_id FROM nowhere;", true),
            Err(IngestError::UnknownTable { .. })
        ));
    }
}
