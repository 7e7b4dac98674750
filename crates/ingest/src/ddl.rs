//! `CREATE TABLE` parsing and SQL-type → attribute-width mapping.
//!
//! Widths follow the "natural binary width" convention the TPC-C model in
//! `vpart_instances` uses: fixed-point numerics take the width of the
//! smallest machine integer that holds their precision, character types
//! take their declared maximum, and unbounded types (`TEXT`, `BLOB`, ...)
//! fall back to [`crate::IngestOptions::text_width`] with a diagnostic —
//! the cost model needs *some* `w_a`, but the guess must stay visible.
//!
//! `PRIMARY KEY` declarations (column-level or table-level) are kept in
//! [`ParsedSchema::primary_keys`] so the log miner can infer `rows = 1`
//! for full-key equality predicates; all other constraints are accepted
//! and ignored.

use crate::error::IngestError;
use crate::lexer::{Lexer, Statement, Tok, Token};
use crate::report::{SkipReason, Skipped, WidthFallback};
use crate::IngestOptions;
use vpart_model::{AttrId, Schema, TableId};

/// Column-list keywords that start a table constraint, not a column.
const CONSTRAINT_HEADS: &[&str] = &[
    "PRIMARY",
    "FOREIGN",
    "UNIQUE",
    "CHECK",
    "CONSTRAINT",
    "KEY",
    "INDEX",
    "EXCLUDE",
];

/// Result of parsing a schema file.
#[derive(Debug)]
pub struct ParsedSchema {
    /// The assembled schema.
    pub schema: Schema,
    /// Per-table primary-key attributes (indexed by [`TableId`]; empty for
    /// tables that declared none). Drives `WHERE pk = ?` row estimation.
    pub primary_keys: Vec<Vec<AttrId>>,
    /// Types that needed the fallback width.
    pub width_fallbacks: Vec<WidthFallback>,
    /// Non-`CREATE TABLE` statements that were skipped.
    pub skipped: Vec<Skipped>,
}

/// Parses DDL text into a [`Schema`].
pub fn parse_schema(sql: &str, opts: &IngestOptions) -> Result<ParsedSchema, IngestError> {
    let mut lexer = Lexer::new(sql);
    parse_tables(&mut lexer, opts).map_err(|e| lexer.first_error(e))
}

fn parse_tables(lexer: &mut Lexer<'_>, opts: &IngestOptions) -> Result<ParsedSchema, IngestError> {
    let mut builder = Schema::builder();
    let mut width_fallbacks = Vec::new();
    let mut skipped = Vec::new();
    let mut names: Vec<String> = Vec::new();
    // Per-table (pk column name, line of the declaration) lists; resolved
    // to attribute ids once the schema is built.
    let mut pk_names: Vec<Vec<(String, u32)>> = Vec::new();
    let mut any_table = false;

    while let Some(stmt) = lexer.next_statement()? {
        let is_create_table = stmt.head().as_deref() == Some("CREATE")
            && stmt.tokens.get(1).is_some_and(|t| t.tok.is_kw("TABLE"));
        if !is_create_table {
            skipped.push(Skipped {
                line: stmt.line,
                reason: SkipReason::NotADmlStatement,
                snippet: stmt.snippet(),
            });
            continue;
        }
        let table = parse_create_table(stmt, opts, &mut width_fallbacks)?;
        if names.iter().any(|n| n.eq_ignore_ascii_case(&table.name)) {
            return Err(IngestError::DuplicateTable {
                name: table.name,
                line: stmt.line,
            });
        }
        names.push(table.name.clone());
        let cols: Vec<(&str, f64)> = table
            .columns
            .iter()
            .map(|(n, w)| (n.as_str(), *w))
            .collect();
        builder.table(&table.name, &cols)?;
        pk_names.push(table.pk);
        any_table = true;
    }
    if !any_table {
        return Err(IngestError::EmptySchema);
    }
    let schema = builder.build()?;
    let mut primary_keys = Vec::with_capacity(pk_names.len());
    for (t, cols) in pk_names.into_iter().enumerate() {
        let table = TableId::from_index(t);
        let mut pk = Vec::with_capacity(cols.len());
        for (col, line) in cols {
            let a = crate::stmt::table_attr(&schema, table, &col).ok_or_else(|| {
                IngestError::UnknownColumn {
                    table: schema.tables()[t].name.clone(),
                    column: col,
                    line,
                }
            })?;
            pk.push(a);
        }
        pk.sort_unstable();
        pk.dedup();
        primary_keys.push(pk);
    }
    Ok(ParsedSchema {
        schema,
        primary_keys,
        width_fallbacks,
        skipped,
    })
}

struct TableDef {
    name: String,
    columns: Vec<(String, f64)>,
    /// `PRIMARY KEY` column names with their declaration lines.
    pk: Vec<(String, u32)>,
}

fn parse_create_table(
    stmt: &Statement,
    opts: &IngestOptions,
    fallbacks: &mut Vec<WidthFallback>,
) -> Result<TableDef, IngestError> {
    let toks = &stmt.tokens;
    let mut i = 2; // past CREATE TABLE
                   // Optional IF NOT EXISTS.
    if toks.get(i).is_some_and(|t| t.tok.is_kw("IF")) {
        i += 3;
    }
    let Some(Tok::Ident(name)) = toks.get(i).map(|t| &t.tok) else {
        return Err(syntax(stmt, i, "a table name"));
    };
    let name = name.to_string();
    i += 1;
    if !matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return Err(syntax(stmt, i, "`(` opening the column list"));
    }
    i += 1;

    let mut columns: Vec<(String, f64)> = Vec::new();
    let mut pk: Vec<(String, u32)> = Vec::new();
    loop {
        let Some(tok) = toks.get(i) else {
            return Err(syntax(stmt, i, "a column definition or `)`"));
        };
        if matches!(tok.tok, Tok::Punct(')')) {
            break;
        }
        let head = tok.tok.keyword().unwrap_or_default();
        if CONSTRAINT_HEADS.contains(&head.as_str()) {
            // `[CONSTRAINT name] PRIMARY KEY (col, ...)` names the key
            // columns; every other table constraint is skipped whole.
            let pk_head = if head == "PRIMARY" {
                Some(i)
            } else if head == "CONSTRAINT" {
                // CONSTRAINT <name> PRIMARY ...
                (toks.get(i + 2).map(|t| &t.tok))
                    .and_then(Tok::keyword)
                    .filter(|k| k == "PRIMARY")
                    .map(|_| i + 2)
            } else {
                None
            };
            if let Some(p) = pk_head {
                // The key's `(col, ...)` group, if present within this item.
                let mut open = None;
                for (j, t) in toks.iter().enumerate().skip(p) {
                    match t.tok {
                        Tok::Punct('(') => {
                            open = Some(j);
                            break;
                        }
                        Tok::Punct(',') | Tok::Punct(')') => break,
                        _ => {}
                    }
                }
                if let Some(open) = open {
                    let close = skip_group(toks, open, stmt)?;
                    pk.clear(); // a table-level key supersedes column-level ones
                    for t in &toks[open + 1..close] {
                        if let Tok::Ident(col) = &t.tok {
                            // Sort/null qualifiers are not key columns.
                            if matches!(
                                col.to_ascii_uppercase().as_str(),
                                "ASC" | "DESC" | "NULLS" | "FIRST" | "LAST" | "AUTOINCREMENT"
                            ) {
                                continue;
                            }
                            pk.push((col.to_string(), t.line));
                        }
                    }
                }
            }
            i = skip_to_item_end(toks, i, stmt)?;
            continue;
        }
        let Tok::Ident(col) = &tok.tok else {
            return Err(syntax(stmt, i, "a column name"));
        };
        let col = col.to_string();
        i += 1;
        // Type: one or two identifier words plus optional (args).
        let Some(Tok::Ident(ty0)) = toks.get(i).map(|t| &t.tok) else {
            return Err(syntax(stmt, i, &format!("a type for column {col:?}")));
        };
        let mut type_name = ty0.to_ascii_uppercase();
        i += 1;
        if let Some(Tok::Ident(ty1)) = toks.get(i).map(|t| &t.tok) {
            // Two-word types: DOUBLE PRECISION, CHARACTER VARYING.
            let up = ty1.to_ascii_uppercase();
            if matches!(
                (type_name.as_str(), up.as_str()),
                ("DOUBLE", "PRECISION") | ("CHARACTER", "VARYING")
            ) {
                type_name = format!("{type_name} {up}");
                i += 1;
            }
        }
        let mut args: Vec<u64> = Vec::new();
        if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('('))) {
            let close = skip_group(toks, i, stmt)?;
            for t in &toks[i + 1..close] {
                if let Tok::Number(n) = &t.tok {
                    if let Ok(v) = n.parse::<u64>() {
                        args.push(v);
                    }
                }
            }
            i = close + 1;
        }
        let (width, is_fallback) = width_for_type(&type_name, &args, opts);
        if is_fallback {
            fallbacks.push(WidthFallback {
                table: name.clone(),
                column: col.clone(),
                sql_type: type_name.clone(),
                width,
            });
        }
        // Column constraints (NOT NULL, DEFAULT ..., PRIMARY KEY, ...);
        // a `PRIMARY KEY` in the tail marks this column as the key.
        let tail_end = skip_to_item_end(toks, i, stmt)?;
        let item_end = tail_end.min(toks.len());
        let mut depth = 0usize;
        for j in i..item_end {
            match toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth = depth.saturating_sub(1),
                _ => {
                    if depth == 0
                        && toks[j].tok.is_kw("PRIMARY")
                        && toks.get(j + 1).is_some_and(|t| t.tok.is_kw("KEY"))
                    {
                        pk.push((col.clone(), toks[j].line));
                    }
                }
            }
        }
        columns.push((col, width));
        i = tail_end;
    }
    Ok(TableDef { name, columns, pk })
}

/// Advances past the current column-list item: to just after the next
/// top-level `,`, or to the closing `)` of the list. An unbalanced `(`
/// inside the item is a syntax error (nothing to resynchronize on).
fn skip_to_item_end(toks: &[Token], mut i: usize, stmt: &Statement) -> Result<usize, IngestError> {
    let mut depth = 0usize;
    let mut last_open = i;
    while let Some(t) = toks.get(i) {
        match t.tok {
            Tok::Punct('(') => {
                depth += 1;
                last_open = i;
            }
            Tok::Punct(')') if depth == 0 => return Ok(i),
            Tok::Punct(')') => depth -= 1,
            Tok::Punct(',') if depth == 0 => return Ok(i + 1),
            _ => {}
        }
        i += 1;
    }
    if depth > 0 {
        return Err(syntax(
            stmt,
            toks.len(),
            &format!("a `)` matching the `(` on line {}", toks[last_open].line),
        ));
    }
    Ok(i)
}

/// Given `toks[i] == '('`, returns the index of the matching `)`; an
/// unbalanced group is a syntax error.
fn skip_group(toks: &[Token], i: usize, stmt: &Statement) -> Result<usize, IngestError> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Ok(j);
                }
            }
            _ => {}
        }
    }
    Err(syntax(
        stmt,
        toks.len(),
        &format!("a `)` matching the `(` on line {}", toks[i].line),
    ))
}

fn syntax(stmt: &Statement, i: usize, expected: &str) -> IngestError {
    let (line, found) = match stmt.tokens.get(i) {
        Some(t) => (t.line, format!("{:?}", t.tok)),
        None => (stmt.line, "end of statement".to_string()),
    };
    IngestError::Syntax {
        line,
        expected: expected.to_string(),
        found,
    }
}

/// Maps an uppercased SQL type (plus type arguments) to an average width
/// in bytes. The second component is `true` when the fallback width was
/// used (unknown or unbounded type).
pub fn width_for_type(type_name: &str, args: &[u64], opts: &IngestOptions) -> (f64, bool) {
    let first_arg = args.first().copied();
    match type_name {
        "BOOL" | "BOOLEAN" | "TINYINT" => (1.0, false),
        "SMALLINT" | "SMALLSERIAL" | "INT2" => (2.0, false),
        "INT" | "INTEGER" | "MEDIUMINT" | "SERIAL" | "INT4" => (4.0, false),
        "BIGINT" | "BIGSERIAL" | "INT8" => (8.0, false),
        "REAL" | "FLOAT4" => (4.0, false),
        "FLOAT" | "DOUBLE" | "DOUBLE PRECISION" | "FLOAT8" => (8.0, false),
        // Fixed-point: natural binary width of the precision — ≤ 9 digits
        // fit a 32-bit integer, ≤ 18 a 64-bit one, beyond that packed
        // decimal at two digits per byte.
        "DECIMAL" | "NUMERIC" | "DEC" | "MONEY" => match first_arg {
            None => (8.0, false),
            Some(p) if p <= 9 => (4.0, false),
            Some(p) if p <= 18 => (8.0, false),
            Some(p) => ((p as f64 / 2.0).ceil() + 1.0, false),
        },
        "CHAR" | "CHARACTER" | "NCHAR" => (first_arg.unwrap_or(1).max(1) as f64, false),
        "VARCHAR" | "CHARACTER VARYING" | "NVARCHAR" | "VARCHAR2" => match first_arg {
            Some(n) => (n.max(1) as f64, false),
            None => (opts.text_width, true),
        },
        "DATE" => (4.0, false),
        "TIME" => (4.0, false),
        "TIMESTAMP" | "TIMESTAMPTZ" | "DATETIME" => (8.0, false),
        "UUID" => (16.0, false),
        "BIT" | "VARBIT" => (first_arg.unwrap_or(1).div_ceil(8) as f64, false),
        _ => (opts.text_width, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::TableId;

    fn opts() -> IngestOptions {
        IngestOptions::default()
    }

    #[test]
    fn parses_columns_and_widths() {
        let p = parse_schema(
            "CREATE TABLE users (\n\
               id BIGINT PRIMARY KEY,\n\
               email VARCHAR(64) NOT NULL UNIQUE,\n\
               age SMALLINT,\n\
               balance DECIMAL(12, 2) DEFAULT 0,\n\
               bio TEXT\n\
             );",
            &opts(),
        )
        .unwrap();
        let s = &p.schema;
        assert_eq!(s.n_tables(), 1);
        assert_eq!(s.n_attrs(), 5);
        let widths: Vec<f64> = s.attrs().iter().map(|a| a.width).collect();
        assert_eq!(widths, vec![8.0, 64.0, 2.0, 8.0, opts().text_width]);
        assert_eq!(p.width_fallbacks.len(), 1);
        assert_eq!(p.width_fallbacks[0].column, "bio");
        assert_eq!(p.width_fallbacks[0].sql_type, "TEXT");
    }

    #[test]
    fn table_constraints_are_skipped_but_keys_are_kept() {
        let p = parse_schema(
            "CREATE TABLE t (\n\
               a INT,\n\
               b INT,\n\
               PRIMARY KEY (a, b),\n\
               FOREIGN KEY (b) REFERENCES u(x),\n\
               CONSTRAINT chk CHECK (a > 0)\n\
             );",
            &opts(),
        )
        .unwrap();
        assert_eq!(p.schema.n_attrs(), 2);
        assert_eq!(
            p.primary_keys,
            vec![vec![vpart_model::AttrId(0), vpart_model::AttrId(1)]]
        );
    }

    #[test]
    fn primary_keys_survive_in_all_declaration_forms() {
        let p = parse_schema(
            "CREATE TABLE a (id BIGINT PRIMARY KEY, v INT);\n\
             CREATE TABLE b (x INT, y INT, CONSTRAINT b_pk PRIMARY KEY (y));\n\
             CREATE TABLE c (z INT);",
            &opts(),
        )
        .unwrap();
        assert_eq!(p.primary_keys.len(), 3);
        assert_eq!(p.primary_keys[0], vec![vpart_model::AttrId(0)]);
        assert_eq!(p.primary_keys[1], vec![vpart_model::AttrId(3)]);
        assert!(p.primary_keys[2].is_empty(), "no key declared");
    }

    #[test]
    fn pk_sort_qualifiers_are_not_key_columns() {
        let p = parse_schema(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a ASC, b DESC NULLS LAST));",
            &opts(),
        )
        .unwrap();
        assert_eq!(
            p.primary_keys,
            vec![vec![vpart_model::AttrId(0), vpart_model::AttrId(1)]]
        );
    }

    #[test]
    fn unknown_pk_columns_are_typed_errors() {
        assert!(matches!(
            parse_schema("CREATE TABLE t (a INT, PRIMARY KEY (nope));", &opts()),
            Err(IngestError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn unbalanced_parens_in_constraints_are_syntax_errors() {
        // Balanced nested parens in a CHECK parse fine...
        let p = parse_schema(
            "CREATE TABLE t (a INT, CONSTRAINT chk CHECK ((a > 0) AND (a < 9)));",
            &opts(),
        )
        .unwrap();
        assert_eq!(p.schema.n_attrs(), 1);
        // ...an unbalanced `(` is a loud error naming the open paren, not a
        // silent swallow of the statement's remainder.
        let err = parse_schema(
            "CREATE TABLE t (a INT, CONSTRAINT chk CHECK ((a > 0);",
            &opts(),
        )
        .unwrap_err();
        match err {
            IngestError::Syntax { expected, .. } => {
                assert!(expected.contains("matching"), "got {expected:?}")
            }
            other => panic!("expected Syntax error, got {other:?}"),
        }
        // Same for unbalanced type arguments.
        let err = parse_schema("CREATE TABLE t (a DECIMAL(12;", &opts()).unwrap_err();
        match err {
            IngestError::Syntax { expected, .. } => {
                assert!(expected.contains("matching"), "got {expected:?}")
            }
            other => panic!("expected Syntax error, got {other:?}"),
        }
    }

    #[test]
    fn multiple_tables_and_skipped_statements() {
        let p = parse_schema(
            "CREATE TABLE a (x INT);\n\
             CREATE INDEX idx ON a(x);\n\
             CREATE TABLE b (y CHAR(9));",
            &opts(),
        )
        .unwrap();
        assert_eq!(p.schema.n_tables(), 2);
        assert_eq!(p.skipped.len(), 1);
        assert_eq!(p.skipped[0].reason, SkipReason::NotADmlStatement);
        assert_eq!(p.schema.table_attrs(TableId(1)).len(), 1);
        assert_eq!(p.schema.width(vpart_model::AttrId(1)), 9.0);
    }

    #[test]
    fn numeric_precision_buckets() {
        let o = opts();
        assert_eq!(width_for_type("NUMERIC", &[4, 4], &o), (4.0, false));
        assert_eq!(width_for_type("NUMERIC", &[12, 2], &o), (8.0, false));
        assert_eq!(width_for_type("NUMERIC", &[38], &o), (20.0, false));
        assert_eq!(width_for_type("NUMERIC", &[], &o), (8.0, false));
        assert_eq!(width_for_type("GEOGRAPHY", &[], &o), (o.text_width, true));
    }

    #[test]
    fn two_word_types() {
        let p = parse_schema(
            "CREATE TABLE t (a DOUBLE PRECISION, b CHARACTER VARYING(20));",
            &opts(),
        )
        .unwrap();
        let widths: Vec<f64> = p.schema.attrs().iter().map(|a| a.width).collect();
        assert_eq!(widths, vec![8.0, 20.0]);
    }

    #[test]
    fn typed_errors_for_malformed_ddl() {
        assert!(matches!(
            parse_schema("CREATE TABLE t (a INT", &opts()),
            Err(IngestError::UnterminatedStatement { .. })
        ));
        assert!(matches!(
            parse_schema("CREATE TABLE t (a INT;", &opts()),
            Err(IngestError::Syntax { .. })
        ));
        assert!(matches!(
            parse_schema("CREATE TABLE t (a INT); CREATE TABLE T (b INT);", &opts()),
            Err(IngestError::DuplicateTable { line: 1, .. })
        ));
        assert_eq!(
            parse_schema("CREATE INDEX i ON t(x);", &opts()).unwrap_err(),
            IngestError::EmptySchema
        );
        assert_eq!(
            parse_schema("", &opts()).unwrap_err(),
            IngestError::EmptySchema
        );
    }

    #[test]
    fn if_not_exists_and_quoted_names() {
        let p = parse_schema(
            "CREATE TABLE IF NOT EXISTS \"Order\" (\"id\" INT);",
            &opts(),
        )
        .unwrap();
        assert_eq!(p.schema.tables()[0].name, "Order");
    }
}
