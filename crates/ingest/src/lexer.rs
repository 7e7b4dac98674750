//! SQL tokenizer: streams `;`-terminated statements of borrowed tokens.
//!
//! [`Lexer`] walks its input once and yields one [`Statement`] at a time.
//! Tokens borrow their text from the input (`Tok::Ident("c_id")`, never an
//! owned copy), and the statement's token and annotation buffers are
//! reused from one statement to the next, so once they have grown to the
//! longest statement a log lexes without allocating per token or per
//! statement. The one-line diagnostic snippet is built from the
//! statement's byte span only when a report entry asks for it
//! ([`Statement::snippet`]).
//!
//! Lexes a pragmatic SQL subset into identifier / number / string /
//! punctuation / parameter tokens with line numbers and strips comments.
//! Line numbers count every newline, including those inside `''`-escaped
//! string literals, quoted identifiers and `/* */` comments.
//!
//! Comments double as a side channel: a comment consisting entirely of
//! `key=value` pairs (e.g. `-- rows=10 freq=3` or `/*+ rows=10 */`) is an
//! *annotation comment*; its pairs are collected as [`Annotation`]s and
//! attached to the statement the comment naturally describes — a comment
//! inside a statement or on the same line as its terminating `;`
//! (`SELECT ...; -- rows=10`) annotates that statement, a comment on its
//! own line annotates the next one. Prose comments (anything that is not
//! purely pairs) are ignored, even if they mention `rows=10`.

use crate::error::IngestError;
use std::fmt;
use std::ops::Range;

/// A lexical token, borrowing its text from the input.
#[derive(Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Bare or quoted identifier / keyword (original spelling preserved).
    Ident(&'a str),
    /// Numeric literal, kept as text.
    Number(&'a str),
    /// String literal: the text between the quotes, `''` escapes as
    /// written (statement parsing never reads literal values).
    Str(&'a str),
    /// Single punctuation / operator character.
    Punct(char),
    /// Bind parameter: `?`, `$n` or `:name`.
    Param,
}

/// Syntax errors quote the offending token in this form; a string
/// literal shows its value (`''` unescaped).
impl fmt::Debug for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => f.debug_tuple("Ident").field(s).finish(),
            Tok::Number(s) => f.debug_tuple("Number").field(s).finish(),
            Tok::Str(s) => f.debug_tuple("Str").field(&s.replace("''", "'")).finish(),
            Tok::Punct(c) => f.debug_tuple("Punct").field(c).finish(),
            Tok::Param => f.write_str("Param"),
        }
    }
}

impl Tok<'_> {
    /// Uppercased identifier text, if this is an identifier.
    pub fn keyword(&self) -> Option<String> {
        match self {
            Tok::Ident(s) => Some(s.to_ascii_uppercase()),
            _ => None,
        }
    }

    /// True if this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A token with its source line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based source line.
    pub line: u32,
}

/// A `key=value` pair mined from a comment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annotation<'a> {
    /// The key as written (`rows`, `freq`, `txn`, ...); lookups ignore
    /// ASCII case.
    pub key: &'a str,
    /// Raw value text.
    pub value: &'a str,
    /// 1-based source line of the comment.
    pub line: u32,
}

/// One `;`-terminated statement with its annotations.
#[derive(Debug, Clone, Default)]
pub struct Statement<'a> {
    /// The statement's tokens (terminator excluded).
    pub tokens: Vec<Token<'a>>,
    /// Annotations attached to this statement.
    pub annotations: Vec<Annotation<'a>>,
    /// Line the statement starts on.
    pub line: u32,
    /// Byte range of the statement in the input: first token up to the
    /// terminating `;` (exclusive).
    pub(crate) span: Range<usize>,
    src: &'a str,
}

impl<'a> Statement<'a> {
    /// The statement's leading keyword (uppercased), if any.
    pub fn head(&self) -> Option<String> {
        self.tokens.first().and_then(|t| t.tok.keyword())
    }

    /// Annotation lookup by key (ASCII case-insensitive); the first
    /// occurrence wins.
    pub fn annotation(&self, key: &str) -> Option<&'a str> {
        self.annotations
            .iter()
            .find(|a| a.key.eq_ignore_ascii_case(key))
            .map(|a| a.value)
    }

    /// Short one-line source snippet for diagnostics.
    pub fn snippet(&self) -> String {
        snippet(&self.src[self.span.clone()])
    }
}

/// The one-line diagnostic snippet of `text`: whitespace runs collapsed,
/// cut at 60 bytes.
pub(crate) fn snippet(text: &str) -> String {
    const MAX: usize = 60;
    let raw: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
    if raw.len() <= MAX {
        raw
    } else {
        let mut cut = MAX;
        while !raw.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &raw[..cut])
    }
}

/// Scans comment text for `key=value` pairs, appending them to `out`.
///
/// Only *annotation comments* — whose entire content (after an optional
/// leading `+` hint marker) is `key=value` pairs — are mined; prose
/// comments that merely mention `rows=10` are left alone.
fn mine_annotations<'a>(text: &'a str, line: u32, out: &mut Vec<Annotation<'a>>) {
    let before = out.len();
    for word in text
        .trim_start()
        .trim_start_matches('+')
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|w| !w.is_empty())
    {
        let pair = word.split_once('=').filter(|(k, v)| {
            !k.is_empty()
                && !v.is_empty()
                && k.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        });
        let Some((key, value)) = pair else {
            out.truncate(before); // prose comment
            return;
        };
        out.push(Annotation { key, value, line });
    }
}

/// One lexical unit between statement boundaries.
#[derive(Debug)]
enum Lexeme<'a> {
    Token(Tok<'a>),
    Comment(&'a str),
    Semicolon,
    End,
}

/// Streams the `;`-terminated statements of an input.
///
/// Empty statements (stray `;`) are dropped. Trailing tokens without a
/// terminating `;` are an [`IngestError::UnterminatedStatement`].
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    stmt: Statement<'a>,
    /// The lexeme that ended the previous statement's trailing comments:
    /// the first one of the next statement.
    pending: Option<(usize, u32, Lexeme<'a>)>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
            stmt: Statement {
                src,
                ..Statement::default()
            },
            pending: None,
        }
    }

    /// The next statement, or `None` at the end of the input. The
    /// returned statement lives in a buffer the next call overwrites.
    pub fn next_statement(&mut self) -> Result<Option<&mut Statement<'a>>, IngestError> {
        self.stmt.tokens.clear();
        self.stmt.annotations.clear();
        let mut start = self.pos;
        loop {
            let (at, line, lexeme) = match self.pending.take() {
                Some(next) => next,
                None => self.lexeme()?,
            };
            match lexeme {
                Lexeme::End => {
                    return match self.stmt.tokens.first() {
                        Some(t) => Err(IngestError::UnterminatedStatement { line: t.line }),
                        None => Ok(None),
                    };
                }
                Lexeme::Comment(body) => mine_annotations(body, line, &mut self.stmt.annotations),
                Lexeme::Token(tok) => {
                    if self.stmt.tokens.is_empty() {
                        start = at;
                    }
                    self.stmt.tokens.push(Token { tok, line });
                }
                // A stray `;` ends an empty statement: its annotations
                // describe nothing.
                Lexeme::Semicolon if self.stmt.tokens.is_empty() => self.stmt.annotations.clear(),
                Lexeme::Semicolon => {
                    self.stmt.line = self.stmt.tokens[0].line;
                    self.stmt.span = start..at;
                    self.attach_trailing_comments(line)?;
                    return Ok(Some(&mut self.stmt));
                }
            }
        }
    }

    /// Mines the comments that follow a statement's `;` on the same line
    /// (before any further token) into that statement; the first lexeme
    /// that belongs to the next statement is kept for it.
    fn attach_trailing_comments(&mut self, end_line: u32) -> Result<(), IngestError> {
        loop {
            match self.lexeme()? {
                (_, at, Lexeme::Comment(body)) if at == end_line => {
                    mine_annotations(body, at, &mut self.stmt.annotations)
                }
                (_, at, Lexeme::Semicolon) if at == end_line => {}
                next => {
                    self.pending = Some(next);
                    return Ok(());
                }
            }
        }
    }

    /// Lexes past whitespace to the next lexeme: its byte offset, line
    /// and kind. On error the position is left where the lexeme starts.
    fn lexeme(&mut self) -> Result<(usize, u32, Lexeme<'a>), IngestError> {
        let src = self.src;
        let bytes = src.as_bytes();
        let (mut i, mut line) = (self.pos, self.line);
        loop {
            let Some(&b) = bytes.get(i) else {
                (self.pos, self.line) = (i, line);
                return Ok((i, line, Lexeme::End));
            };
            match b {
                b'\n' => {
                    line += 1;
                    i += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    i += 1;
                    continue;
                }
                _ => {}
            }
            (self.pos, self.line) = (i, line);
            let next = bytes.get(i + 1).copied();
            let (end, lexeme) = match b {
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let j = run_end(bytes, i + 1, |b| {
                        b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
                    });
                    (j, Lexeme::Token(Tok::Ident(&src[i..j])))
                }
                b if b.is_ascii_digit() => {
                    let mut j = i + 1;
                    while let Some(&b) = bytes.get(j) {
                        let exponent_sign =
                            matches!(b, b'+' | b'-') && matches!(bytes[j - 1], b'e' | b'E');
                        if !(b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E') || exponent_sign)
                        {
                            break;
                        }
                        j += 1;
                    }
                    (j, Lexeme::Token(Tok::Number(&src[i..j])))
                }
                b'-' if next == Some(b'-') => {
                    let end = src[i..].find('\n').map_or(src.len(), |n| i + n);
                    (end, Lexeme::Comment(&src[i + 2..end]))
                }
                b'/' if next == Some(b'*') => {
                    let Some(n) = src[i + 2..].find("*/") else {
                        return Err(IngestError::UnterminatedComment { line });
                    };
                    let body = &src[i + 2..i + 2 + n];
                    self.line += newlines(body);
                    (i + n + 4, Lexeme::Comment(body))
                }
                b';' => (i + 1, Lexeme::Semicolon),
                b'\'' => {
                    // `''` inside the literal is an escaped quote.
                    let mut j = i + 1;
                    loop {
                        match bytes.get(j) {
                            None => return Err(IngestError::UnterminatedString { line }),
                            Some(b'\'') if bytes.get(j + 1) == Some(&b'\'') => j += 2,
                            Some(b'\'') => break,
                            Some(_) => j += 1,
                        }
                    }
                    self.line += newlines(&src[i..j]);
                    (j + 1, Lexeme::Token(Tok::Str(&src[i + 1..j])))
                }
                b'"' | b'`' => {
                    let Some(n) = src[i + 1..].find(b as char) else {
                        return Err(IngestError::UnterminatedString { line });
                    };
                    let name = &src[i + 1..i + 1 + n];
                    self.line += newlines(name);
                    (i + n + 2, Lexeme::Token(Tok::Ident(name)))
                }
                b'?' => (i + 1, Lexeme::Token(Tok::Param)),
                b'$' | b':' if next.is_some_and(|n| n.is_ascii_alphanumeric() || n == b'_') => {
                    let j = run_end(bytes, i + 1, |b| b.is_ascii_alphanumeric() || b == b'_');
                    (j, Lexeme::Token(Tok::Param))
                }
                b if b.is_ascii() => (i + 1, Lexeme::Token(Tok::Punct(b as char))),
                _ => {
                    let c = src[i..]
                        .chars()
                        .next()
                        .unwrap_or(char::REPLACEMENT_CHARACTER);
                    if c.is_whitespace() {
                        i += c.len_utf8();
                        continue;
                    }
                    (i + c.len_utf8(), Lexeme::Token(Tok::Punct(c)))
                }
            };
            self.pos = end;
            return Ok((i, line, lexeme));
        }
    }

    /// Turns an error met while processing the statements into the error
    /// ingestion reports: a lexical error anywhere later in the input
    /// takes precedence, exactly as if the whole input had been lexed
    /// before the first statement was processed.
    pub(crate) fn first_error(&mut self, e: IngestError) -> IngestError {
        loop {
            match self.next_statement() {
                Ok(Some(_)) => {}
                Ok(None) => return e,
                Err(lexical) => return lexical,
            }
        }
    }
}

/// Newlines in `text`, as a line-count increment.
fn newlines(text: &str) -> u32 {
    text.bytes().filter(|&b| b == b'\n').count() as u32
}

/// End of the run of bytes from `start` on that satisfy `keep`.
fn run_end(bytes: &[u8], start: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |n| start + n)
}

/// Lexes all of `src` into owned statements — for short inputs such as
/// one statistics-dump template, where every statement is needed at once.
pub(crate) fn statements(src: &str) -> Result<Vec<Statement<'_>>, IngestError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(stmt) = lexer.next_statement()? {
        out.push(stmt.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_tracks_lines() {
        let sts = statements("SELECT a\nFROM t;\nSELECT b FROM u;").unwrap();
        assert_eq!(sts.len(), 2);
        assert_eq!(sts[0].line, 1);
        assert_eq!(sts[1].line, 3);
        assert_eq!(sts[0].head().as_deref(), Some("SELECT"));
        assert!(sts[0].tokens.iter().any(|t| t.tok.is_kw("from")));
    }

    #[test]
    fn annotations_attach_to_their_statement() {
        let sts =
            statements("-- freq=2\nSELECT a FROM t WHERE b = ?; -- rows=10\nUPDATE t SET a = 1;")
                .unwrap();
        // Leading comment annotates the statement after it; the trailing
        // comment on the `;` line annotates the statement it closes.
        assert_eq!(sts[0].annotation("freq"), Some("2"));
        assert_eq!(sts[0].annotation("rows"), Some("10"));
        assert_eq!(sts[1].annotation("rows"), None);
    }

    #[test]
    fn own_line_comment_annotates_the_next_statement() {
        let sts = statements("SELECT a FROM t;\n-- rows=7\nSELECT b FROM t;").unwrap();
        assert_eq!(sts[0].annotation("rows"), None);
        assert_eq!(sts[1].annotation("rows"), Some("7"));
    }

    #[test]
    fn hint_comments_attach_inline() {
        let sts = statements("SELECT /*+ rows=10 */ a FROM t;").unwrap();
        assert_eq!(sts[0].annotation("rows"), Some("10"));
        assert_eq!(sts[0].annotation("ROWS"), Some("10"), "keys ignore case");
    }

    #[test]
    fn prose_comments_are_not_mined() {
        let sts =
            statements("-- annotate with rows=10 to mark iterated statements\nSELECT a FROM t;")
                .unwrap();
        assert_eq!(sts[0].annotation("rows"), None);
    }

    #[test]
    fn strings_and_quoted_idents() {
        let sts = statements("INSERT INTO \"Order\" VALUES ('it''s', 3.5e2, ?, $1);").unwrap();
        let toks: Vec<&Tok> = sts[0].tokens.iter().map(|t| &t.tok).collect();
        assert!(toks.contains(&&Tok::Ident("Order")));
        assert!(toks.contains(&&Tok::Str("it''s")));
        assert_eq!(format!("{:?}", Tok::Str("it''s")), r#"Str("it's")"#);
        assert!(toks.contains(&&Tok::Number("3.5e2")));
        assert_eq!(toks.iter().filter(|t| ***t == Tok::Param).count(), 2);
    }

    #[test]
    fn unterminated_inputs_are_typed_errors() {
        assert_eq!(
            statements("SELECT 'oops").unwrap_err(),
            IngestError::UnterminatedString { line: 1 }
        );
        assert_eq!(
            statements("/* never closed").unwrap_err(),
            IngestError::UnterminatedComment { line: 1 }
        );
        assert_eq!(
            statements("SELECT a\nFROM t").unwrap_err(),
            IngestError::UnterminatedStatement { line: 1 }
        );
    }

    #[test]
    fn empty_statements_are_dropped() {
        assert!(statements(";;;  ;").unwrap().is_empty());
        assert!(statements("-- only a comment\n").unwrap().is_empty());
    }

    #[test]
    fn snippet_is_compact() {
        let long = format!("SELECT {} FROM t;", vec!["col"; 40].join(", "));
        let sts = statements(&long).unwrap();
        assert!(sts[0].snippet().len() <= 63);
        assert!(sts[0].snippet().starts_with("SELECT"));
    }

    #[test]
    fn multi_line_literals_and_comments_keep_line_numbers() {
        let src = "SELECT a FROM t WHERE b = 'it''s\nlong';\n\
                   SELECT \"odd\nname\" FROM t;\n\
                   /* two\nlines */ SELECT c\nFROM t;\n\
                   SELECT d FROM t;";
        let sts = statements(src).unwrap();
        let lines: Vec<u32> = sts.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 3, 6, 8]);
        assert_eq!(sts[2].tokens.last().map(|t| t.line), Some(7));
        assert_eq!(sts[0].snippet(), "SELECT a FROM t WHERE b = 'it''s long'");
    }

    #[test]
    fn trailing_comments_stop_at_the_next_token_or_line() {
        // Same line, after a stray `;`: still the closed statement's.
        let sts = statements("SELECT a FROM t; ; -- rows=3\nSELECT b FROM t;").unwrap();
        assert_eq!(sts[0].annotation("rows"), Some("3"));
        assert_eq!(sts[1].annotation("rows"), None);
        // A comment after the next statement's first token is that one's.
        let sts = statements("SELECT a FROM t; SELECT /*+ rows=4 */ b FROM t;").unwrap();
        assert_eq!(sts[0].annotation("rows"), None);
        assert_eq!(sts[1].annotation("rows"), Some("4"));
        // A block comment opened on the `;` line annotates the closed
        // statement; the line after it starts afresh.
        let sts = statements("SELECT a FROM t; /* rows=5\n*/ -- sel=2\nSELECT b FROM t;").unwrap();
        assert_eq!(sts[0].annotation("rows"), Some("5"));
        assert_eq!(sts[1].annotation("sel"), Some("2"));
        assert_eq!(sts[1].line, 3);
    }

    #[test]
    fn lexical_errors_later_in_the_input_take_precedence() {
        let mut lexer = Lexer::new("SELECT a FROM t;\nSELECT b FROM t;\nSELECT 'oops");
        assert!(lexer.next_statement().unwrap().is_some());
        let e = IngestError::NothingIngested { statements: 1 };
        assert_eq!(
            lexer.first_error(e),
            IngestError::UnterminatedString { line: 3 }
        );
        let mut lexer = Lexer::new("SELECT a FROM t;\nSELECT b FROM t;");
        let e = IngestError::NothingIngested { statements: 1 };
        assert_eq!(lexer.first_error(e.clone()), e);
    }
}
