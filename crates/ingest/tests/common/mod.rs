//! The seeded SQL generator shared by the ingestion fuzz and parity
//! tests: random schemas and random well-formed logs (and statistics
//! dumps) with noisy formatting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const TYPES: &[&str] = &[
    "INT",
    "BIGINT",
    "SMALLINT",
    "DECIMAL(12,2)",
    "NUMERIC(4,4)",
    "VARCHAR(32)",
    "CHAR(9)",
    "TEXT",
    "TIMESTAMP",
    "DOUBLE PRECISION",
];

pub struct Gen {
    rng: StdRng,
    tables: Vec<(String, Vec<String>)>,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_tables = rng.gen_range(1..=4);
        let tables = (0..n_tables)
            .map(|t| {
                let cols = (0..rng.gen_range(1..=8usize))
                    .map(|c| format!("t{t}_c{c}"))
                    .collect();
                (format!("tab{t}"), cols)
            })
            .collect();
        Gen { rng, tables }
    }

    pub fn ddl(&mut self) -> String {
        let mut out = String::new();
        for (name, cols) in self.tables.clone() {
            out.push_str(&format!("CREATE TABLE {name} (\n"));
            for (i, c) in cols.iter().enumerate() {
                let ty = TYPES[self.rng.gen_range(0..TYPES.len())];
                let constraint = match self.rng.gen_range(0..4u32) {
                    0 => " NOT NULL",
                    1 => " PRIMARY KEY",
                    2 => " DEFAULT 0",
                    _ => "",
                };
                out.push_str(&format!("  {c} {ty}{constraint}"));
                out.push_str(if i + 1 < cols.len() { ",\n" } else { "\n" });
            }
            if self.rng.gen_bool(0.3) {
                out.push_str(&format!("  , UNIQUE ({})\n", cols[0]));
            }
            out.push_str(");\n");
        }
        out
    }

    fn pick_table(&mut self) -> usize {
        self.rng.gen_range(0..self.tables.len())
    }

    fn some_cols(&mut self, t: usize) -> Vec<String> {
        let cols = self.tables[t].1.clone();
        let n = self.rng.gen_range(1..=cols.len());
        let mut picked = cols;
        picked.shuffle(&mut self.rng);
        picked.truncate(n);
        picked
    }

    fn literal(&mut self) -> String {
        match self.rng.gen_range(0..4u32) {
            0 => "?".to_string(),
            1 => format!("{}", self.rng.gen_range(0..1000u32)),
            2 => format!("{:.2}", self.rng.gen_range(0.0..100.0)),
            _ => "'some''text'".to_string(),
        }
    }

    fn predicate(&mut self, t: usize) -> String {
        let cols = self.some_cols(t);
        let parts: Vec<String> = cols
            .iter()
            .map(|c| {
                let op = ["=", "<", ">=", "<>"][self.rng.gen_range(0..4)];
                format!("{c} {op} {}", self.literal())
            })
            .collect();
        parts.join(" AND ")
    }

    /// Random casing noise: SQL keywords are case-insensitive.
    fn casing(&mut self, s: &str) -> String {
        if self.rng.gen_bool(0.5) {
            s.to_string()
        } else {
            s.to_ascii_lowercase()
        }
    }

    /// A multi-table statement (join / IN-subquery / INSERT ... SELECT).
    /// Column names are unique per table, so unqualified references stay
    /// unambiguous.
    fn multi_table_statement(&mut self, t: usize) -> String {
        let u = (t + 1 + self.rng.gen_range(0..self.tables.len() - 1)) % self.tables.len();
        let (t_name, t_cols) = self.tables[t].clone();
        let (u_name, u_cols) = self.tables[u].clone();
        match self.rng.gen_range(0..3u32) {
            0 => {
                let join_kind = ["JOIN", "INNER JOIN", "LEFT OUTER JOIN", ","]
                    [self.rng.gen_range(0..4)]
                .to_string();
                let sep = if join_kind == "," {
                    ", ".to_string()
                } else {
                    format!(" {join_kind} ")
                };
                let on = if join_kind == "," {
                    format!(" WHERE {} = {}", t_cols[0], u_cols[0])
                } else {
                    format!(" ON {} = {}", t_cols[0], u_cols[0])
                };
                format!(
                    "SELECT {}, {} FROM {t_name}{sep}{u_name}{on}",
                    self.some_cols(t).join(", "),
                    self.some_cols(u).join(", "),
                )
            }
            1 => format!(
                "SELECT {} FROM {t_name} WHERE {} IN (SELECT {} FROM {u_name} WHERE {})",
                self.some_cols(t).join(", "),
                t_cols[0],
                u_cols[0],
                self.predicate(u),
            ),
            _ => {
                let targets = self.some_cols(t);
                let sources: Vec<String> = targets
                    .iter()
                    .enumerate()
                    .map(|(i, _)| u_cols[i % u_cols.len()].clone())
                    .collect();
                format!(
                    "INSERT INTO {t_name} ({}) SELECT {} FROM {u_name} WHERE {}",
                    targets.join(", "),
                    sources.join(", "),
                    self.predicate(u),
                )
            }
        }
    }

    fn statement(&mut self) -> String {
        let t = self.pick_table();
        let table = self.tables[t].0.clone();
        if self.tables.len() >= 2 && self.rng.gen_bool(0.25) {
            let stmt = self.multi_table_statement(t);
            return format!("{stmt};");
        }
        let kind = self.rng.gen_range(0..4u32);
        let stmt = match kind {
            0 => {
                let cols = self.some_cols(t).join(", ");
                let kw = self.casing("SELECT");
                let from = self.casing("FROM");
                if self.rng.gen_bool(0.7) {
                    let wh = self.casing("WHERE");
                    format!("{kw} {cols} {from} {table} {wh} {}", self.predicate(t))
                } else {
                    format!("{kw} {cols} {from} {table}")
                }
            }
            1 => {
                let cols = self.some_cols(t);
                let vals: Vec<String> = cols.iter().map(|_| self.literal()).collect();
                format!(
                    "INSERT INTO {table} ({}) VALUES ({})",
                    cols.join(", "),
                    vals.join(", ")
                )
            }
            2 => {
                let target = self.some_cols(t)[0].clone();
                format!(
                    "UPDATE {table} SET {target} = {} WHERE {}",
                    self.literal(),
                    self.predicate(t)
                )
            }
            _ => format!("DELETE FROM {table} WHERE {}", self.predicate(t)),
        };
        let annotation = match self.rng.gen_range(0..5u32) {
            0 => format!(" -- rows={}", self.rng.gen_range(1..20u32)),
            1 => format!(" -- freq={}", self.rng.gen_range(1..100u32)),
            _ => String::new(),
        };
        format!("{stmt};{annotation}")
    }

    pub fn log(&mut self) -> (String, usize) {
        let mut out = String::new();
        let mut statements = 0usize;
        let blocks = self.rng.gen_range(1..=6usize);
        for b in 0..blocks {
            if self.rng.gen_bool(0.4) {
                out.push_str(&format!("BEGIN; -- txn=blk{b}\n"));
                for _ in 0..self.rng.gen_range(1..=4usize) {
                    out.push_str(&self.statement());
                    out.push('\n');
                    statements += 1;
                }
                out.push_str("COMMIT;\n");
            } else {
                for _ in 0..self.rng.gen_range(1..=3usize) {
                    out.push_str(&self.statement());
                    out.push('\n');
                    statements += 1;
                }
            }
        }
        (out, statements)
    }
}

impl Gen {
    /// Renders statements as a `pg_stat_statements`-shaped CSV dump with
    /// random quoting, random extra columns and occasional `txn` groups.
    pub fn pgss_csv(&mut self) -> (String, usize) {
        let extra = self.rng.gen_bool(0.5);
        let mut out = String::from(if extra {
            "userid,query,calls,total_exec_time,rows,txn\n"
        } else {
            "query,calls,rows,txn\n"
        });
        let n = self.rng.gen_range(1..=8usize);
        for i in 0..n {
            let stmt = self.statement();
            let stmt = stmt.trim_end_matches(';');
            // Annotation comments in the template are legal; keep the
            // generator's occasional `-- rows=` suffix out of CSV text.
            let stmt = stmt.split(" -- ").next().unwrap().replace('"', "\"\"");
            let calls = self.rng.gen_range(1..500u32);
            let rows = if self.rng.gen_bool(0.5) {
                format!("{}", self.rng.gen_range(0..2000u32))
            } else {
                String::new()
            };
            let txn = if self.rng.gen_bool(0.3) {
                format!("grp{}", self.rng.gen_range(0..3u32))
            } else {
                String::new()
            };
            if extra {
                out.push_str(&format!("7,\"{stmt}\",{calls},1.25,{rows},{txn}\n"));
            } else {
                out.push_str(&format!("\"{stmt}\",{calls},{rows},{txn}\n"));
            }
            let _ = i;
        }
        (out, n)
    }

    /// Renders statements as a `performance_schema` digest TSV dump.
    pub fn perf_schema_tsv(&mut self) -> (String, usize) {
        let mut out = String::from("DIGEST_TEXT\tCOUNT_STAR\tSUM_ROWS_EXAMINED\tSUM_ROWS_SENT\n");
        let n = self.rng.gen_range(1..=8usize);
        for _ in 0..n {
            let stmt = self.statement();
            let stmt = stmt.trim_end_matches(';');
            let stmt = stmt.split(" -- ").next().unwrap().replace('\t', " ");
            let count = self.rng.gen_range(1..500u32);
            let examined = self.rng.gen_range(0..5000u32);
            let sent = if self.rng.gen_bool(0.3) {
                "NULL".to_string()
            } else {
                format!("{}", self.rng.gen_range(0..2000u32))
            };
            out.push_str(&format!("{stmt}\t{count}\t{examined}\t{sent}\n"));
        }
        (out, n)
    }
}
