//! Write-ahead migration journal.
//!
//! A batched migration is crash-safe because every state transition is
//! journaled *before* it takes effect and committed *after*: `BatchBegin`
//! is appended before a batch's ops touch storage, `BatchCommit` (carrying
//! the batch's metered bytes) only once the batch fully applied. A crash
//! therefore leaves the journal in one of two shapes — last record is a
//! commit (the deployment is exactly at that batch boundary) or a begin
//! (the batch may be half-applied, but the *logical* boundary is still the
//! last commit, and recovery rebuilds fragments deterministically from
//! it). The byte meter is derived from commit records alone, so replaying
//! a batch after a crash never double-counts.
//!
//! Rollbacks journal symmetrically (`RollbackBegin`, `UndoBegin`/
//! `UndoCommit` per batch in reverse order, `RolledBack`), so a crash
//! mid-rollback resumes the rollback rather than restarting it.
//!
//! The serialized form is JSONL: one `{"crc": <fnv64>, "rec": {...}}`
//! object per line, where `crc` is an FNV-1a checksum of the record's
//! compact JSON encoding. [`MigrationJournal::from_jsonl`] detects
//! truncation, bit-rot and editing (checksum mismatch, malformed JSON,
//! impossible record sequences) and reports them as
//! [`EngineError::CorruptJournal`]. The `Start` record pins the
//! [`BatchedMigrationPlan::fingerprint`] so recovery refuses to replay a
//! journal against a different plan.
//!
//! [`BatchedMigrationPlan::fingerprint`]: vpart_model::BatchedMigrationPlan::fingerprint

use crate::executor::EngineError;
use serde::{Deserialize, Serialize, Value};

/// One journal record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// Migration opened: pins the plan fingerprint, batch count and row
    /// count. Always the first record.
    Start {
        /// `BatchedMigrationPlan::fingerprint()` of the plan being run.
        fingerprint: u64,
        /// Total number of batches in the plan.
        batches: usize,
        /// The deployment's rows-per-fragment the byte meter assumes.
        rows_per_fragment: usize,
    },
    /// Batch `batch` is about to be applied (write-ahead).
    BatchBegin {
        /// Zero-based batch index.
        batch: usize,
    },
    /// Batch `batch` fully applied; `bytes` is its metered install bytes.
    BatchCommit {
        /// Zero-based batch index.
        batch: usize,
        /// Engine-metered bytes shipped by this batch.
        bytes: f64,
    },
    /// All batches committed; the migration reached `plan.to`.
    Complete {
        /// Total metered bytes, `Σ` of all commit records.
        bytes_moved: f64,
    },
    /// A rollback to `plan.from` was requested.
    RollbackBegin,
    /// Undo of committed batch `batch` is about to be applied.
    UndoBegin {
        /// Zero-based batch index being undone.
        batch: usize,
    },
    /// Undo of batch `batch` fully applied; `bytes` is the re-install
    /// bytes the undo shipped (resurrecting dropped replicas).
    UndoCommit {
        /// Zero-based batch index undone.
        batch: usize,
        /// Engine-metered bytes shipped by the undo.
        bytes: f64,
    },
    /// Rollback finished; the deployment is back at `plan.from`.
    RolledBack,
}

impl Serialize for JournalRecord {
    fn to_value(&self) -> Value {
        let fields = match *self {
            Self::Start {
                fingerprint,
                batches,
                rows_per_fragment,
            } => vec![
                ("t".to_string(), "start".to_value()),
                ("fingerprint".to_string(), fingerprint.to_value()),
                ("batches".to_string(), batches.to_value()),
                (
                    "rows_per_fragment".to_string(),
                    rows_per_fragment.to_value(),
                ),
            ],
            Self::BatchBegin { batch } => vec![
                ("t".to_string(), "batch_begin".to_value()),
                ("batch".to_string(), batch.to_value()),
            ],
            Self::BatchCommit { batch, bytes } => vec![
                ("t".to_string(), "batch_commit".to_value()),
                ("batch".to_string(), batch.to_value()),
                ("bytes".to_string(), bytes.to_value()),
            ],
            Self::Complete { bytes_moved } => vec![
                ("t".to_string(), "complete".to_value()),
                ("bytes_moved".to_string(), bytes_moved.to_value()),
            ],
            Self::RollbackBegin => vec![("t".to_string(), "rollback_begin".to_value())],
            Self::UndoBegin { batch } => vec![
                ("t".to_string(), "undo_begin".to_value()),
                ("batch".to_string(), batch.to_value()),
            ],
            Self::UndoCommit { batch, bytes } => vec![
                ("t".to_string(), "undo_commit".to_value()),
                ("batch".to_string(), batch.to_value()),
                ("bytes".to_string(), bytes.to_value()),
            ],
            Self::RolledBack => vec![("t".to_string(), "rolled_back".to_value())],
        };
        Value::Object(fields)
    }
}

impl Deserialize for JournalRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let tag = v.expect_field("t")?.expect_str()?;
        let batch = |v: &Value| usize::from_value(v.expect_field("batch")?);
        let bytes = |v: &Value| f64::from_value(v.expect_field("bytes")?);
        match tag {
            "start" => Ok(Self::Start {
                fingerprint: u64::from_value(v.expect_field("fingerprint")?)?,
                batches: usize::from_value(v.expect_field("batches")?)?,
                rows_per_fragment: usize::from_value(v.expect_field("rows_per_fragment")?)?,
            }),
            "batch_begin" => Ok(Self::BatchBegin { batch: batch(v)? }),
            "batch_commit" => Ok(Self::BatchCommit {
                batch: batch(v)?,
                bytes: bytes(v)?,
            }),
            "complete" => Ok(Self::Complete {
                bytes_moved: f64::from_value(v.expect_field("bytes_moved")?)?,
            }),
            "rollback_begin" => Ok(Self::RollbackBegin),
            "undo_begin" => Ok(Self::UndoBegin { batch: batch(v)? }),
            "undo_commit" => Ok(Self::UndoCommit {
                batch: batch(v)?,
                bytes: bytes(v)?,
            }),
            "rolled_back" => Ok(Self::RolledBack),
            other => Err(serde::Error::custom(format!(
                "unknown journal record tag {other:?}"
            ))),
        }
    }
}

/// The durable state a journal implies, derived by replaying its records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalState {
    /// Batches with a commit record (forward progress).
    pub committed: usize,
    /// Committed batches whose undo has committed (rollback progress).
    pub undone: usize,
    /// A `RollbackBegin` was journaled and `RolledBack` was not.
    pub rolling_back: bool,
    /// The migration completed forward (`Complete` present).
    pub complete: bool,
    /// The migration fully rolled back (`RolledBack` present).
    pub rolled_back: bool,
    /// `Σ` bytes over `BatchCommit` records (the durable forward meter).
    pub bytes_committed: f64,
    /// `Σ` bytes over `UndoCommit` records (the durable rollback meter).
    pub bytes_undone: f64,
}

impl JournalState {
    /// The batch boundary the deployment logically sits at: committed
    /// batches minus committed undos. Recovery rebuilds fragments for
    /// exactly this boundary.
    pub fn boundary(&self) -> usize {
        self.committed - self.undone
    }

    /// True once a terminal record was journaled; nothing may follow.
    pub fn terminal(&self) -> bool {
        self.complete || self.rolled_back
    }
}

/// An append-only migration journal (in memory, serializable to JSONL).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationJournal {
    records: Vec<JournalRecord>,
    /// The state `records` imply, advanced by every append.
    state: JournalState,
}

impl MigrationJournal {
    /// An empty journal (a migration not yet started).
    pub fn new() -> Self {
        Self::default()
    }

    /// The records, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record, enforcing the legal sequence (`Start` first and
    /// only first, contiguous batch/undo indices, nothing after a
    /// terminal record). The executor only appends legal sequences;
    /// violations indicate caller bugs and surface as
    /// [`EngineError::CorruptJournal`] rather than panics.
    pub fn append(&mut self, rec: JournalRecord) -> Result<(), EngineError> {
        self.check_next(rec)?;
        self.records.push(rec);
        let st = &mut self.state;
        match rec {
            JournalRecord::Start { .. }
            | JournalRecord::BatchBegin { .. }
            | JournalRecord::UndoBegin { .. } => {}
            JournalRecord::BatchCommit { bytes, .. } => {
                st.committed += 1;
                st.bytes_committed += bytes;
            }
            JournalRecord::Complete { .. } => st.complete = true,
            JournalRecord::RollbackBegin => st.rolling_back = true,
            JournalRecord::UndoCommit { bytes, .. } => {
                st.undone += 1;
                st.bytes_undone += bytes;
            }
            JournalRecord::RolledBack => {
                st.rolling_back = false;
                st.rolled_back = true;
            }
        }
        Ok(())
    }

    /// The derived durable state: the records folded in append order.
    pub fn state(&self) -> JournalState {
        self.state
    }

    /// The plan fingerprint pinned by the `Start` record, if any.
    pub fn fingerprint(&self) -> Option<u64> {
        self.records.first().and_then(|r| match *r {
            JournalRecord::Start { fingerprint, .. } => Some(fingerprint),
            _ => None,
        })
    }

    /// Serializes to JSONL: one checksummed record per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            let body = rec.to_value().to_string();
            let line = Value::Object(vec![
                ("crc".to_string(), fnv64(body.as_bytes()).to_value()),
                ("rec".to_string(), rec.to_value()),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses JSONL produced by [`to_jsonl`](Self::to_jsonl), verifying
    /// per-line checksums and the record sequence. Any damage — malformed
    /// JSON, checksum mismatch, an impossible sequence — is a
    /// [`EngineError::CorruptJournal`] naming the offending line.
    pub fn from_jsonl(text: &str) -> Result<Self, EngineError> {
        let corrupt = |line: usize, what: &str| EngineError::CorruptJournal {
            what: format!("line {}: {what}", line + 1),
        };
        let mut journal = Self::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| corrupt(i, &format!("malformed JSON ({e})")))?;
            let crc = v
                .get("crc")
                .and_then(Value::as_u64)
                .ok_or_else(|| corrupt(i, "missing crc"))?;
            let rec_v = v.get("rec").ok_or_else(|| corrupt(i, "missing rec"))?;
            let rec = JournalRecord::from_value(rec_v)
                .map_err(|e| corrupt(i, &format!("bad record ({e})")))?;
            // The checksum covers the record's canonical encoding; a
            // round-trip through `from_value` canonicalizes field order.
            let body = rec.to_value().to_string();
            if fnv64(body.as_bytes()) != crc {
                return Err(corrupt(i, "checksum mismatch"));
            }
            journal
                .append(rec)
                .map_err(|e| corrupt(i, &format!("illegal sequence ({e})")))?;
        }
        Ok(journal)
    }

    /// Validates that `rec` may legally follow the current tail.
    fn check_next(&self, rec: JournalRecord) -> Result<(), EngineError> {
        let bad = |what: &str| EngineError::CorruptJournal {
            what: what.to_string(),
        };
        let st = self.state;
        if st.terminal() {
            return Err(bad("record after a terminal Complete/RolledBack"));
        }
        match rec {
            JournalRecord::Start { .. } => {
                if !self.records.is_empty() {
                    return Err(bad("Start is only legal as the first record"));
                }
            }
            _ if self.records.is_empty() => {
                return Err(bad("first record must be Start"));
            }
            JournalRecord::BatchBegin { batch } => {
                if st.rolling_back {
                    return Err(bad("BatchBegin during a rollback"));
                }
                if batch != st.committed {
                    return Err(bad("BatchBegin out of order"));
                }
            }
            JournalRecord::BatchCommit { batch, .. } => {
                if batch != st.committed
                    || !matches!(
                        self.records.last(),
                        Some(JournalRecord::BatchBegin { batch: b }) if *b == batch
                    )
                {
                    return Err(bad("BatchCommit without its BatchBegin"));
                }
            }
            JournalRecord::Complete { .. } => {
                if st.rolling_back {
                    return Err(bad("Complete during a rollback"));
                }
            }
            JournalRecord::RollbackBegin => {
                if st.rolling_back {
                    return Err(bad("nested RollbackBegin"));
                }
            }
            JournalRecord::UndoBegin { batch } => {
                if !st.rolling_back {
                    return Err(bad("UndoBegin outside a rollback"));
                }
                if batch + 1 != st.boundary() {
                    return Err(bad("UndoBegin out of order"));
                }
            }
            JournalRecord::UndoCommit { batch, .. } => {
                if !matches!(
                    self.records.last(),
                    Some(JournalRecord::UndoBegin { batch: b }) if *b == batch
                ) {
                    return Err(bad("UndoCommit without its UndoBegin"));
                }
            }
            JournalRecord::RolledBack => {
                if !st.rolling_back {
                    return Err(bad("RolledBack outside a rollback"));
                }
                if st.boundary() != 0 {
                    return Err(bad("RolledBack with batches still applied"));
                }
            }
        }
        Ok(())
    }
}

/// FNV-1a over raw bytes: the per-line checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> JournalRecord {
        JournalRecord::Start {
            fingerprint: 0xFEED,
            batches: 2,
            rows_per_fragment: 8,
        }
    }

    fn committed_journal() -> MigrationJournal {
        let mut j = MigrationJournal::new();
        j.append(start()).unwrap();
        j.append(JournalRecord::BatchBegin { batch: 0 }).unwrap();
        j.append(JournalRecord::BatchCommit {
            batch: 0,
            bytes: 32.0,
        })
        .unwrap();
        j.append(JournalRecord::BatchBegin { batch: 1 }).unwrap();
        j
    }

    #[test]
    fn state_derivation_tracks_commits_not_begins() {
        let j = committed_journal();
        let st = j.state();
        assert_eq!(st.committed, 1, "an uncommitted begin is not progress");
        assert_eq!(st.boundary(), 1);
        assert_eq!(st.bytes_committed, 32.0);
        assert!(!st.terminal());
        assert_eq!(j.fingerprint(), Some(0xFEED));
    }

    /// The state kept current by `append` equals a fold over the records,
    /// after every record of a migration that commits, rolls back and
    /// finishes.
    #[test]
    fn appended_state_equals_a_fold_over_the_records() {
        let fold = |records: &[JournalRecord]| {
            let mut st = JournalState::default();
            for rec in records {
                match *rec {
                    JournalRecord::BatchCommit { bytes, .. } => {
                        st.committed += 1;
                        st.bytes_committed += bytes;
                    }
                    JournalRecord::UndoCommit { bytes, .. } => {
                        st.undone += 1;
                        st.bytes_undone += bytes;
                    }
                    JournalRecord::Complete { .. } => st.complete = true,
                    JournalRecord::RollbackBegin => st.rolling_back = true,
                    JournalRecord::RolledBack => {
                        st.rolling_back = false;
                        st.rolled_back = true;
                    }
                    _ => {}
                }
            }
            st
        };
        let mut j = MigrationJournal::new();
        let mut records = vec![JournalRecord::Start {
            fingerprint: 1,
            batches: 3,
            rows_per_fragment: 4,
        }];
        for batch in 0..3 {
            records.push(JournalRecord::BatchBegin { batch });
            records.push(JournalRecord::BatchCommit {
                batch,
                bytes: 0.1 * (batch + 1) as f64,
            });
        }
        records.push(JournalRecord::RollbackBegin);
        for batch in (0..3).rev() {
            records.push(JournalRecord::UndoBegin { batch });
            records.push(JournalRecord::UndoCommit { batch, bytes: 0.3 });
        }
        records.push(JournalRecord::RolledBack);
        for (i, &rec) in records.iter().enumerate() {
            j.append(rec).unwrap();
            assert_eq!(j.state(), fold(&records[..=i]), "after record {i}");
        }
        // A rejected record leaves the state alone.
        assert!(j.append(JournalRecord::RollbackBegin).is_err());
        assert_eq!(j.state(), fold(&records));
    }

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let j = committed_journal();
        let text = j.to_jsonl();
        let back = MigrationJournal::from_jsonl(&text).unwrap();
        assert_eq!(j, back);
        assert_eq!(j.state(), back.state());
    }

    #[test]
    fn corruption_is_detected() {
        let j = committed_journal();
        let text = j.to_jsonl();
        // Flip a byte inside a record payload: checksum mismatch.
        let tampered = text.replacen("32", "33", 1);
        assert!(matches!(
            MigrationJournal::from_jsonl(&tampered),
            Err(EngineError::CorruptJournal { .. })
        ));
        // Drop the Start line: illegal sequence.
        let headless: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            MigrationJournal::from_jsonl(&headless),
            Err(EngineError::CorruptJournal { .. })
        ));
        // Truncate mid-line: malformed JSON.
        let cut = &text[..text.len() - 5];
        assert!(matches!(
            MigrationJournal::from_jsonl(cut),
            Err(EngineError::CorruptJournal { .. })
        ));
    }

    #[test]
    fn truncation_at_line_granularity_is_a_valid_prefix() {
        // A crash cuts the journal at a line boundary: every prefix of a
        // legal journal is itself legal (that is what write-ahead means).
        let j = committed_journal();
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        for k in 0..=lines.len() {
            let prefix: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
            MigrationJournal::from_jsonl(&prefix).unwrap();
        }
    }

    #[test]
    fn sequence_violations_are_rejected() {
        let mut j = MigrationJournal::new();
        assert!(j.append(JournalRecord::BatchBegin { batch: 0 }).is_err());
        j.append(start()).unwrap();
        assert!(j.append(start()).is_err());
        assert!(j.append(JournalRecord::BatchBegin { batch: 1 }).is_err());
        assert!(j
            .append(JournalRecord::BatchCommit {
                batch: 0,
                bytes: 0.0
            })
            .is_err());
        j.append(JournalRecord::BatchBegin { batch: 0 }).unwrap();
        j.append(JournalRecord::BatchCommit {
            batch: 0,
            bytes: 8.0,
        })
        .unwrap();
        assert!(j.append(JournalRecord::UndoBegin { batch: 0 }).is_err());
        j.append(JournalRecord::RollbackBegin).unwrap();
        assert!(j.append(JournalRecord::BatchBegin { batch: 1 }).is_err());
        assert!(j.append(JournalRecord::RolledBack).is_err());
        j.append(JournalRecord::UndoBegin { batch: 0 }).unwrap();
        j.append(JournalRecord::UndoCommit {
            batch: 0,
            bytes: 0.0,
        })
        .unwrap();
        j.append(JournalRecord::RolledBack).unwrap();
        assert!(j.append(JournalRecord::RollbackBegin).is_err());
        assert!(j.state().rolled_back);
    }

    #[test]
    fn rollback_state_round_trips() {
        let mut j = committed_journal();
        j.append(JournalRecord::RollbackBegin).unwrap();
        j.append(JournalRecord::UndoBegin { batch: 0 }).unwrap();
        let st = j.state();
        assert!(st.rolling_back);
        assert_eq!(st.boundary(), 1, "an uncommitted undo is not progress");
        let back = MigrationJournal::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(back.state(), st);
    }
}
