//! Peak heap of one `ingest` call, measured by a counting global
//! allocator.
//!
//! The lexer borrows its tokens from the log and reuses one statement
//! buffer, and each statement shape is parsed once, so the live heap an
//! ingestion adds on top of the log text stays below the size of the text
//! itself — however many statements the log repeats. (Materializing one
//! owned `String` per token made it about 19 times the log's size.)
//!
//! This file holds a single test: the allocator counts every thread of
//! the test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use vpart_ingest::{ingest, IngestOptions};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` seen since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    // ordering: Relaxed — both counters are statistics that publish no
    // other memory; each update is one atomic read-modify-write.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // ordering: Relaxed — a statistic, see `grew`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from `System`; `new_size` is the
        // caller's, passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both while it copies.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn ingest_peak_heap_stays_below_the_log_size() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/data");
    let schema = std::fs::read_to_string(dir.join("schema.sql")).expect("schema");
    let template: String = std::fs::read_to_string(dir.join("queries.log"))
        .expect("log")
        .lines()
        .filter(|l| !l.starts_with("--"))
        .map(|l| format!("{l}\n"))
        .collect();
    // About 20k statements (25 per copy, brackets included), each copy
    // with its own literals in place of `?`.
    let log: String = (1..=800)
        .map(|k| template.replace('?', &k.to_string()))
        .collect();

    // ordering: Relaxed — single-threaded reads of a statistic.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = ingest(&schema, &log, &IngestOptions::default()).expect("log ingests");
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(out.report.statements_seen, 800 * 19);
    assert!(
        peak < log.len(),
        "ingest peaked at {peak} heap bytes over a {}-byte log ({:.1}×)",
        log.len(),
        peak as f64 / log.len() as f64
    );
}
