//! The replay stream generators are pinned: perfbench replays these
//! streams, so a changed generator silently changes every benchmark
//! workload. The per-transaction counts and FNV-1a hashes of the
//! execution sequences were recorded before the generators moved into
//! `ReplayStream`, and must not change.

use vpart_engine::ReplayStream;
use vpart_instances::by_name;

/// FNV-1a over each value's 4 little-endian bytes.
fn fnv1a(values: impl IntoIterator<Item = usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in (v as u32).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Asserts `stream`'s length, sequence hash and count hash.
fn check(stream: &ReplayStream, n_txns: usize, len: usize, seq: u64, counts: u64, what: &str) {
    assert_eq!(stream.len(), len, "{what}: length");
    assert_eq!(
        fnv1a(stream.executions.iter().map(|t| t.index())),
        seq,
        "{what}: execution sequence"
    );
    assert_eq!(fnv1a(stream.counts(n_txns)), counts, "{what}: counts");
}

#[test]
fn weighted_tpcc_streams_are_pinned() {
    let ins = by_name("tpcc").unwrap();
    let golden: [(u64, u64, [usize; 5]); 3] = [
        (1, 0xa774_5cde_294d_bbb5, [2435, 2223, 647, 2243, 452]),
        (7, 0x05d6_8097_502b_4085, [2491, 2203, 675, 2185, 446]),
        (42, 0x3663_b3e3_9aaf_c095, [2445, 2195, 653, 2249, 458]),
    ];
    for (seed, seq, counts) in golden {
        let stream = ReplayStream::weighted(&ins, 8000, seed);
        assert_eq!(stream.seed, seed);
        assert_eq!(stream.counts(ins.n_txns()), counts, "tpcc seed {seed}");
        check(
            &stream,
            ins.n_txns(),
            8000,
            seq,
            fnv1a(counts),
            &format!("tpcc seed {seed}"),
        );
    }
}

#[test]
fn weighted_rnd_a64_streams_are_pinned() {
    let ins = by_name("rndAt64x100").unwrap();
    let golden = [
        (1, 0xdfb1_b933_b40d_1185, 0xb3c0_cc93_be4e_815d),
        (7, 0x4f96_4ee8_0a6f_e89e, 0x9ad6_f52e_924b_c421),
        (42, 0xcb16_6bf2_3fa7_40c8, 0x98da_1ee7_a0f1_e4ef),
    ];
    for (seed, seq, counts) in golden {
        let stream = ReplayStream::weighted(&ins, 8000, seed);
        check(
            &stream,
            ins.n_txns(),
            8000,
            seq,
            counts,
            &format!("rndAt64x100 seed {seed}"),
        );
    }
}

#[test]
fn uniform_streams_are_pinned() {
    for (name, len, seq, counts) in [
        ("tpcc", 15, 0x6ae8_e0b4_33bd_dbd1, 0xf7f8_09b6_f082_14e6),
        (
            "rndAt64x100",
            300,
            0xa981_a41c_a70c_d9a5,
            0x2078_41d8_7f12_4a85,
        ),
    ] {
        let ins = by_name(name).unwrap();
        let stream = ReplayStream::uniform(&ins, 3, 0);
        assert!(stream.counts(ins.n_txns()).iter().all(|&c| c == 3));
        check(&stream, ins.n_txns(), len, seq, counts, name);
    }
}
