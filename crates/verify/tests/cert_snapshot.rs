//! Pinned resource-certificate snapshot for the full compiler corpus
//! (DESIGN.md §9.1).
//!
//! Every corpus program's certificate summary is pinned verbatim. A
//! diff here is not necessarily a bug — tightening the cost model
//! legitimately shrinks ratios — but it must be *seen*: a silently
//! loosened bound weakens every budget, admission decision, and
//! deadline clamp derived from it downstream. Update the table
//! deliberately, with the `verify` bench output as the source.

use udp_compilers::corpus::{assemble_smallest, corpus};
use udp_verify::{verify_image, VerifyOptions};

/// `(program, pinned certificate summary)` for all corpus entries.
/// `unbounded` programs must still explain themselves: the blocker
/// count at the end of the summary is part of the pin.
const PINNED: &[(&str, &str)] = &[
    (
        "csv",
        "cycles/byte<=10 (+28), out-bytes/byte<=5 (+136), loop-nest<=1",
    ),
    (
        "csv-semicolon",
        "cycles/byte<=10 (+28), out-bytes/byte<=5 (+136), loop-nest<=1",
    ),
    (
        "json",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=unbounded (+0), loop-nest<=1, 18 blocker(s)",
    ),
    (
        "xml",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=unbounded (+0), loop-nest<=1, 4 blocker(s)",
    ),
    (
        "rle-decode",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=unbounded (+0), loop-nest<=1, 4 blocker(s)",
    ),
    (
        "bitpack-enc-w1",
        "cycles/byte<=2 (+5), out-bytes/byte<=2 (+6), loop-nest<=0",
    ),
    (
        "bitpack-dec-w1",
        "cycles/byte<=16 (+5), out-bytes/byte<=8 (+5), loop-nest<=0",
    ),
    (
        "bitpack-enc-w4",
        "cycles/byte<=2 (+5), out-bytes/byte<=2 (+6), loop-nest<=0",
    ),
    (
        "bitpack-dec-w4",
        "cycles/byte<=4 (+5), out-bytes/byte<=2 (+5), loop-nest<=0",
    ),
    (
        "bitpack-enc-w8",
        "cycles/byte<=2 (+5), out-bytes/byte<=2 (+6), loop-nest<=0",
    ),
    (
        "bitpack-dec-w8",
        "cycles/byte<=2 (+5), out-bytes/byte<=1 (+5), loop-nest<=0",
    ),
    (
        "dict-k4",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=4 (+8), loop-nest<=1, 2 blocker(s)",
    ),
    (
        "dict-k8",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=4 (+8), loop-nest<=1, 2 blocker(s)",
    ),
    (
        "dict-k11",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=4 (+8), loop-nest<=1, 2 blocker(s)",
    ),
    (
        "dict-rle-k8",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=8 (+12), loop-nest<=1, 2 blocker(s)",
    ),
    (
        "snappy-comp",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=unbounded (+0), loop-nest<=1, 6 blocker(s)",
    ),
    (
        "snappy-decomp",
        "cycles/byte<=unbounded (+0), out-bytes/byte<=unbounded (+0), loop-nest<=1, 2 blocker(s)",
    ),
    (
        "huffman-encode",
        "cycles/byte<=3 (+6), out-bytes/byte<=2 (+6), loop-nest<=0",
    ),
    (
        "huffman-decode-sst",
        "cycles/byte<=16 (+5), out-bytes/byte<=8 (+5), loop-nest<=0",
    ),
    (
        "huffman-decode-ssreg",
        "cycles/byte<=20 (+6), out-bytes/byte<=8 (+5), loop-nest<=0",
    ),
    (
        "huffman-decode-ssref",
        "cycles/byte<=12 (+14), out-bytes/byte<=4 (+8), loop-nest<=0",
    ),
    (
        "huffman-decode-ssf",
        "cycles/byte<=5 (+8), out-bytes/byte<=4 (+8), loop-nest<=0",
    ),
    (
        "histogram-u4",
        "cycles/byte<=3 (+15), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "histogram-u10",
        "cycles/byte<=3 (+15), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "adfa",
        "cycles/byte<=4 (+7), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "dfa",
        "cycles/byte<=2 (+5), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "dfa-full",
        "cycles/byte<=2 (+5), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "d2fa",
        "cycles/byte<=7 (+10), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "nfa",
        "cycles/byte<=0 (+8), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "counted",
        "cycles/byte<=3 (+6), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
    (
        "trigger-p3",
        "cycles/byte<=2 (+5), out-bytes/byte<=0 (+4), loop-nest<=0",
    ),
];

#[test]
fn corpus_certificates_match_pinned_snapshot() {
    let entries = corpus();
    assert_eq!(
        entries.len(),
        PINNED.len(),
        "corpus grew or shrank; extend the snapshot table"
    );
    let mut mismatches = Vec::new();
    for (name, pb) in &entries {
        let img = assemble_smallest(pb, 64).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = verify_image(&img, &VerifyOptions::default());
        let got = report
            .cert
            .as_ref()
            .map_or_else(|| "none".to_string(), udp_asm::ResourceCert::summary);
        match PINNED.iter().find(|(n, _)| n == name) {
            None => mismatches.push(format!("{name}: not in snapshot (got \"{got}\")")),
            Some((_, want)) if got != *want => {
                mismatches.push(format!("{name}:\n  want \"{want}\"\n  got  \"{got}\""));
            }
            Some(_) => {}
        }
    }
    assert!(
        mismatches.is_empty(),
        "certificate snapshot drifted — update deliberately:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_corpus_program_is_certified_or_carries_blockers() {
    for (name, pb) in &corpus() {
        let img = assemble_smallest(pb, 64).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = verify_image(&img, &VerifyOptions::default());
        let cert = report
            .cert
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no certificate pass ran"));
        if !cert.is_complete() {
            assert!(
                !cert.unbounded.is_empty(),
                "{name}: incomplete certificate with no blockers to explain it"
            );
        }
    }
}
