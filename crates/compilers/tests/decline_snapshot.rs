//! Pinned compiled-backend decline reasons for the full compiler corpus
//! (DESIGN.md §2.6.3–2.6.4).
//!
//! Every corpus program's `udp_sim::compiled_decline_reason` is pinned:
//! `None` where the tier-2 backend compiles it, the typed reason where
//! it runs interpreted. A lost fusion (a program that newly declines)
//! or a new decline then names the program instead of showing up only
//! as a slower benchmark. Update the table deliberately, together with
//! the per-program rates in CHANGES.md.

use udp_compilers::corpus::{assemble_smallest, corpus};

/// `(program, pinned decline reason)` for all corpus entries.
const PINNED: &[(&str, Option<&str>)] = &[
    ("csv", None),
    ("csv-semicolon", None),
    ("json", None),
    ("xml", None),
    ("rle-decode", Some("no-fusable-arcs")),
    ("bitpack-enc-w1", None),
    ("bitpack-dec-w1", None),
    ("bitpack-enc-w4", None),
    ("bitpack-dec-w4", None),
    ("bitpack-enc-w8", None),
    ("bitpack-dec-w8", None),
    ("dict-k4", None),
    ("dict-k8", None),
    ("dict-k11", None),
    ("dict-rle-k8", None),
    ("snappy-comp", Some("no-fusable-arcs")),
    ("snappy-decomp", None),
    ("huffman-encode", None),
    ("huffman-decode-sst", Some("unprofitable")),
    ("huffman-decode-ssreg", Some("unprofitable")),
    ("huffman-decode-ssref", None),
    ("huffman-decode-ssf", None),
    ("histogram-u4", Some("unprofitable")),
    ("histogram-u10", Some("unprofitable")),
    ("adfa", None),
    ("dfa", None),
    ("dfa-full", None),
    ("d2fa", None),
    ("nfa", Some("no-fusable-arcs")),
    ("counted", None),
    ("trigger-p3", None),
];

#[test]
fn corpus_decline_reasons_are_pinned() {
    let entries = corpus();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, pinned,
        "corpus and pin table list different programs"
    );
    let mut diffs = Vec::new();
    for ((name, pb), (_, want)) in entries.iter().zip(PINNED) {
        let img = assemble_smallest(pb, 64).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = udp_sim::compiled_decline_reason(&img);
        if got != *want {
            diffs.push(format!("{name}: pinned {want:?}, now {got:?}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "decline reasons moved:\n{}",
        diffs.join("\n")
    );
}
