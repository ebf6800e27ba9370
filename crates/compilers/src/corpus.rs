//! The backend corpus: one assembled-and-named [`ProgramBuilder`] per
//! translator configuration, swept over the parameters each translator
//! exposes.
//!
//! This is the shared program set behind three invariants:
//!
//! * the `udp-verify` *soundness* suite (every corpus program verifies
//!   with zero errors),
//! * the assembler→`emit_asm`→`parse_asm` round-trip test,
//! * the `verify` bench binary's per-check summary.
//!
//! Keeping the sweep in one place means a new translator (or a new
//! parameter) is picked up by all three the moment it is added here.

// Allowlisted from the crate's `expect_used` gate: every `expect` here
// guards a compile-time constant (corpus regexes, fixed trees); a
// failure is a bug in this file, not a runtime input.
#![allow(clippy::expect_used)]

use crate::automata::{adfa_to_udp, d2fa_to_udp, dfa_to_udp, dfa_to_udp_full, nfa_to_udp};
use crate::bitpack::{bitpack_decode_to_udp, bitpack_encode_to_udp};
use crate::counting::{counted_to_udp, CountedPattern};
use crate::csv::{csv_to_udp, csv_to_udp_with};
use crate::dict::{dict_rle_to_udp, dict_to_udp};
use crate::histogram::histogram_to_udp;
use crate::huffman::{huffman_decode_to_udp, huffman_encode_to_udp, SymbolMode};
use crate::json::json_to_udp;
use crate::rle::rle_decode_to_udp;
use crate::snappy::{snappy_compress_to_udp, snappy_decompress_to_udp};
use crate::trigger::trigger_to_udp;
use crate::xml::xml_to_udp;
use udp_asm::{AsmError, LayoutOptions, ProgramBuilder, ProgramImage};
use udp_automata::{Adfa, ByteSet, D2fa, Dfa, Nfa, Regex};
use udp_codecs::huffman::HuffmanTree;
use udp_codecs::{Histogram, TriggerFsm};

/// Text the Huffman entries build their code tree from — skewed enough
/// to produce a multi-level tree with both short and long codes.
pub const HUFFMAN_SAMPLE: &[u8] =
    b"aaaaaaaaaaaaaaaabbbbbbbbccccddeeffgghh the quick brown fox jumps over the lazy dog";

/// Regexes the DFA-family entries are determinized from.
const REGEXES: &[&str] = &["abc", "a(b|c)d", "xy*z", "[0-9][0-9]"];

fn regex_dfa() -> Dfa {
    let asts: Vec<Regex> = REGEXES
        .iter()
        .map(|p| Regex::parse(p).expect("corpus regexes parse"))
        .collect();
    Dfa::determinize(&Nfa::scanner(&asts)).minimize()
}

/// Every translator output in the corpus, `(name, builder)` pairs.
/// Names are stable, lowercase, and unique — they key bench output and
/// test diagnostics.
///
/// # Panics
///
/// Panics only if a corpus ingredient (a regex, a counted pattern)
/// fails to build, which is a bug in the corpus itself.
pub fn corpus() -> Vec<(String, ProgramBuilder)> {
    let mut out: Vec<(String, ProgramBuilder)> = Vec::new();
    let mut add = |name: &str, pb: ProgramBuilder| out.push((name.to_string(), pb));

    // Parsing kernels (§5.1).
    add("csv", csv_to_udp());
    add("csv-semicolon", csv_to_udp_with(b';', b'\''));
    add("json", json_to_udp());
    add("xml", xml_to_udp());

    // Coding kernels (§5.2, §5.4, §5.6).
    add("rle-decode", rle_decode_to_udp());
    for width in [1u8, 4, 8] {
        add(
            &format!("bitpack-enc-w{width}"),
            bitpack_encode_to_udp(width),
        );
        add(
            &format!("bitpack-dec-w{width}"),
            bitpack_decode_to_udp(width),
        );
    }
    for k in [4u32, 8, 11] {
        add(&format!("dict-k{k}"), dict_to_udp(k));
    }
    add("dict-rle-k8", dict_rle_to_udp(8));
    add("snappy-comp", snappy_compress_to_udp());
    add("snappy-decomp", snappy_decompress_to_udp());

    let tree = HuffmanTree::from_data(HUFFMAN_SAMPLE);
    add("huffman-encode", huffman_encode_to_udp(&tree));
    for (tag, mode) in [
        ("sst", SymbolMode::PerTransition),
        ("ssreg", SymbolMode::Register),
        ("ssref", SymbolMode::RegisterRefill),
    ] {
        add(
            &format!("huffman-decode-{tag}"),
            huffman_decode_to_udp(&tree, mode),
        );
    }
    // The SsF unrolling explodes with alphabet size; a small-alphabet
    // tree keeps it inside the 255-slot direct attach range.
    let small_tree = HuffmanTree::from_data(&b"aaabbbcccddaabbccbbaaaddccbbaa".repeat(4));
    add(
        "huffman-decode-ssf",
        huffman_decode_to_udp(&small_tree, SymbolMode::Fixed8),
    );

    // Histogramming (§5.5).
    add(
        "histogram-u4",
        histogram_to_udp(&Histogram::uniform(0.0, 100.0, 4)).0,
    );
    add(
        "histogram-u10",
        histogram_to_udp(&Histogram::uniform(-87.9, -87.5, 10)).0,
    );

    // Pattern matching (§5.3).
    add("adfa", adfa_to_udp(&Adfa::build(&["foo", "bar", "barium"])));
    let dfa = regex_dfa();
    add("dfa", dfa_to_udp(&dfa));
    add("dfa-full", dfa_to_udp_full(&dfa));
    add("d2fa", d2fa_to_udp(&D2fa::from_dfa(&dfa)));
    add(
        "nfa",
        nfa_to_udp(&Nfa::scanner(&[
            Regex::parse("ab*c").expect("corpus regexes parse")
        ])),
    );
    add(
        "counted",
        counted_to_udp(
            &CountedPattern {
                prefix: b"id".to_vec(),
                class: ByteSet::range(b'0', b'9'),
                min: 2,
                max: 5,
                suffix: b";".to_vec(),
            }
            .validated(),
        ),
    );

    // Signal triggering (§5.7).
    add("trigger-p3", trigger_to_udp(&TriggerFsm::new(64, 192, 3)));

    out
}

/// Assembles a builder into the smallest power-of-two bank window that
/// fits, mirroring the bench harnesses' sizing. Returns the last error
/// when even `max_banks` banks do not fit.
pub fn assemble_smallest(pb: &ProgramBuilder, max_banks: usize) -> Result<ProgramImage, AsmError> {
    let mut banks = 1;
    loop {
        match pb.assemble(&LayoutOptions::with_banks(banks)) {
            Ok(img) => return Ok(img),
            Err(_) if banks < max_banks => banks *= 2,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn corpus_names_are_unique_and_programs_assemble() {
        let entries = corpus();
        assert!(entries.len() >= 20, "sweep shrank to {}", entries.len());
        let names: HashSet<_> = entries.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names.len(), entries.len(), "duplicate corpus names");
        for (name, pb) in &entries {
            let img = assemble_smallest(pb, 64)
                .unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
            assert!(img.executable, "{name} must assemble executably");
        }
    }
}
