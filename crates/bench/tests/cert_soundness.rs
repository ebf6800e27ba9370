//! Empirical soundness gate for static resource certification
//! (DESIGN.md §9.1).
//!
//! The verifier's cost bounds are only trustworthy if observed
//! executions never exceed them, so this suite runs every certified
//! corpus program over adversarially generic inputs on all execution
//! paths — sequential interpreter, pooled waves, and the compiled
//! backend — and asserts per lane that
//!
//! * `cycles <= cert.cycle_bound(input.len())`, and
//! * `output.len() <= cert.output_bound(input.len())`.
//!
//! A second test bit-flips code words of certified images: a mutant
//! must either fail certification (the verifier refuses to vouch for
//! it) or, if it still certifies, stay inside its *own* recomputed
//! bounds. A proptest closes the loop on randomly generated
//! verifier-clean programs.

use proptest::prelude::*;
use udp_asm::{ProgramImage, Target};
use udp_compilers::corpus::{assemble_smallest, corpus};
use udp_isa::action::Action;
use udp_isa::mem::BANK_WORDS;
use udp_isa::{Opcode, Reg};
use udp_sim::engine::Staging;
use udp_sim::{ExecBackend, Udp, UdpRunOptions};
use udp_verify::{verify_image, VerifyOptions};

/// Deterministic input suite: empty, structured text, the full byte
/// alphabet, repetitive runs, pattern-bait, and xorshift noise.
fn generic_inputs() -> Vec<Vec<u8>> {
    let mut inputs = vec![
        Vec::new(),
        b"a,b,c\nfoo,bar,baz\n\"q,\"\"q\",2\n".to_vec(),
        (0u8..=255).collect(),
        b"aaabbbcccdddaabbccdd".repeat(40),
        b"id123;id45;xyzzyab*cfoobarium".repeat(16),
    ];
    let mut x = 0x243f_6a88_85a3_08d3u64;
    let mut noise = Vec::with_capacity(2048);
    for _ in 0..2048 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        noise.push((x >> 24) as u8);
    }
    inputs.push(noise);
    inputs
}

/// All corpus programs that earn a complete certificate, with the
/// certificate attached to the image so the engine's cert-derived
/// budgets engage exactly as they would in production.
fn certified_images() -> Vec<(String, ProgramImage)> {
    corpus()
        .iter()
        .filter_map(|(name, pb)| {
            let mut img = assemble_smallest(pb, 64).ok()?;
            let report = verify_image(&img, &VerifyOptions::default());
            let cert = report.cert?;
            if !cert.is_complete() {
                return None;
            }
            img.cert = Some(cert);
            Some((name.clone(), img))
        })
        .collect()
}

/// The three execution paths under test.
fn exec_paths() -> [(&'static str, ExecBackend, bool); 3] {
    [
        ("interp-seq", ExecBackend::Interpreter, false),
        ("interp-pooled", ExecBackend::Interpreter, true),
        ("compiled", ExecBackend::Compiled, false),
    ]
}

/// Runs `image` over `inputs` on every execution path and asserts each
/// lane observes no more cycles or output bytes than the certificate
/// allows for its input length.
fn assert_bounds_hold(name: &str, image: &ProgramImage, inputs: &[&[u8]]) {
    let cert = image.cert.as_ref().expect("certified image");
    let banks = image.stats.span_words.div_ceil(BANK_WORDS).max(1);
    for (path, backend, parallel) in exec_paths() {
        let opts = UdpRunOptions {
            banks_per_lane: banks,
            parallel,
            backend,
            ..UdpRunOptions::default()
        };
        let rep = Udp::new()
            .try_run_data_parallel(image, inputs, &Staging::default(), &opts)
            .unwrap_or_else(|e| panic!("{name}/{path}: run refused: {e}"));
        for (lane, input) in rep.lanes.iter().zip(inputs) {
            let cyc_bound = cert.cycle_bound(input.len()).expect("complete cert");
            let out_bound = cert.output_bound(input.len()).expect("complete cert");
            assert!(
                lane.cycles <= cyc_bound,
                "{name}/{path}: {} cycles exceeds certified bound {} for {} input bytes \
                 (cert: {})",
                lane.cycles,
                cyc_bound,
                input.len(),
                cert.summary()
            );
            assert!(
                lane.output.len() as u64 <= out_bound,
                "{name}/{path}: {} output bytes exceeds certified bound {} for {} input bytes \
                 (cert: {})",
                lane.output.len(),
                out_bound,
                input.len(),
                cert.summary()
            );
        }
    }
}

#[test]
fn certified_bounds_hold_on_generic_inputs_across_backends() {
    let images = certified_images();
    // The gate is only meaningful if certification keeps working for
    // the bulk of the corpus.
    assert!(
        images.len() >= 20,
        "only {} corpus programs certified; the cost model regressed",
        images.len()
    );
    let inputs = generic_inputs();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    for (name, img) in &images {
        assert_bounds_hold(name, img, &refs);
    }
}

/// The bit-burst superop (DESIGN.md §2.6.4) defers every counter to a
/// bulk sync at burst exit; the certified claim is pointwise per lane.
/// This test pins that the certified kernels with a block of
/// `Action::fusable` actions — the blocks the compiled backend lowers
/// into the bit-burst loop — stay inside their bounds on workload-
/// realistic inputs (compressible text for the encoders, an actually
/// encoded bit stream for the decoders), not just generic noise.
#[test]
fn bit_burst_fused_kernels_stay_in_certified_bounds() {
    let images = certified_images();
    let text = udp_workloads::canterbury_like(udp_workloads::Entropy::Medium, 32 * 1024, 3);
    let tree = udp_codecs::HuffmanTree::from_data(&text);
    let (bits, nbits) = tree.encode(&text);
    let mut exercised = 0usize;
    for (name, img) in &images {
        let graph = udp_verify::ProgramGraph::decode(img);
        let fuses = graph
            .arcs
            .iter()
            .filter_map(|a| a.block.as_ref())
            .any(|b| b.actions.iter().all(|(_, a)| a.fusable()));
        if !fuses {
            continue;
        }
        exercised += 1;
        let mut inputs = generic_inputs();
        inputs.push(text.clone());
        if name.contains("decode") {
            inputs.push(udp_compilers::huffman::pad_for_stride(&bits, nbits, 8));
        }
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        assert_bounds_hold(name, img, &refs);
    }
    // The six bit-packers, huffman-encode, the four bounded Huffman
    // decoders and counted: if this shrinks, either certification or
    // the ISA's fusability flags regressed.
    assert!(
        exercised >= 12,
        "only {exercised} certified kernels have a fusable block"
    );
}

#[test]
fn mutated_images_fail_certification_or_stay_in_bounds() {
    let inputs = generic_inputs();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let targets = ["csv", "bitpack-enc-w4", "dfa", "huffman-encode"];
    let images = certified_images();
    let mut recertified = 0usize;
    let mut refused = 0usize;
    for (name, img) in images.iter().filter(|(n, _)| targets.contains(&n.as_str())) {
        let words = img.stats.words_used.max(1);
        // A deterministic sweep of single-bit faults across the code
        // window: low bits corrupt opcodes/targets, high bits corrupt
        // immediates.
        for step in 0..16usize {
            let widx = (step * 97) % words;
            for bit in [0u32, 7, 13, 22] {
                let mut mutant = img.clone();
                mutant.words[widx] ^= 1 << bit;
                mutant.cert = None;
                let report = verify_image(&mutant, &VerifyOptions::default());
                let cert = match report.cert {
                    Some(c) if c.is_complete() && report.errors() == 0 => c,
                    _ => {
                        // The verifier refuses to vouch for the mutant:
                        // exactly the safe outcome.
                        refused += 1;
                        continue;
                    }
                };
                mutant.cert = Some(cert);
                recertified += 1;
                assert_bounds_hold(&format!("{name}+w{widx}b{bit}"), &mutant, &refs);
            }
        }
    }
    // The sweep must exercise both outcomes to mean anything.
    assert!(refused > 0, "no mutant was refused certification");
    assert!(recertified > 0, "no mutant re-certified");
}

/// Builds a random small consuming-state program from a verifier-safe
/// construction vocabulary. Not all outputs are verifier-clean (some
/// states may be unreachable, some arcs degenerate) — the property
/// filters on a clean report with a complete certificate.
fn random_program(
    n_states: usize,
    arcs: &[(usize, u8, usize, u8)],
    fallbacks: &[usize],
) -> Option<ProgramImage> {
    let mut b = udp_asm::ProgramBuilder::new();
    let states: Vec<_> = (0..n_states).map(|_| b.add_consuming_state()).collect();
    b.set_entry(states[0]);
    let mut seen = std::collections::HashSet::new();
    for &(from, sym, to, act) in arcs {
        // The builder rejects duplicate (state, symbol) labels.
        if !seen.insert((from % n_states, sym)) {
            continue;
        }
        let target = if to >= n_states {
            Target::Halt
        } else {
            Target::State(states[to])
        };
        let actions = match act % 4 {
            0 => vec![],
            1 => vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(sym))],
            2 => vec![Action::imm(Opcode::AddI, Reg::new(2), Reg::new(2), 3)],
            _ => vec![
                Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(sym)),
                Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, 0x21),
            ],
        };
        b.labeled_arc(states[from % n_states], u16::from(sym), target, actions);
    }
    for (i, &fb) in fallbacks.iter().enumerate().take(n_states) {
        let target = if fb >= n_states {
            Target::Halt
        } else {
            Target::State(states[fb])
        };
        b.fallback_arc(states[i], target, vec![]);
    }
    b.assemble(&udp_asm::LayoutOptions::default()).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any randomly built program that verifies clean and certifies
    /// completely must stay inside its bounds on random input, on all
    /// three execution paths.
    #[test]
    fn random_clean_programs_respect_their_certificates(
        n_states in 1usize..4,
        arcs in proptest::collection::vec(
            (0usize..4, any::<u8>(), 0usize..5, any::<u8>()),
            1..10,
        ),
        fallbacks in proptest::collection::vec(0usize..5, 4),
        input in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let img = random_program(n_states, &arcs, &fallbacks);
        let certified = img.and_then(|mut img| {
            let report = verify_image(&img, &VerifyOptions::default());
            if report.errors() > 0 {
                return None;
            }
            let cert = report.cert.filter(|c| c.is_complete())?;
            img.cert = Some(cert.clone());
            Some((img, cert))
        });
        if let Some((img, cert)) = certified {
            let banks = img.stats.span_words.div_ceil(BANK_WORDS).max(1);
            for (path, backend, parallel) in exec_paths() {
                let opts = UdpRunOptions {
                    banks_per_lane: banks,
                    parallel,
                    backend,
                    ..UdpRunOptions::default()
                };
                let rep = Udp::new()
                    .try_run_data_parallel(&img, &[input.as_slice()], &Staging::default(), &opts)
                    .unwrap_or_else(|e| panic!("{path}: run refused: {e}"));
                let lane = &rep.lanes[0];
                let cyc_bound = cert.cycle_bound(input.len()).expect("complete cert");
                let out_bound = cert.output_bound(input.len()).expect("complete cert");
                prop_assert!(
                    lane.cycles <= cyc_bound,
                    "{}: {} cycles > bound {} ({})",
                    path, lane.cycles, cyc_bound, cert.summary()
                );
                prop_assert!(
                    lane.output.len() as u64 <= out_bound,
                    "{}: {} out bytes > bound {} ({})",
                    path, lane.output.len(), out_bound, cert.summary()
                );
            }
        }
    }
}
