//! Self-modifying programs: an action block `StoreW`s over the lane's
//! own code, and every later fetch of that word must see the new word.
//! A lane reads its predecoded table only while its code span is
//! pristine and decodes the word it reads from memory otherwise, so
//! the lazy lane ([`Lane::new`]), both backends pooled and sequential,
//! restricted addressing, and a run whose staging overlaps the code
//! must all report exactly the same.

use std::sync::Arc;
use udp_asm::{LayoutOptions, ProgramBuilder, ProgramImage, Target};
use udp_isa::action::{Action, Opcode};
use udp_isa::mem::{AddressingMode, BANK_WORDS};
use udp_isa::transition::TransitionWord;
use udp_isa::Reg;
use udp_sim::{
    BitStream, ExecBackend, Lane, LaneConfig, LaneReport, LocalMemory, OutputSink, PreparedKernel,
    Staging, Udp, UdpRunOptions,
};

/// The registers staging the write: its byte address and the word.
const ADDR: u8 = 1;
const WORD: u8 = 2;

fn emit(b: u8) -> Action {
    Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b))
}

/// Stores `WORD` at window byte address `ADDR`.
fn store() -> Action {
    Action::imm(Opcode::StoreW, Reg::new(ADDR), Reg::new(WORD), 0)
}

/// One consuming state; `arcs` maps symbols to their action blocks, and
/// every other byte is skipped.
fn kernel(arcs: &[(u8, Vec<Action>)]) -> ProgramImage {
    let mut b = ProgramBuilder::new();
    let s = b.add_consuming_state();
    b.set_entry(s);
    for (sym, acts) in arcs {
        b.labeled_arc(s, u16::from(*sym), Target::State(s), acts.clone());
    }
    b.fallback_arc(s, Target::State(s), vec![]);
    b.assemble(&LayoutOptions::default()).unwrap()
}

/// The dispatch slot of `sym` in the entry state, checked to hold the
/// symbol's own arc.
fn slot(image: &ProgramImage, sym: u8) -> usize {
    let at = (image.entry_base + u32::from(sym)) as usize;
    assert_eq!(image.words[at] >> 24, u32::from(sym), "slot of {sym}");
    at
}

/// Stages the write of `word` over window word `at`.
fn staging(at: usize, word: u32) -> Staging {
    Staging {
        segments: Vec::new(),
        regs: vec![(Reg::new(ADDR), at as u32 * 4), (Reg::new(WORD), word)],
    }
}

/// `a` emits `1` and rewrites its own dispatch slot with `c`'s arc
/// re-signed for `a`, so every later `a` emits `2`.
fn rewrites_a_dispatch_slot() -> (ProgramImage, Staging) {
    let image = kernel(&[(b'a', vec![emit(b'1'), store()]), (b'c', vec![emit(b'2')])]);
    let word = (image.words[slot(&image, b'c')] & 0x00FF_FFFF) | u32::from(b'a') << 24;
    let stage = staging(slot(&image, b'a'), word);
    (image, stage)
}

/// `a` rewrites the `EmitB` of `b`'s action block to emit `Z`, so `b`
/// emits `x` before the first `a` and `Z` after it.
fn rewrites_a_later_action() -> (ProgramImage, Staging) {
    let image = kernel(&[(b'a', vec![store()]), (b'b', vec![emit(b'x')])]);
    let t = TransitionWord::decode(image.words[slot(&image, b'b')]);
    let at = t
        .action_addr(image.init.abase, image.init.ascale)
        .expect("b has an action block") as usize;
    let mut act = Action::decode(image.words[at]).expect("b's block decodes");
    assert_eq!(act.op, Opcode::EmitB);
    act.imm = u16::from(b'Z');
    let stage = staging(at, act.encode());
    (image, stage)
}

/// `staging` plus a segment that rewrites the first code words with
/// their own bytes: memory is unchanged, but no lane starts on the
/// pristine-code path.
fn overlapping_code(image: &ProgramImage, staging: &Staging) -> Staging {
    let bytes = image.words[..2]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    Staging {
        segments: vec![(0, bytes)],
        regs: staging.regs.clone(),
    }
}

/// The reference: a lane with no predecoded table, decoding every word
/// it reads.
fn lazy(image: &ProgramImage, input: &[u8], staging: &Staging) -> LaneReport {
    let mut mem = LocalMemory::with_words(BANK_WORDS);
    mem.load_words(0, &image.words);
    for (off, bytes) in &staging.segments {
        mem.load_bytes(*off, bytes);
    }
    let mut lane = Lane::new(image, 0);
    for (r, v) in &staging.regs {
        lane.preset_reg(*r, *v);
    }
    let mut out = OutputSink::new();
    lane.run(
        &mut mem,
        &mut BitStream::new(input),
        &mut out,
        &LaneConfig::default(),
    )
}

/// Runs `image` every way and checks each lane report against the lazy
/// lane's; returns the lazy reports.
fn check_every_path(image: &ProgramImage, inputs: &[&[u8]], staging: &Staging) -> Vec<LaneReport> {
    let want: Vec<LaneReport> = inputs.iter().map(|i| lazy(image, i, staging)).collect();
    let kernel = PreparedKernel::new(Arc::new(image.clone()));
    for addressing in [AddressingMode::Local, AddressingMode::Restricted] {
        for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
            for parallel in [false, true] {
                let opts = UdpRunOptions {
                    addressing,
                    backend,
                    parallel,
                    ..UdpRunOptions::default()
                };
                let rep = Udp::new().run(&kernel, inputs, staging, &opts).unwrap();
                assert_eq!(
                    rep.lanes, want,
                    "{addressing:?} {backend:?} parallel={parallel}"
                );
            }
        }
    }
    want
}

fn outputs(reports: &[LaneReport]) -> Vec<&[u8]> {
    reports.iter().map(|r| r.output.as_slice()).collect()
}

#[test]
fn a_rewritten_dispatch_slot_takes_its_new_arc() {
    let (image, stage) = rewrites_a_dispatch_slot();
    assert_eq!(udp_sim::compiled_decline_reason(&image), None);
    let inputs: Vec<&[u8]> = vec![b"xaxaaxc", b"cxxa", b"aa"];
    for staging in [stage.clone(), overlapping_code(&image, &stage)] {
        let reps = check_every_path(&image, &inputs, &staging);
        assert_eq!(outputs(&reps), [&b"1222"[..], b"21", b"12"]);
    }
    // Storing the word already there changes nothing.
    let at = slot(&image, b'a');
    let same = check_every_path(&image, &inputs, &staging(at, image.words[at]));
    assert_eq!(outputs(&same), [&b"1112"[..], b"21", b"11"]);
}

#[test]
fn a_rewritten_action_word_runs_as_written() {
    let (image, stage) = rewrites_a_later_action();
    assert_eq!(udp_sim::compiled_decline_reason(&image), None);
    let inputs: Vec<&[u8]> = vec![b"babbxb", b"bb", b"xab"];
    for staging in [stage.clone(), overlapping_code(&image, &stage)] {
        let reps = check_every_path(&image, &inputs, &staging);
        assert_eq!(outputs(&reps), [&b"xZZZ"[..], b"xx", b"Z"]);
    }
}
