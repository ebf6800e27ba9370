//! Prepared kernels and the process-wide prepared-kernel cache: a
//! cached kernel is never reused for a different image, a caller's
//! predecoded table is never trusted for another image, copy-back
//! leaves device memory exactly as full-window copies would, and the
//! calling thread's pool worker degrades a panicking chunk like any
//! other worker.

use std::sync::{Arc, Mutex};
use udp_asm::{LayoutOptions, ProgramBuilder, ProgramImage, ResourceCert, Target};
use udp_isa::action::{Action, Opcode};
use udp_isa::mem::{AddressingMode, BANK_WORDS, NUM_BANKS};
use udp_isa::Reg;
use udp_sim::{
    ExecBackend, FaultKind, Lane, LaneConfig, LaneStatus, PreparedKernel, Staging, Udp,
    UdpRunOptions,
};

const BACKENDS: [ExecBackend; 2] = [ExecBackend::Interpreter, ExecBackend::Compiled];

fn emit(b: u8) -> Vec<Action> {
    vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b))]
}

/// Emits `out` for every `a`, skips every other byte.
fn scanner(out: u8) -> ProgramImage {
    let mut b = ProgramBuilder::new();
    let s = b.add_consuming_state();
    b.set_entry(s);
    b.labeled_arc(s, u16::from(b'a'), Target::State(s), emit(out));
    b.fallback_arc(s, Target::State(s), vec![]);
    b.assemble(&LayoutOptions::default()).unwrap()
}

/// Emits `x` for every `b`, and `y` for every `c`.
fn two_symbol_scanner() -> ProgramImage {
    let mut b = ProgramBuilder::new();
    let s = b.add_consuming_state();
    b.set_entry(s);
    b.labeled_arc(s, u16::from(b'b'), Target::State(s), emit(b'x'));
    b.labeled_arc(s, u16::from(b'c'), Target::State(s), emit(b'y'));
    b.fallback_arc(s, Target::State(s), vec![]);
    b.assemble(&LayoutOptions::default()).unwrap()
}

/// Counts input bytes in R2 and stores the count at window byte
/// `offset` after every byte: a footprint far above the code.
fn far_writer(offset: u16) -> ProgramImage {
    let (r1, r2) = (Reg::new(1), Reg::new(2));
    let mut b = ProgramBuilder::new();
    let s = b.add_consuming_state();
    b.set_entry(s);
    b.fallback_arc(
        s,
        Target::State(s),
        vec![
            Action::imm(Opcode::AddI, r2, r2, 1),
            Action::imm(Opcode::MovI, r1, Reg::R0, offset),
            Action::imm(Opcode::StoreW, r1, r2, 0),
        ],
    );
    b.assemble(&LayoutOptions::default()).unwrap()
}

/// Chunk inputs from string literals.
fn ins(xs: &[&'static str]) -> Vec<&'static [u8]> {
    xs.iter().map(|x| x.as_bytes()).collect()
}

fn opts(backend: ExecBackend, parallel: bool) -> UdpRunOptions {
    UdpRunOptions {
        backend,
        parallel,
        ..UdpRunOptions::default()
    }
}

fn fresh_run(image: &ProgramImage, inputs: &[&[u8]], o: &UdpRunOptions) -> udp_sim::UdpRunReport {
    Udp::new()
        .try_run_data_parallel(image, inputs, &Staging::default(), o)
        .unwrap()
}

#[test]
fn shared_table_of_an_equal_length_image_is_not_trusted() {
    let a = scanner(b'!');
    let b = scanner(b'?');
    assert_eq!(a.words.len(), b.words.len());
    assert_ne!(a.words, b.words);
    let table_of_a = Arc::new(a.predecode());
    let inputs: Vec<&[u8]> = vec![b"aab", b"ba"];
    for backend in BACKENDS {
        for parallel in [false, true] {
            let o = opts(backend, parallel);
            let rep = Udp::new()
                .try_run_data_parallel_shared(&b, &table_of_a, &inputs, &Staging::default(), &o)
                .unwrap();
            assert_eq!(rep.concat_output(), b"???");
            assert_eq!(rep, fresh_run(&b, &inputs, &o));
        }
    }
    // The same holds for a kernel prepared around the wrong table.
    let kernel = PreparedKernel::with_decoded(Arc::new(b.clone()), &table_of_a);
    assert!(!Arc::ptr_eq(kernel.decoded(), &table_of_a));
    let rep = Udp::new()
        .run(
            &kernel,
            &inputs,
            &Staging::default(),
            &opts(ExecBackend::Interpreter, false),
        )
        .unwrap();
    assert_eq!(rep.concat_output(), b"???");
}

#[test]
fn matching_shared_table_is_shared() {
    let a = Arc::new(scanner(b'!'));
    let table = Arc::new(a.predecode());
    let kernel = PreparedKernel::with_decoded(Arc::clone(&a), &table);
    assert!(Arc::ptr_eq(kernel.decoded(), &table));
}

/// `a` with the emitted byte of its one `EmitB` action changed.
fn with_flipped_code_word(a: &ProgramImage) -> ProgramImage {
    let mut flipped = a.clone();
    let slot = flipped
        .words
        .iter()
        .position(|&w| Action::decode(w).is_some_and(|act| act.op == Opcode::EmitB))
        .expect("the scanner has an EmitB action");
    let mut act = Action::decode(flipped.words[slot]).unwrap();
    act.imm ^= 0x01;
    flipped.words[slot] = act.encode();
    flipped
}

#[test]
fn memo_never_reuses_a_stale_kernel() {
    let a = scanner(b'!');
    let b = two_symbol_scanner();
    let flipped = with_flipped_code_word(&a);
    // A complete certificate of one cycle per byte derives a budget
    // the scanner (two cycles per `a`) overruns on long inputs.
    let mut tight = a.clone();
    tight.cert = Some(ResourceCert {
        max_cycles_per_byte: Some(0),
        max_output_expansion: Some(1),
        ..ResourceCert::default()
    });
    let long = vec![b'a'; 4096];
    let inputs: Vec<&[u8]> = vec![b"abca", &long, b"cab", b"bbc"];
    let sequence = [&a, &b, &a, &flipped, &tight, &a];
    for backend in BACKENDS {
        for parallel in [false, true] {
            let o = opts(backend, parallel);
            let mut udp = Udp::new();
            let mut outputs = Vec::new();
            for image in sequence {
                let rep = udp
                    .try_run_data_parallel(image, &inputs, &Staging::default(), &o)
                    .unwrap();
                assert_eq!(rep, fresh_run(image, &inputs, &o), "{backend:?} {parallel}");
                outputs.push(rep);
            }
            // Each step really ran a different kernel from the last.
            for pair in outputs.windows(2) {
                assert_ne!(pair[0], pair[1], "{backend:?} {parallel}");
            }
            assert!(matches!(
                outputs[4].lanes[1].status,
                LaneStatus::Fault(FaultKind::CycleBudget { .. })
            ));
        }
    }
}

/// Runs one call on `udp` and checks the device memory against a
/// full-window reference: each occupied window holds exactly what a
/// lane run on fresh memory leaves there, every other word is as
/// before the call.
fn run_and_check_copy_back(
    udp: &mut Udp,
    image: &ProgramImage,
    inputs: &[&[u8]],
    o: &UdpRunOptions,
) {
    let before = udp.memory().words().to_vec();
    let rep = udp
        .try_run_data_parallel(image, inputs, &Staging::default(), o)
        .unwrap();
    assert_eq!(rep.lanes.len(), inputs.len());
    let window = o.banks_per_lane * BANK_WORDS;
    let lanes_cap = NUM_BANKS / o.banks_per_lane;
    let occupied = inputs.len().min(lanes_cap);
    let after = udp.memory().words();
    for slot in 0..occupied {
        // The last chunk to occupy the slot.
        let last = slot + (inputs.len() - 1 - slot) / lanes_cap * lanes_cap;
        let (_, mem) = Lane::run_program_capture(image, inputs[last], &Staging::default(), &o.lane);
        let want = &mem.words()[..window];
        let got = &after[slot * window..(slot + 1) * window];
        assert!(got == want, "window {slot} differs from its final contents");
        let bytes = udp.read_lane_bytes(slot, o.banks_per_lane, 0, window * 4);
        let want_bytes: Vec<u8> = want.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert!(bytes == want_bytes, "read_lane_bytes of window {slot}");
    }
    assert!(
        after[occupied * window..] == before[occupied * window..],
        "a word outside the occupied windows changed"
    );
}

#[test]
fn copy_back_is_exact_after_a_larger_footprint() {
    let large = far_writer(15_000);
    let small = scanner(b'!');
    for backend in BACKENDS {
        for parallel in [false, true] {
            let o = opts(backend, parallel);
            let mut udp = Udp::new();
            let eight: Vec<&[u8]> = vec![b"xyzw"; 8];
            run_and_check_copy_back(&mut udp, &large, &eight, &o);
            // Three windows now hold the scanner; five keep the writer's.
            run_and_check_copy_back(&mut udp, &small, &ins(&["aa", "ab", "b"]), &o);
            // A shorter run of the writer itself.
            run_and_check_copy_back(&mut udp, &large, &ins(&["x", "xy"]), &o);
            // More chunks than lanes: only the last wave's windows stay.
            let many: Vec<&[u8]> = (0..70).map(|i| &b"xyzxyzxyz"[..1 + i % 9]).collect();
            run_and_check_copy_back(&mut udp, &large, &many, &o);
            run_and_check_copy_back(&mut udp, &small, &many, &o);
        }
    }
}

#[test]
fn copy_back_is_exact_after_a_sharing_mode_run() {
    let large = far_writer(15_000);
    let small = scanner(b'!');
    for addressing in [AddressingMode::Restricted, AddressingMode::Global] {
        for parallel in [false, true] {
            let mut udp = Udp::new();
            let shared = UdpRunOptions {
                addressing,
                ..opts(ExecBackend::Interpreter, false)
            };
            let four: Vec<&[u8]> = vec![b"abc"; 4];
            udp.try_run_data_parallel(&large, &four, &Staging::default(), &shared)
                .unwrap();
            let o = opts(ExecBackend::Compiled, parallel);
            run_and_check_copy_back(&mut udp, &small, &ins(&["a", "aa"]), &o);
            run_and_check_copy_back(&mut udp, &large, &ins(&["a", "aa", "aaa"]), &o);
        }
    }
}

#[test]
fn copy_back_is_exact_when_the_bank_split_changes() {
    // Byte 30 000 is word 7 500: bank 1 of a two-bank window.
    let large = far_writer(30_000);
    let small = scanner(b'!');
    for backend in BACKENDS {
        for parallel in [false, true] {
            let o = |banks_per_lane| UdpRunOptions {
                banks_per_lane,
                ..opts(backend, parallel)
            };
            let mut udp = Udp::new();
            run_and_check_copy_back(&mut udp, &large, &ins(&["ab", "abc", "a"]), &o(2));
            // Bank 1 is now window 1 of a one-bank split.
            run_and_check_copy_back(&mut udp, &small, &ins(&["a", "aa", "aaa", "b"]), &o(1));
            run_and_check_copy_back(&mut udp, &large, &ins(&["ab"; 3]), &o(2));
            run_and_check_copy_back(&mut udp, &small, &ins(&["a"]), &o(4));
        }
    }
}

#[test]
fn caller_worker_degrades_its_panicking_chunk() {
    // Chunk 0 always runs on the calling thread; its input is long
    // enough to cross the chaos threshold, chunk 1's is not.
    let image = scanner(b'!');
    let long = vec![b'a'; 200];
    let inputs: Vec<&[u8]> = vec![&long, b"aaa"];
    let panicked_on = Arc::new(Mutex::new(Vec::new()));
    let hook = std::panic::take_hook();
    let seen = Arc::clone(&panicked_on);
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("chaos") {
            seen.lock().unwrap().push(std::thread::current().id());
        }
    }));
    let mut reports = Vec::new();
    for backend in BACKENDS {
        let o = UdpRunOptions {
            lane: LaneConfig {
                chaos_panic_at: Some(50),
                ..LaneConfig::default()
            },
            ..opts(backend, true)
        };
        reports.push(Udp::new().try_run_data_parallel(&image, &inputs, &Staging::default(), &o));
    }
    std::panic::set_hook(hook);
    assert_eq!(
        *panicked_on.lock().unwrap(),
        vec![std::thread::current().id(); 2],
        "chunk 0 panicked on the calling thread"
    );
    for rep in reports {
        let rep = rep.expect("pre-flight config is valid");
        assert!(
            matches!(
                &rep.lanes[0].status,
                LaneStatus::Fault(FaultKind::HostPanic(m)) if m.contains("chaos")
            ),
            "chunk 0 should carry the panic: {:?}",
            rep.lanes[0].status
        );
        assert_eq!(rep.lanes[1].status, LaneStatus::InputExhausted);
        assert_eq!(rep.lanes[1].output, b"!!!");
    }
}
