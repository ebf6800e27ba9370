//! Pool-vs-sequential determinism: the persistent worker pool must
//! reproduce the sequential execution path field-for-field — same
//! [`UdpRunReport`] (cycles, stalls, refs, outputs, reports, registers)
//! for every program, chunk count, and staging. Host scheduling is a
//! speed knob, never a semantics knob.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use udp_asm::{LayoutOptions, ProgramBuilder, Target};
use udp_isa::action::{Action, Opcode};
use udp_isa::Reg;
use udp_sim::engine::Staging;
use udp_sim::{LaneConfig, LaneStatus, Udp, UdpRunOptions};

/// A small random scanner: `n_states` consuming states in a ring, each
/// with a few labeled arcs (symbol, action flavor) and a fallback arc
/// back into the ring. Every generated program assembles into one bank.
fn build_program(n_states: usize, arcs: &[(u8, u8)]) -> udp_asm::ProgramImage {
    let mut b = ProgramBuilder::new();
    let states: Vec<_> = (0..n_states.max(1))
        .map(|_| b.add_consuming_state())
        .collect();
    b.set_entry(states[0]);
    let mut used = std::collections::HashSet::new();
    for (i, &(sym, flavor)) in arcs.iter().enumerate() {
        if !used.insert((i % states.len(), sym)) {
            continue; // one labeled arc per (state, symbol)
        }
        let from = states[i % states.len()];
        let to = states[(i + 1) % states.len()];
        let actions = match flavor % 6 {
            0 => vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(sym))],
            1 => vec![Action::imm(
                Opcode::Report,
                Reg::R0,
                Reg::R0,
                u16::from(flavor),
            )],
            2 => vec![
                Action::imm(Opcode::MovI, Reg::new(1), Reg::R0, 2048 + u16::from(sym)),
                Action::imm(Opcode::LoadB, Reg::new(2), Reg::new(1), 0),
                Action::imm(Opcode::EmitB, Reg::R0, Reg::new(2), 0),
            ],
            3 => vec![Action::imm(
                Opcode::BumpW,
                Reg::new(3),
                Reg::new(12),
                1024 + u16::from(sym & 0x3F) * 4,
            )],
            4 => vec![Action::imm(Opcode::EmitW, Reg::R0, Reg::new(3), 0)],
            _ => vec![],
        };
        b.labeled_arc(from, u16::from(sym), Target::State(to), actions);
    }
    for &s in &states {
        b.fallback_arc(s, Target::State(s), vec![]);
    }
    b.assemble(&LayoutOptions::default())
        .expect("small scanner fits one bank")
}

/// Runs the same workload through the sequential path and the pool and
/// asserts report equality plus final lane-window equality.
fn assert_pool_matches_sequential(
    image: &udp_asm::ProgramImage,
    inputs: &[&[u8]],
    staging: &Staging,
) {
    let base = UdpRunOptions::default();
    let mut seq_udp = Udp::new();
    let seq = seq_udp
        .try_run_data_parallel(image, inputs, staging, &base)
        .expect("valid run");
    let mut pool_udp = Udp::new();
    let pooled = pool_udp
        .try_run_data_parallel(
            image,
            inputs,
            staging,
            &UdpRunOptions {
                parallel: true,
                ..base
            },
        )
        .expect("valid run");
    assert_eq!(seq, pooled, "pooled report diverged from sequential");
    let lanes = pooled.lanes_used.max(1).min(inputs.len());
    for lane in 0..lanes {
        assert_eq!(
            seq_udp.read_lane_bytes(lane, 1, 0, 4096),
            pool_udp.read_lane_bytes(lane, 1, 0, 4096),
            "device window {lane} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random program × random inputs × the chunk counts that straddle
    /// the wave boundary (0, 1, 63, 64, 65, 200) × random staging.
    #[test]
    fn prop_pooled_equals_sequential(
        n_states in 1usize..4,
        arcs in proptest::collection::vec((0u8..8, any::<u8>()), 1..10),
        chunk_sel in 0usize..6,
        seed_input in proptest::collection::vec(0u8..8, 0..24),
        stage_byte in any::<u8>(),
        stage_reg in 0u32..1000,
    ) {
        let image = build_program(n_states, &arcs);
        let n_chunks = [0usize, 1, 63, 64, 65, 200][chunk_sel];
        // Vary the chunks so different lanes do different work: rotate
        // the seed input by the chunk index.
        let chunks: Vec<Vec<u8>> = (0..n_chunks)
            .map(|i| {
                let mut v = seed_input.clone();
                v.rotate_left(i % seed_input.len().max(1));
                if i % 3 == 0 { v.push((i % 8) as u8); }
                v
            })
            .collect();
        let inputs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let staging = Staging {
            segments: vec![(2048, vec![stage_byte; 16])],
            regs: vec![(Reg::new(3), stage_reg)],
        };
        assert_pool_matches_sequential(&image, &inputs, &staging);
    }
}

/// The chaos-panic degradation contract, re-run through the pool: the
/// poisoned chunks (long inputs crossing the chaos threshold) must come
/// back as `Fault` reports while every sibling chunk — including ones
/// the same pool worker ran after the panic — survives with clean
/// state. A sequential run, with no supervisor attached, is the
/// one-worker pool: every chunk runs on the calling thread and
/// degrades the same way, into the same report.
#[test]
fn chaos_panics_degrade_through_the_pool() {
    let image = build_program(1, &[(1, 0)]); // emits on symbol 1
    let short: Vec<u8> = vec![1; 8];
    let long: Vec<u8> = vec![1; 300];
    // Poisoned chunks scattered so a pool worker hits ok → fault → ok.
    let chunks: Vec<&[u8]> = vec![&short, &long, &short, &short, &long, &short, &long, &short];
    let opts = UdpRunOptions {
        parallel: true,
        lane: LaneConfig {
            chaos_panic_at: Some(100),
            ..Default::default()
        },
        ..Default::default()
    };
    let sequential = UdpRunOptions {
        parallel: false,
        ..opts.clone()
    };
    // Silence the default panic hook for the deliberate panics, noting
    // the thread each one ran on, then restore it so unrelated test
    // failures keep their messages.
    let panicked_on = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&panicked_on);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("chaos") {
            seen.lock().unwrap().push(std::thread::current().id());
        }
    }));
    let rep = Udp::new().try_run_data_parallel(&image, &chunks, &Staging::default(), &opts);
    let pooled_panics = panicked_on.lock().unwrap().len();
    let seq = Udp::new().try_run_data_parallel(&image, &chunks, &Staging::default(), &sequential);
    std::panic::set_hook(hook);
    let rep = rep.expect("pre-flight config is valid");
    let seq = seq.expect("pre-flight config is valid");
    assert_eq!(
        panicked_on.lock().unwrap()[pooled_panics..],
        vec![std::thread::current().id(); 3],
        "a sequential run's chunks all run on the calling thread"
    );
    for rep in [&rep, &seq] {
        assert_eq!(rep.lanes.len(), 8);
        for (i, lane) in rep.lanes.iter().enumerate() {
            if chunks[i].len() > 100 {
                assert!(
                    matches!(
                        &lane.status,
                        LaneStatus::Fault(udp_sim::FaultKind::HostPanic(m)) if m.contains("chaos")
                    ),
                    "chunk {i} should have faulted: {:?}",
                    lane.status
                );
                assert_eq!(lane.cycles, 0, "faulted chunk reports zero counters");
            } else {
                assert_eq!(lane.status, LaneStatus::InputExhausted, "chunk {i}");
                assert_eq!(lane.output, vec![1u8; 8], "chunk {i} output survives");
            }
        }
    }
    assert_eq!(seq, rep, "sequential report diverged from pooled");
}
