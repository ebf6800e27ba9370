//! Differential oracle for the tier-2 compiled backend (DESIGN.md
//! §2.6.3): every program in the compiler corpus, run through
//! `ExecBackend::Compiled`, must produce a `UdpRunReport` bit-identical
//! to the interpreter's — outputs, cycles, dispatches, memory
//! references, statuses, health, everything `PartialEq` sees.
//!
//! The interpreter is the reference semantics; the compiled path is an
//! optimization of it, never a second semantics. That includes the
//! fault surface: chaos-injected faults and cycle-budget caps must fire
//! at the same cycle with the same typed `FaultKind` on both backends.

use udp_compilers::corpus::{assemble_smallest, corpus};
use udp_isa::mem::BANK_WORDS;
use udp_sim::{ExecBackend, FaultKind, LaneConfig, LaneStatus, Staging, Udp, UdpRunOptions};

/// Deterministic xorshift64* byte stream (no rand dependency).
fn pseudo_bytes(n: usize, mut seed: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let word = seed.wrapping_mul(0x2545F4914F6CDD1D);
        v.extend_from_slice(&word.to_le_bytes());
    }
    v.truncate(n);
    v
}

/// Printable-ish bytes (letters, digits, separators) — random enough to
/// wander, structured enough to keep parser kernels alive longer than
/// raw noise does.
fn texty_bytes(n: usize, seed: u64) -> Vec<u8> {
    const SET: &[u8] = b"abcdefghij0123456789,;\"\n xyz<>{}:";
    pseudo_bytes(n, seed)
        .into_iter()
        .map(|b| SET[b as usize % SET.len()])
        .collect()
}

/// The input chunks every corpus program is differentially tested on.
/// Mixed sizes (empty, tiny, page-ish) exercise the burst loop's entry,
/// exit, and degenerate paths; each family also gets input it accepts
/// to the end, so its hot loop runs over a whole chunk.
fn generic_inputs(name: &str) -> Vec<Vec<u8>> {
    let mut chunks = vec![
        Vec::new(),
        texty_bytes(3, 11),
        pseudo_bytes(1024, 42),
        texty_bytes(4096, 7),
    ];
    if name.starts_with("csv") {
        chunks.push(udp_workloads::crimes_csv(8_000, 21));
    }
    if name == "json" || name == "xml" {
        chunks.push(texty_bytes(8_000, 91));
    }
    if name == "json" {
        chunks.push(udp_workloads::ndjson_events(8_000, 5));
    }
    if name == "xml" {
        chunks.push(udp_workloads::xml_records(8_000, 5));
    }
    if let Some(w) = name.strip_prefix("bitpack-enc-w") {
        // Codes that fit the width; a wider one is a dispatch miss.
        let width: u32 = w.parse().unwrap();
        let mask = ((1u32 << width) - 1) as u8;
        chunks.push(pseudo_bytes(4096, 3).iter().map(|b| b & mask).collect());
    }
    if name.starts_with("dict") {
        let vocab = vocabulary(name);
        let picks = pseudo_bytes(1500, 17);
        let tokens: Vec<&[u8]> = picks
            .iter()
            .map(|&p| vocab[usize::from(p) % vocab.len()].as_slice())
            .collect();
        chunks.push(udp_compilers::dict::join_tokens(&tokens));
    }
    if name == "huffman-encode" {
        // Symbols of the alphabet the encoder's code tree was built on.
        let sample = udp_compilers::corpus::HUFFMAN_SAMPLE;
        chunks.push(
            pseudo_bytes(4096, 29)
                .iter()
                .map(|&b| sample[usize::from(b) % sample.len()])
                .collect(),
        );
    }
    chunks
}

/// The dictionary a `dict*` corpus program encodes against: distinct
/// lowercase tokens, as many as give the staged table the hash width
/// the program was compiled for.
fn vocabulary(name: &str) -> Vec<Vec<u8>> {
    let n = match name {
        "dict-k4" => 4,
        "dict-k11" => 600,
        _ => 48,
    };
    (0..n)
        .map(|i: usize| {
            let len = 3 + i % 7;
            (0..len)
                .map(|j| b'a' + ((i * 7 + j * 13 + i / 26) % 26) as u8)
                .chain(format!("{i}").into_bytes())
                .collect()
        })
        .collect()
}

/// The staging a program's input needs: the `dict*` programs probe a
/// host-built dictionary table in lane memory.
fn staging(name: &str) -> Staging {
    if !name.starts_with("dict") {
        return Staging::default();
    }
    let st = udp_compilers::dict::stage_dictionary(&vocabulary(name));
    Staging {
        segments: st.segments,
        regs: st.regs,
    }
}

/// Programs the compiled backend compiles with at least one block it
/// lowers into the bit-burst loop (every action `Action::fusable`).
fn fuses(img: &udp_asm::ProgramImage) -> bool {
    udp_sim::compiled_decline_reason(img).is_none()
        && udp_verify::ProgramGraph::decode(img)
            .arcs
            .iter()
            .filter_map(|a| a.block.as_ref())
            .any(|b| b.actions.iter().all(|(_, a)| a.fusable()))
}

fn opts(backend: ExecBackend, banks: usize, lane: LaneConfig) -> UdpRunOptions {
    UdpRunOptions {
        banks_per_lane: banks,
        lane,
        backend,
        ..UdpRunOptions::default()
    }
}

/// Runs the corpus under `lane` on both backends and asserts full
/// report equality; returns the per-program statuses for callers that
/// additionally constrain the fault surface.
fn diff_corpus(lane: &LaneConfig) -> Vec<(String, Vec<LaneStatus>)> {
    let mut statuses = Vec::new();
    for (name, pb) in corpus() {
        let img = assemble_smallest(&pb, 64).unwrap_or_else(|e| panic!("{name}: {e}"));
        let staging = staging(&name);
        let staged_words = staging
            .segments
            .iter()
            .map(|(off, bytes)| (*off as usize + bytes.len()).div_ceil(4))
            .max()
            .unwrap_or(0);
        let banks = img
            .stats
            .span_words
            .max(staged_words)
            .div_ceil(BANK_WORDS)
            .next_power_of_two();
        let chunks = generic_inputs(&name);
        let inputs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let reference = Udp::new().try_run_data_parallel(
            &img,
            &inputs,
            &staging,
            &opts(ExecBackend::Interpreter, banks, lane.clone()),
        );
        let compiled = Udp::new().try_run_data_parallel(
            &img,
            &inputs,
            &staging,
            &opts(ExecBackend::Compiled, banks, lane.clone()),
        );
        let (reference, compiled) = match (reference, compiled) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => panic!("{name}: run errors differ or failed: {a:?} vs {b:?}"),
        };
        assert_eq!(
            reference, compiled,
            "{name}: compiled backend diverged from the interpreter"
        );
        statuses.push((
            name,
            reference.lanes.iter().map(|l| l.status.clone()).collect(),
        ));
    }
    statuses
}

#[test]
fn corpus_reports_are_bit_identical_across_backends() {
    let statuses = diff_corpus(&LaneConfig::default());
    assert!(statuses.len() >= 30, "corpus shrank to {}", statuses.len());
    // Non-vacuity: every program whose blocks the compiled backend
    // lowers runs at least one whole chunk on both backends (their
    // reports are equal), so the fused loop ran to the end of input.
    let mut fused = 0;
    for (name, pb) in corpus() {
        let img = assemble_smallest(&pb, 64).unwrap_or_else(|e| panic!("{name}: {e}"));
        if !fuses(&img) {
            continue;
        }
        fused += 1;
        let (_, lanes) = statuses.iter().find(|(n, _)| *n == name).unwrap();
        let chunks = generic_inputs(&name);
        let whole = lanes
            .iter()
            .zip(&chunks)
            .any(|(s, c)| c.len() >= 1024 && *s == LaneStatus::InputExhausted);
        assert!(whole, "{name}: no chunk ran to the end of its input");
    }
    assert!(fused >= 15, "only {fused} corpus programs fuse");
}

#[test]
fn chaos_faults_fire_identically_on_both_backends() {
    let lane = LaneConfig {
        chaos_fault_at: Some(50),
        ..LaneConfig::default()
    };
    let statuses = diff_corpus(&lane);
    // Equality is asserted inside diff_corpus; additionally pin that
    // the injection actually fired somewhere (programs that exhaust
    // their input before cycle 50 legitimately never reach it).
    let injected = statuses
        .iter()
        .flat_map(|(_, s)| s)
        .filter(|s| matches!(s, LaneStatus::Fault(FaultKind::ChaosInjected { .. })))
        .count();
    assert!(injected > 0, "chaos threshold never reached — raise inputs");
}

#[test]
fn cycle_budget_caps_fire_identically_on_both_backends() {
    let lane = LaneConfig {
        max_cycles: 64,
        cycles_per_byte: 1,
        min_cycle_budget: 1,
        ..LaneConfig::default()
    };
    let statuses = diff_corpus(&lane);
    let capped = statuses
        .iter()
        .flat_map(|(_, s)| s)
        .filter(|s| matches!(s, LaneStatus::Fault(FaultKind::CycleBudget { .. })))
        .count();
    assert!(capped > 0, "budget cap never reached — tighten the config");
}

#[test]
fn pooled_compiled_runs_match_sequential_interpreter() {
    // Cross the backend matrix with the scheduler matrix: pooled
    // compiled vs sequential interpreter over enough chunks to span
    // multiple waves on a many-lane split.
    let (name, pb) = corpus().into_iter().find(|(n, _)| n == "csv").unwrap();
    let img = assemble_smallest(&pb, 64).unwrap_or_else(|e| panic!("{name}: {e}"));
    let data = udp_workloads::crimes_csv(60_000, 5);
    let chunks: Vec<&[u8]> = data.chunks(997).collect();
    let seq = Udp::new()
        .try_run_data_parallel(
            &img,
            &chunks,
            &Staging::default(),
            &opts(ExecBackend::Interpreter, 1, LaneConfig::default()),
        )
        .unwrap();
    let par = Udp::new()
        .try_run_data_parallel(
            &img,
            &chunks,
            &Staging::default(),
            &UdpRunOptions {
                parallel: true,
                ..opts(ExecBackend::Compiled, 1, LaneConfig::default())
            },
        )
        .unwrap();
    assert_eq!(seq, par);
}
