//! Parallel-wave determinism: the threaded engine path must reproduce
//! the sequential model bit-for-bit — same `UdpRunReport` (cycles,
//! stalls, references, outputs, per-lane status) and same post-run lane
//! windows — on real kernel programs with distinct per-lane inputs.

use udp_asm::{LayoutOptions, ProgramBuilder, ProgramImage};
use udp_codecs::HuffmanTree;
use udp_sim::engine::Staging;
use udp_sim::{Udp, UdpRunOptions, UdpRunReport};

/// Assembles into the smallest power-of-two bank window that fits.
fn assemble(pb: &ProgramBuilder, max_banks: usize) -> ProgramImage {
    let mut banks = 1;
    loop {
        match pb.assemble(&LayoutOptions::with_banks(banks)) {
            Ok(img) => return img,
            Err(_) if banks < max_banks => banks *= 2,
            Err(e) => panic!("program does not fit {max_banks} banks: {e}"),
        }
    }
}

/// Runs `image` over `inputs` twice — sequentially and with threaded
/// waves — and checks the reports and the post-run lane windows agree
/// exactly.
fn assert_bit_identical(
    image: &ProgramImage,
    inputs: &[&[u8]],
    staging: &Staging,
    banks_per_lane: usize,
) -> UdpRunReport {
    let seq_opts = UdpRunOptions {
        banks_per_lane,
        parallel: false,
        ..Default::default()
    };
    let par_opts = UdpRunOptions {
        parallel: true,
        ..seq_opts.clone()
    };
    let mut seq_udp = Udp::new();
    let seq = seq_udp
        .try_run_data_parallel(image, inputs, staging, &seq_opts)
        .expect("valid run");
    let mut par_udp = Udp::new();
    let par = par_udp
        .try_run_data_parallel(image, inputs, staging, &par_opts)
        .expect("valid run");

    assert_eq!(seq, par, "parallel report diverged from sequential");

    // The copied-back lane windows must match what the sequential run
    // left in device memory (read_lane_bytes compatibility).
    let lanes_cap = (64 / banks_per_lane.max(1)).max(1);
    let window_bytes = banks_per_lane * udp_isa::mem::BANK_WORDS * 4;
    for lane in 0..lanes_cap.min(inputs.len()) {
        assert_eq!(
            seq_udp.read_lane_bytes(lane, banks_per_lane, 0, window_bytes),
            par_udp.read_lane_bytes(lane, banks_per_lane, 0, window_bytes),
            "lane {lane} window diverged"
        );
    }
    par
}

/// Runs each input through a bare lazy lane — `Lane::new`, no
/// predecoded table, so every transition/action word is decoded as it
/// is read and the engine's pristine-code fast loop never engages —
/// and checks the per-lane reports match the engine's predecoded run.
/// This pins the predecode + fast-loop machinery to the reference
/// decode-on-read semantics.
fn assert_lazy_equivalent(image: &ProgramImage, inputs: &[&[u8]], rep: &UdpRunReport) {
    use udp_sim::{BitStream, Lane, LaneConfig, LocalMemory, OutputSink};
    let window_words = udp_isa::mem::BANK_WORDS;
    for (input, engine_lane) in inputs.iter().zip(&rep.lanes) {
        let mut mem = LocalMemory::with_words(window_words);
        mem.load_words(0, &image.words);
        let mut lane = Lane::new(image, 0);
        let mut stream = BitStream::new(input);
        let mut out = OutputSink::new();
        let lazy = lane.run(&mut mem, &mut stream, &mut out, &LaneConfig::default());
        assert_eq!(&lazy, engine_lane, "lazy lane diverged from engine lane");
    }
}

#[test]
fn csv_parallel_waves_are_bit_identical() {
    // 70 distinct chunks > 64 lanes forces a second wave, and the
    // varying seeds give every lane different work (different cycle
    // counts, outputs, and reference counts).
    let img = assemble(&udp_compilers::csv::csv_to_udp(), 8);
    let chunks: Vec<Vec<u8>> = (0..70u64)
        .map(|seed| udp_workloads::crimes_csv(1500 + (seed as usize % 7) * 300, seed))
        .collect();
    let inputs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
    let rep = assert_bit_identical(&img, &inputs, &Staging::default(), 1);
    assert_eq!(rep.lanes.len(), 70);
    assert!(rep.lanes.iter().any(|l| !l.output.is_empty()));
    assert_lazy_equivalent(&img, &inputs, &rep);
}

#[test]
fn huffman_encode_parallel_waves_are_bit_identical() {
    // Build the canonical code over the union of all lane inputs so
    // every symbol is encodable, then encode a different chunk per lane.
    let chunks: Vec<Vec<u8>> = (0..16u64)
        .map(|seed| udp_workloads::canterbury_like(udp_workloads::Entropy::Medium, 4000, seed))
        .collect();
    let all: Vec<u8> = chunks.iter().flatten().copied().collect();
    let tree = HuffmanTree::from_data(&all);
    let img = assemble(&udp_compilers::huffman::huffman_encode_to_udp(&tree), 8);
    let inputs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
    let rep = assert_bit_identical(&img, &inputs, &Staging::default(), 1);

    assert_lazy_equivalent(&img, &inputs, &rep);

    // Outputs are not merely equal between the two paths — they are the
    // actual Huffman streams.
    for (lane, chunk) in rep.lanes.iter().zip(&chunks) {
        let (expect, _) = tree.encode(chunk);
        assert_eq!(lane.output, expect, "lane output is not the encoding");
    }
}

#[test]
fn staged_dictionary_parallel_waves_are_bit_identical() {
    // A kernel with per-lane staging (dictionary segments + preset
    // registers) exercises the threaded path's staging at origin 0.
    let vals: Vec<String> = (0..400).map(|i| format!("cat-{}", i % 13)).collect();
    let mut enc = udp_codecs::DictionaryEncoder::default();
    enc.encode_column(&vals);
    let stg = udp_compilers::dict::stage_dictionary(enc.dictionary());
    let staging = Staging {
        segments: stg.segments.clone(),
        regs: stg.regs.clone(),
    };
    let img = assemble(&udp_compilers::dict::dict_to_udp(stg.k), 8);
    let input = udp_compilers::dict::join_tokens(&vals);
    let inputs: Vec<&[u8]> = vec![&input; 10];
    assert_bit_identical(&img, &inputs, &staging, 1);
}
