//! Cross-crate integration tests: full compile → EffCLiP layout →
//! device execution pipelines checked against the CPU baselines.

use udp::kernels;
use udp_asm::LayoutOptions;
use udp_codecs::{snappy_decompress, CsvParser, HuffmanTree};
use udp_isa::Reg;
use udp_sim::engine::Staging;
use udp_sim::{Lane, LaneConfig, Udp, UdpRunOptions};
use udp_workloads as w;

#[test]
fn csv_device_run_matches_baseline_fields() {
    let data = w::food_inspection_csv(30_000, 100);
    let report = kernels::csv::run(&data); // panics on mismatch
    assert_eq!(report.lanes, 64);
    assert!(report.wall_cycles > 0);
}

#[test]
fn udp_snappy_stream_decompresses_with_udp_decompressor() {
    // Compress on the UDP, decompress on the UDP: both programs agree
    // with each other and with the CPU codec.
    let block = w::canterbury_like(w::Entropy::Low, 20_000, 101);
    let comp_img = udp_compilers::snappy::snappy_compress_to_udp()
        .assemble(&LayoutOptions::with_banks(2))
        .unwrap();
    let staging = Staging {
        segments: vec![],
        regs: vec![(Reg::new(2), block.len() as u32)],
    };
    let (comp, _) = Lane::run_program_capture(&comp_img, &block, &staging, &LaneConfig::default());
    let framed = udp_compilers::snappy::frame_compressed(block.len(), &comp.output);
    assert_eq!(snappy_decompress(&framed).unwrap(), block);

    let dec_img = udp_compilers::snappy::snappy_decompress_to_udp()
        .assemble(&LayoutOptions::with_banks(1))
        .unwrap();
    let dec = Lane::run_program(&dec_img, &framed, &LaneConfig::default());
    assert_eq!(dec.output, block);
}

#[test]
fn huffman_udp_pipeline_round_trips_bdbench() {
    let data = w::bdbench_block(0, 16_000, 102);
    let enc = kernels::huffman::run_encode(&data);
    let dec = kernels::huffman::run_decode(&data);
    assert!(enc.lane_rate_mbps > 0.0 && dec.lane_rate_mbps > 0.0);
}

#[test]
fn engine_runs_multiple_waves_beyond_64_chunks() {
    let img = udp_compilers::csv::csv_to_udp()
        .assemble(&LayoutOptions::with_banks(1))
        .unwrap();
    let chunk = w::crimes_csv(2_000, 103);
    let inputs: Vec<&[u8]> = vec![&chunk; 130]; // three waves
    let mut udp = Udp::new();
    let rep = udp
        .try_run_data_parallel(
            &img,
            &inputs,
            &Staging::default(),
            &UdpRunOptions::default(),
        )
        .expect("valid run");
    assert_eq!(rep.lanes.len(), 130);
    let single = rep.lanes[0].cycles;
    assert_eq!(rep.wall_cycles, single * 3, "three data-parallel waves");
}

#[test]
fn restricted_addressing_lets_large_programs_run_with_fewer_lanes() {
    // A trigger FSM with wide pulse counting spans > 1 bank.
    let fsm = udp_codecs::TriggerFsm::new(64, 192, 13);
    let pb = udp_compilers::trigger::trigger_to_udp(&fsm);
    let img = pb.assemble(&LayoutOptions::with_banks(2)).unwrap();
    assert!(img.stats.span_words > 4096 || img.stats.span_words > 3000);
    let lanes = Udp::max_lanes(&img, 2);
    assert_eq!(lanes, 32, "2-bank windows halve lane parallelism");
}

#[test]
fn histogram_counts_survive_the_full_device_path() {
    let le = w::latitude_stream(4_000, 104);
    let hist = udp_codecs::Histogram::uniform(41.6, 42.0, 10);
    let report = kernels::histogram::run(&le, &hist); // verifies internally
    assert!(report.lane_rate_mbps > 100.0);
}

#[test]
fn dictionary_pipeline_from_real_csv_column() {
    let table = w::crimes_csv(60_000, 105);
    let rows = CsvParser::new().parse(&table);
    let col: Vec<Vec<u8>> = rows.iter().skip(1).map(|r| r[5].clone()).collect();
    let report = kernels::dict::run(&col[..1500.min(col.len())]);
    assert!(report.lanes >= 32);
}

#[test]
fn pattern_models_agree_on_nids_traffic() {
    let pats = w::nids_literals(24, 106);
    let (trace, planted) = w::traffic_with_matches(&pats, 16_000, 600, 106);
    assert!(planted > 0);
    let adfa = kernels::patterns::run_adfa(&pats, &trace);
    // Build equivalent regexes and scan with the DFA model.
    let pats_re: Vec<String> = pats
        .iter()
        .map(|p| {
            p.iter()
                .map(|&b| {
                    if b.is_ascii_alphanumeric() {
                        (b as char).to_string()
                    } else {
                        format!("\\x{b:02x}")
                    }
                })
                .collect()
        })
        .collect();
    let refs: Vec<&str> = pats_re.iter().map(String::as_str).collect();
    let dfa = kernels::patterns::run_dfa(&refs, &trace);
    assert!(adfa.lane_rate_mbps > 0.0 && dfa.lane_rate_mbps > 0.0);
}

#[test]
fn etl_pipeline_to_udp_offload_end_to_end() {
    let raw = w::lineitem_csv(80_000, 107);
    let compressed = udp_codecs::snappy_compress(&raw);
    let (store, rep) = udp_etl::run_cpu_etl(&compressed);
    assert!(store.rows > 50);
    let (cpu_only, offloaded) = udp_etl::udp_offload_model(
        &rep,
        udp_etl::OffloadRates {
            decompress_mbps: 1000.0,
            parse_mbps: 500.0,
        },
    );
    assert!(offloaded <= cpu_only);
}

#[test]
fn huffman_tree_shapes_drive_bank_allocation() {
    // Byte-diverse data (crawl) builds a big tree; the decoder image
    // may need multiple banks — exactly the §5.2 "craw" scenario.
    let data = w::bdbench_block(0, 60_000, 108);
    let tree = HuffmanTree::from_data(&data);
    let pb = udp_compilers::huffman::huffman_decode_to_udp(
        &tree,
        udp_compilers::huffman::SymbolMode::RegisterRefill,
    );
    let img = pb.assemble(&LayoutOptions::with_banks(64)).unwrap();
    let banks = img.stats.span_words.div_ceil(4096);
    assert!(banks >= 1);
    assert!(Udp::max_lanes(&img, banks) <= 64);
}
