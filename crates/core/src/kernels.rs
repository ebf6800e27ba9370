//! Turnkey kernel runners — one per paper kernel (§5).
//!
//! Each runner compiles the translator output, stages per-lane data,
//! runs the full device data-parallel (inputs are duplicated across
//! lanes, the paper's own methodology for the Canterbury corpus: "we
//! duplicate the data to provide 64-lane parallelism", §4.1), verifies
//! the output against the CPU baseline, and reports the paper's
//! metrics: single-lane *Rate* (MB/s), device *Throughput* (MB/s), and
//! *Throughput/Watt* against the fixed 0.864 W system power.

use udp_asm::{LayoutOptions, ProgramImage};
use udp_isa::mem::BANK_WORDS;
use udp_isa::Reg;
use udp_sim::energy::{UDP_CLOCK_GHZ, UDP_SYSTEM_WATTS};
use udp_sim::engine::Staging;
use udp_sim::{Udp, UdpRunOptions};

/// A device-level kernel measurement.
#[derive(Debug, Clone)]
pub struct UdpKernelReport {
    /// Kernel name.
    pub name: String,
    /// Single-lane input rate, MB/s at 1 GHz.
    pub lane_rate_mbps: f64,
    /// Aggregate device throughput, MB/s.
    pub throughput_mbps: f64,
    /// Lanes that ran.
    pub lanes: usize,
    /// Banks per lane window.
    pub banks_per_lane: usize,
    /// Wall cycles of the run.
    pub wall_cycles: u64,
    /// Total input bytes across lanes.
    pub bytes_in: u64,
    /// Assembled program size in bytes.
    pub code_bytes: usize,
}

impl UdpKernelReport {
    /// Power efficiency: MB/s per watt at the paper's 0.864 W system
    /// power.
    pub fn tput_per_watt(&self) -> f64 {
        self.throughput_mbps / UDP_SYSTEM_WATTS
    }
}

/// Banks needed to cover both code and the staged data segments.
fn banks_for(image: &ProgramImage, staging: &Staging) -> usize {
    let code = image.stats.span_words.div_ceil(BANK_WORDS);
    let data = staging
        .segments
        .iter()
        .map(|(off, bytes)| (*off as usize + bytes.len()).div_ceil(BANK_WORDS * 4))
        .max()
        .unwrap_or(0);
    code.max(data).clamp(1, 64)
}

/// Runs `image` on the device with `input` duplicated across every
/// available lane.
fn run_duplicated(
    name: &str,
    image: &ProgramImage,
    input: &[u8],
    staging: &Staging,
    min_banks: usize,
) -> (udp_sim::UdpRunReport, UdpKernelReport) {
    let banks = banks_for(image, staging).max(min_banks);
    let lanes = (64 / banks).max(1);
    let mut udp = Udp::new();
    let inputs: Vec<&[u8]> = vec![input; lanes];
    let rep = udp
        .try_run_data_parallel(
            image,
            &inputs,
            staging,
            &UdpRunOptions {
                banks_per_lane: banks,
                parallel: true,
                ..Default::default()
            },
        )
        .expect("kernel fits its lane window");
    let lane0 = &rep.lanes[0];
    let kr = UdpKernelReport {
        name: name.to_string(),
        lane_rate_mbps: lane0.rate_mbps(UDP_CLOCK_GHZ),
        throughput_mbps: rep.throughput_mbps(UDP_CLOCK_GHZ),
        lanes,
        banks_per_lane: banks,
        wall_cycles: rep.wall_cycles,
        bytes_in: rep.bytes_in,
        code_bytes: image.stats.code_bytes(),
    };
    (rep, kr)
}

fn assemble(pb: &udp_asm::ProgramBuilder, max_banks: usize) -> ProgramImage {
    // Find the smallest window that fits.
    let mut banks = 1;
    loop {
        match pb.assemble(&LayoutOptions::with_banks(banks)) {
            Ok(img) => return img,
            Err(_) if banks < max_banks => banks *= 2,
            Err(e) => panic!("program does not fit {max_banks} banks: {e}"),
        }
    }
}

/// CSV parsing (§5.1).
pub mod csv {
    use super::*;
    use udp_compilers::csv::{baseline_framing, csv_to_udp};

    /// Parses `data` (must be `\n`-terminated RFC 4180 CSV) on the
    /// device, verifying the extracted fields against the CPU parser.
    ///
    /// # Panics
    ///
    /// Panics if the UDP output disagrees with the baseline.
    pub fn run(data: &[u8]) -> UdpKernelReport {
        let img = assemble(&csv_to_udp(), 8);
        let (rep, kr) = run_duplicated("csv-parse", &img, data, &Staging::default(), 1);
        assert_eq!(rep.lanes[0].output, baseline_framing(data), "csv mismatch");
        kr
    }
}

/// Huffman coding (§5.2).
pub mod huffman {
    use super::*;
    use udp_codecs::HuffmanTree;
    use udp_compilers::huffman::{
        huffman_decode_to_udp, huffman_encode_to_udp, pad_for_stride, ssref_stride,
        truncate_decoded, SymbolMode,
    };

    /// Encodes `data` with its own canonical code on the device.
    pub fn run_encode(data: &[u8]) -> UdpKernelReport {
        let tree = HuffmanTree::from_data(data);
        let img = assemble(&huffman_encode_to_udp(&tree), 8);
        let (rep, kr) = run_duplicated("huffman-encode", &img, data, &Staging::default(), 1);
        let (expect, _) = tree.encode(data);
        assert_eq!(rep.lanes[0].output, expect, "huffman encode mismatch");
        kr
    }

    /// Decodes `data`'s self-encoded stream on the device (SsRef mode).
    pub fn run_decode(data: &[u8]) -> UdpKernelReport {
        let tree = HuffmanTree::from_data(data);
        let (bits, nbits) = tree.encode(data);
        let padded = pad_for_stride(&bits, nbits, ssref_stride(&tree));
        let img = assemble(
            &huffman_decode_to_udp(&tree, SymbolMode::RegisterRefill),
            64,
        );
        let (rep, kr) = run_duplicated("huffman-decode", &img, &padded, &Staging::default(), 1);
        assert_eq!(
            truncate_decoded(rep.lanes[0].output.clone(), data.len()),
            data,
            "huffman decode mismatch"
        );
        kr
    }
}

/// Pattern matching (§5.3).
pub mod patterns {
    use super::*;
    use udp_automata::{Adfa, Dfa, Nfa, Regex};
    use udp_compilers::automata::{adfa_to_udp, dfa_to_udp, nfa_to_udp};
    use udp_sim::engine::run_nfa;
    use udp_sim::LaneConfig;

    /// Multi-pattern string matching with the ADFA model.
    ///
    /// # Panics
    ///
    /// Panics if the reported matches disagree with the reference scan.
    pub fn run_adfa<P: AsRef<[u8]>>(pats: &[P], trace: &[u8]) -> UdpKernelReport {
        let adfa = Adfa::build(pats);
        let img = assemble(&adfa_to_udp(&adfa), 16);
        let (rep, kr) = run_duplicated("adfa-match", &img, trace, &Staging::default(), 1);
        let mut got: Vec<(u16, u32)> = rep.lanes[0].reports.clone();
        got.sort_unstable();
        got.dedup();
        let mut expect: Vec<(u16, u32)> = adfa
            .find_all(trace)
            .into_iter()
            .map(|(id, e)| (id, e as u32))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect, "adfa mismatch");
        kr
    }

    /// Regex matching with the scanning-DFA model. Patterns are
    /// partitioned across lanes so each group's DFA stays small
    /// (§5.3: "the collection of patterns are partitioned across UDP
    /// lanes, maintaining data parallelism"): with `G` groups, `64/G`
    /// lanes remain for data parallelism.
    pub fn run_dfa(regexes: &[&str], trace: &[u8]) -> UdpKernelReport {
        // Greedy partition: grow a group while its DFA fits 2 banks.
        let mut groups: Vec<Vec<&str>> = Vec::new();
        let mut current: Vec<&str> = Vec::new();
        let fits = |set: &[&str]| -> bool {
            let asts: Vec<Regex> = set.iter().map(|p| Regex::parse(p).unwrap()).collect();
            let dfa = Dfa::determinize(&Nfa::scanner(&asts)).minimize();
            dfa_to_udp(&dfa)
                .assemble(&LayoutOptions::with_banks(2))
                .is_ok()
        };
        for &p in regexes {
            current.push(p);
            if !fits(&current) {
                let last = current.pop().expect("just pushed");
                assert!(!current.is_empty(), "single pattern exceeds 2 banks");
                groups.push(std::mem::take(&mut current));
                current.push(last);
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }

        // Run every group on the trace; the slowest group gates the
        // wall clock, and 64/G lanes remain per group.
        let n_groups = groups.len().max(1);
        let lanes = (64 / n_groups).max(1);
        let mut min_rate = f64::MAX;
        let mut wall = 0u64;
        let mut code_bytes = 0usize;
        let mut id_base = 0u16;
        let mut got: Vec<(u16, u32)> = Vec::new();
        for group in &groups {
            let asts: Vec<Regex> = group.iter().map(|p| Regex::parse(p).unwrap()).collect();
            let dfa = Dfa::determinize(&Nfa::scanner(&asts)).minimize();
            let img = assemble(&dfa_to_udp(&dfa), 2);
            let rep = udp_sim::Lane::run_program(&img, trace, &udp_sim::LaneConfig::default());
            got.extend(rep.reports.iter().map(|&(id, p)| (id + id_base, p)));
            min_rate = min_rate.min(rep.rate_mbps(UDP_CLOCK_GHZ));
            wall = wall.max(rep.cycles);
            code_bytes += img.stats.code_bytes();
            id_base += group.len() as u16;
        }
        got.sort_unstable();
        got.dedup();

        // Verify against the single combined DFA.
        let asts: Vec<Regex> = regexes.iter().map(|p| Regex::parse(p).unwrap()).collect();
        let dfa = Dfa::determinize(&Nfa::scanner(&asts)).minimize();
        let mut expect: Vec<(u16, u32)> = dfa
            .find_all(trace)
            .into_iter()
            .filter(|&(_, e)| e > 0)
            .map(|(id, e)| (id, e as u32))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect, "dfa mismatch");

        UdpKernelReport {
            name: "dfa-match".to_string(),
            lane_rate_mbps: min_rate,
            throughput_mbps: min_rate * lanes as f64,
            lanes,
            banks_per_lane: 2 * n_groups.min(32),
            wall_cycles: wall,
            bytes_in: trace.len() as u64 * lanes as u64,
            code_bytes,
        }
    }

    /// Regex matching with the NFA multi-activation model (patterns
    /// partitioned across lanes, §5.3).
    pub fn run_nfa_model(regexes: &[&str], trace: &[u8]) -> UdpKernelReport {
        let asts: Vec<Regex> = regexes.iter().map(|p| Regex::parse(p).unwrap()).collect();
        let nfa = Nfa::scanner(&asts);
        let pb = nfa_to_udp(&nfa);
        let img = pb
            .assemble(&LayoutOptions::with_banks(1))
            .expect("NFA programs are single-bank; partition the patterns");
        let rep = run_nfa(&img, trace, &LaneConfig::default());
        let mut got = rep.reports.clone();
        got.sort_unstable();
        got.dedup();
        let mut expect: Vec<(u16, u32)> = nfa
            .find_all(trace)
            .into_iter()
            .filter(|&(_, e)| e > 0)
            .map(|(id, e)| (id, e as u32))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect, "nfa mismatch");
        let rate = rep.rate_mbps(UDP_CLOCK_GHZ);
        UdpKernelReport {
            name: "nfa-match".to_string(),
            lane_rate_mbps: rate,
            throughput_mbps: rate * 64.0,
            lanes: 64,
            banks_per_lane: 1,
            wall_cycles: rep.cycles,
            bytes_in: rep.bytes_consumed * 64,
            code_bytes: img.stats.code_bytes(),
        }
    }
}

/// Dictionary encoding (§5.4).
pub mod dict {
    use super::*;
    use udp_codecs::{DictionaryEncoder, Run};
    use udp_compilers::dict::{
        decode_codes, dict_rle_to_udp, dict_to_udp, finish_dict_rle, join_tokens, stage_dictionary,
    };

    fn staging_of(d: &udp_compilers::dict::DictStaging) -> Staging {
        Staging {
            segments: d.segments.clone(),
            regs: d.regs.clone(),
        }
    }

    /// Dictionary-encodes a column against a host-built dictionary.
    pub fn run<V: AsRef<[u8]>>(column: &[V]) -> UdpKernelReport {
        let mut enc = DictionaryEncoder::default();
        let expect = enc.encode_column(column);
        let stg = stage_dictionary(enc.dictionary());
        let img = assemble(&dict_to_udp(stg.k), 8);
        assert!(
            img.stats.span_words * 4 <= usize::from(udp_compilers::dict::SCRATCH_PREV),
            "dictionary program overlaps its staging area"
        );
        let input = join_tokens(column);
        let (rep, kr) = run_duplicated("dictionary", &img, &input, &staging_of(&stg), 1);
        assert_eq!(decode_codes(&rep.lanes[0].output), expect, "dict mismatch");
        kr
    }

    /// Dictionary + run-length encoding.
    pub fn run_rle<V: AsRef<[u8]>>(column: &[V]) -> UdpKernelReport {
        let mut enc = DictionaryEncoder::default();
        let codes = enc.encode_column(column);
        let expect = udp_codecs::rle_encode(&codes);
        let stg = stage_dictionary(enc.dictionary());
        let img = assemble(&dict_rle_to_udp(stg.k), 8);
        assert!(
            img.stats.span_words * 4 <= usize::from(udp_compilers::dict::SCRATCH_PREV),
            "dictionary-RLE program overlaps its staging area"
        );
        let input = join_tokens(column);

        let banks = banks_for(&img, &staging_of(&stg));
        let mut udp = Udp::new();
        let lanes = 64 / banks;
        let inputs: Vec<&[u8]> = vec![&input; lanes];
        let rep = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &staging_of(&stg),
                &UdpRunOptions {
                    banks_per_lane: banks,
                    parallel: true,
                    ..Default::default()
                },
            )
            .expect("kernel fits its lane window");
        // Reconstruct lane 0's runs (trailing run lives in lane memory).
        let flat = decode_codes(&rep.lanes[0].output);
        let mut runs: Vec<Run<u32>> = flat
            .chunks_exact(2)
            .map(|p| Run {
                value: p[0],
                length: p[1],
            })
            .collect();
        let scratch =
            udp.read_lane_bytes(0, banks, u32::from(udp_compilers::dict::SCRATCH_PREV), 8);
        let prev = u32::from_le_bytes(scratch[0..4].try_into().expect("4"));
        let count = u32::from_le_bytes(scratch[4..8].try_into().expect("4"));
        if prev != 0 {
            runs.push(Run {
                value: prev - 1,
                length: count,
            });
        }
        assert_eq!(runs, expect, "dict-rle mismatch");
        let _ = finish_dict_rle;
        let lane0 = &rep.lanes[0];
        UdpKernelReport {
            name: "dictionary-rle".to_string(),
            lane_rate_mbps: lane0.rate_mbps(UDP_CLOCK_GHZ),
            throughput_mbps: rep.throughput_mbps(UDP_CLOCK_GHZ),
            lanes,
            banks_per_lane: banks,
            wall_cycles: rep.wall_cycles,
            bytes_in: rep.bytes_in,
            code_bytes: img.stats.code_bytes(),
        }
    }
}

/// Histogramming (§5.5).
pub mod histogram {
    use super::*;
    use udp_codecs::Histogram;
    use udp_compilers::histogram::{histogram_to_udp, read_bins, to_big_endian};
    use udp_sim::{Lane, LaneConfig};

    /// Bins a little-endian `f32` stream, verifying counts against the
    /// GSL-style baseline.
    pub fn run(le_bytes: &[u8], hist: &Histogram) -> UdpKernelReport {
        let (pb, layout) = histogram_to_udp(hist);
        let img = assemble(&pb, 8);
        let be = to_big_endian(le_bytes);
        let (rep, kr) = run_duplicated("histogram", &img, &be, &Staging::default(), 1);

        // Verify on a dedicated single-lane run (bin tables of the
        // duplicated lanes all hold identical counts).
        let (_, mem) =
            Lane::run_program_capture(&img, &be, &Staging::default(), &LaneConfig::default());
        let bins = read_bins(&mem, &layout);
        let mut base = Histogram::with_edges(hist.edges().to_vec());
        base.add_le_bytes(le_bytes);
        let mut expect: Vec<u64> = base.counts().to_vec();
        expect.push(base.outliers());
        assert_eq!(bins, expect, "histogram mismatch");
        let _ = rep;
        kr
    }
}

/// Snappy compression and decompression (§5.6).
pub mod snappy {
    use super::*;
    use udp_codecs::{snappy_compress, snappy_decompress};
    use udp_compilers::snappy::{
        frame_compressed, snappy_compress_to_udp, snappy_decompress_to_udp, MAX_BLOCK,
    };

    /// Compresses a block (≤ 64 KB), validating the stream round-trips
    /// through the CPU decompressor. Returns the report and the
    /// compression ratio (compressed / raw).
    pub fn run_compress(block: &[u8]) -> (UdpKernelReport, f64) {
        assert!(block.len() <= MAX_BLOCK);
        let img = assemble(&snappy_compress_to_udp(), 8);
        let staging = Staging {
            segments: vec![],
            regs: vec![(Reg::new(2), block.len() as u32)],
        };
        // Code (~2 KB) + the 2^11-slot hash table at 4 KB fit one bank.
        let (rep, kr) = run_duplicated("snappy-compress", &img, block, &staging, 1);
        let framed = frame_compressed(block.len(), &rep.lanes[0].output);
        assert_eq!(
            snappy_decompress(&framed).expect("valid stream"),
            block,
            "snappy compress mismatch"
        );
        let ratio = framed.len() as f64 / block.len().max(1) as f64;
        (kr, ratio)
    }

    /// Decompresses a CPU-compressed stream on the device.
    pub fn run_decompress(block: &[u8]) -> UdpKernelReport {
        let stream = snappy_compress(block);
        let img = assemble(&snappy_decompress_to_udp(), 8);
        let (rep, kr) = run_duplicated("snappy-decompress", &img, &stream, &Staging::default(), 1);
        assert_eq!(rep.lanes[0].output, block, "snappy decompress mismatch");
        kr
    }
}

/// JSON tokenization (a Table 1 parsing capability beyond the paper's
/// CSV evaluation).
pub mod json {
    use super::*;
    use udp_compilers::json::{baseline_framing, json_to_udp};

    /// Tokenizes NDJSON on the device, verifying the token framing
    /// against the CPU tokenizer.
    ///
    /// # Panics
    ///
    /// Panics if the UDP output disagrees with the baseline, or the
    /// input is not lexically valid (compat-mode) JSON.
    pub fn run(data: &[u8]) -> UdpKernelReport {
        let img = assemble(&json_to_udp(), 8);
        let (rep, kr) = run_duplicated("json-tokenize", &img, data, &Staging::default(), 1);
        assert_eq!(rep.lanes[0].output, baseline_framing(data), "json mismatch");
        kr
    }
}

/// XML tokenization (the third Table 1 parsing format; the PowerEN
/// comparison row).
pub mod xml {
    use super::*;
    use udp_compilers::xml::{baseline_framing, xml_to_udp};

    /// Tokenizes subset-XML on the device, verifying the token framing
    /// against the CPU tokenizer.
    ///
    /// # Panics
    ///
    /// Panics on a framing mismatch or invalid input.
    pub fn run(data: &[u8]) -> UdpKernelReport {
        let img = assemble(&xml_to_udp(), 8);
        let (rep, kr) = run_duplicated("xml-tokenize", &img, data, &Staging::default(), 1);
        assert_eq!(rep.lanes[0].output, baseline_framing(data), "xml mismatch");
        kr
    }
}

/// Bit-pack encoding (the DAX-Pack family of Table 1).
pub mod bitpack {
    use super::*;
    use udp_compilers::bitpack::{bitpack_decode_to_udp, bitpack_encode_to_udp};

    /// Packs byte-sized codes at `width` bits on the device and checks
    /// the stream against the CPU packer.
    pub fn run_encode(codes: &[u8], width: u8) -> UdpKernelReport {
        let img = assemble(&bitpack_encode_to_udp(width), 2);
        let (rep, kr) = run_duplicated("bitpack-encode", &img, codes, &Staging::default(), 1);
        let as_u32: Vec<u32> = codes.iter().map(|&c| u32::from(c)).collect();
        assert_eq!(
            rep.lanes[0].output,
            udp_codecs::bitpack_encode(&as_u32, width),
            "bitpack mismatch"
        );
        kr
    }

    /// Unpacks a `width`-bit stream on the device.
    pub fn run_decode(packed: &[u8], width: u8, count: usize) -> UdpKernelReport {
        let img = assemble(&bitpack_decode_to_udp(width), 2);
        let (rep, kr) = run_duplicated("bitpack-decode", &img, packed, &Staging::default(), 1);
        let expect = udp_codecs::bitpack_decode(packed, width, count).expect("enough bytes");
        let got: Vec<u32> = rep.lanes[0].output[..count]
            .iter()
            .map(|&b| u32::from(b))
            .collect();
        assert_eq!(got, expect, "bitunpack mismatch");
        kr
    }
}

/// Signal triggering (§5.7).
pub mod trigger {
    use super::*;
    use udp_codecs::TriggerFsm;
    use udp_compilers::trigger::trigger_to_udp;

    /// Localizes width-`width` pulses in a sample stream.
    pub fn run(width: u32, samples: &[u8]) -> UdpKernelReport {
        let fsm = TriggerFsm::new(64, 192, width);
        let img = assemble(&trigger_to_udp(&fsm), 8);
        let (rep, kr) = run_duplicated("trigger", &img, samples, &Staging::default(), 1);
        let got: Vec<usize> = rep.lanes[0]
            .reports
            .iter()
            .map(|&(_, p)| p as usize - 1)
            .collect();
        assert_eq!(got, fsm.run_reference(samples), "trigger mismatch");
        kr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_runner_reports_sane_metrics() {
        let data = udp_workloads::crimes_csv(8_000, 1);
        let r = csv::run(&data);
        assert_eq!(r.lanes, 64);
        assert!(r.lane_rate_mbps > 100.0, "{}", r.lane_rate_mbps);
        assert!((r.throughput_mbps / r.lane_rate_mbps - 64.0).abs() < 1.0);
        assert!(r.tput_per_watt() > r.throughput_mbps);
    }

    #[test]
    fn trigger_runner_hits_paper_rate_ballpark() {
        let (samples, _) = udp_workloads::pulsed_waveform(20_000, &[5], 30, 3);
        let r = trigger::run(5, &samples);
        // Paper: constant 1,055 MB/s. Our model: ~1 cycle/sample → ~1000.
        assert!(r.lane_rate_mbps > 800.0, "{}", r.lane_rate_mbps);
    }

    #[test]
    fn snappy_runner_round_trips() {
        let block = udp_workloads::canterbury_like(udp_workloads::Entropy::Medium, 12_000, 4);
        let (comp, ratio) = snappy::run_compress(&block);
        assert!(ratio < 1.0, "text should compress: {ratio}");
        assert!(comp.lane_rate_mbps > 10.0);
        let dec = snappy::run_decompress(&block);
        assert!(dec.lane_rate_mbps > comp.lane_rate_mbps);
    }

    #[test]
    fn dict_runner_verifies() {
        let vals: Vec<String> = (0..500).map(|i| format!("cat-{}", i % 17)).collect();
        let r = dict::run(&vals);
        assert!(r.lanes >= 16);
        let r2 = dict::run_rle(&vals);
        assert!(r2.lane_rate_mbps > 0.0);
    }

    #[test]
    fn histogram_runner_verifies() {
        let le = udp_workloads::fare_stream(3000, 5);
        let hist = udp_codecs::Histogram::uniform(0.0, 100.0, 4);
        let r = histogram::run(&le, &hist);
        assert!(r.lane_rate_mbps > 100.0, "{}", r.lane_rate_mbps);
    }

    #[test]
    fn huffman_runners_verify() {
        let data = udp_workloads::canterbury_like(udp_workloads::Entropy::Medium, 6_000, 6);
        let e = huffman::run_encode(&data);
        let d = huffman::run_decode(&data);
        assert!(e.lane_rate_mbps > 50.0, "{}", e.lane_rate_mbps);
        assert!(d.lane_rate_mbps > 50.0, "{}", d.lane_rate_mbps);
    }

    #[test]
    fn pattern_runners_verify() {
        let pats = udp_workloads::nids_literals(20, 7);
        let (trace, _) = udp_workloads::traffic_with_matches(&pats, 20_000, 800, 7);
        let a = patterns::run_adfa(&pats, &trace);
        assert!(a.lane_rate_mbps > 100.0);
        let regexes = udp_workloads::nids_regexes(6, 7);
        let refs: Vec<&str> = regexes.iter().map(String::as_str).collect();
        let d = patterns::run_dfa(&refs, &trace[..8000]);
        let n = patterns::run_nfa_model(&refs, &trace[..8000]);
        assert!(
            d.lane_rate_mbps > n.lane_rate_mbps,
            "DFA should outpace NFA"
        );
    }
}
