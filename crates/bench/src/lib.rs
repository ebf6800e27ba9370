//! # udp-bench — the evaluation harness
//!
//! One binary per paper table/figure regenerates its rows (see
//! DESIGN.md's experiment index and EXPERIMENTS.md for measured-vs-paper
//! results):
//!
//! ```text
//! cargo run --release -p udp-bench --bin fig01_etl_load
//! cargo run --release -p udp-bench --bin fig05_branches
//! cargo run --release -p udp-bench --bin fig08_symbols
//! cargo run --release -p udp-bench --bin fig09_sources
//! cargo run --release -p udp-bench --bin fig11_addressing
//! cargo run --release -p udp-bench --bin fig13_csv          # …through fig20
//! cargo run --release -p udp-bench --bin fig21_overall      # + fig22 columns
//! cargo run --release -p udp-bench --bin tab01_coverage
//! cargo run --release -p udp-bench --bin tab03_power_area
//! cargo run --release -p udp-bench --bin tab04_accelerators
//! ```
//!
//! Criterion benches (`cargo bench`) cover the CPU baselines and the
//! simulator's own speed, and `--bin hostperf` reports the *host-side*
//! simulation throughput (how fast the simulator itself chews input,
//! as opposed to the modeled device rates above).
//!
//! Every kernel runner executes its lanes on the host worker pool
//! (`UdpRunOptions::parallel`); modeled cycles/energy/conflict numbers
//! are the same as a one-worker run's, only host wall-clock differs.
//!
//! Methodology (paper §4.4): CPU rates are wall-clock single-thread on
//! the host; the 8-thread figure is the paper's own optimistic 8×
//! estimate; CPU power is the 80 W TDP constant; UDP rates come from
//! the cycle-accurate simulator at 1 GHz and 0.864 W.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};
use udp::kernels::UdpKernelReport;

/// CPU threads assumed for device-level comparisons (§4.4).
pub const CPU_THREADS: f64 = 8.0;
/// CPU TDP in watts.
pub const CPU_WATTS: f64 = 80.0;
/// UDP system power in watts.
pub const UDP_WATTS: f64 = udp_sim::UDP_SYSTEM_WATTS;

/// Measures a single-thread CPU kernel: runs `f` repeatedly for at
/// least `min_seconds` (and at least twice), returning MB/s over
/// `bytes` of input per run. The closure must do the full work each
/// call; use `std::hint::black_box` inside to defeat hoisting.
pub fn cpu_rate_mbps<F: FnMut()>(bytes: usize, min_seconds: f64, mut f: F) -> f64 {
    // Warm-up.
    f();
    let start = Instant::now();
    let mut runs = 0u32;
    while runs < 2 || start.elapsed().as_secs_f64() < min_seconds {
        f();
        runs += 1;
    }
    let s = start.elapsed().as_secs_f64() / f64::from(runs);
    bytes as f64 / s / 1e6
}

/// Host-side simulation throughput: `bytes` of modeled input chewed in
/// `elapsed` of host wall-clock, in MB/s. This measures the simulator
/// itself (the `hostperf` binary), not the modeled device.
pub fn host_rate_mbps(bytes: usize, elapsed: Duration) -> f64 {
    let s = elapsed.as_secs_f64();
    if s <= 0.0 {
        return 0.0;
    }
    bytes as f64 / s / 1e6
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One CPU-vs-UDP comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Dataset / configuration label.
    pub dataset: String,
    /// Measured single-thread CPU rate, MB/s.
    pub cpu_1t_mbps: f64,
    /// The UDP-side report.
    pub udp: UdpKernelReport,
}

impl Comparison {
    /// One UDP lane vs one CPU thread (the per-figure "Rate" panel).
    pub fn lane_speedup(&self) -> f64 {
        self.udp.lane_rate_mbps / self.cpu_1t_mbps
    }

    /// Full device vs 8 CPU threads (Figure 21).
    pub fn device_speedup(&self) -> f64 {
        self.udp.throughput_mbps / (self.cpu_1t_mbps * CPU_THREADS)
    }

    /// Throughput-per-watt ratio (Figure 22).
    pub fn perf_per_watt_ratio(&self) -> f64 {
        (self.udp.throughput_mbps / UDP_WATTS) / (self.cpu_1t_mbps * CPU_THREADS / CPU_WATTS)
    }
}

/// Prints the standard per-figure table.
pub fn print_comparison_table(title: &str, rows: &[Comparison]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>12} {:>12} {:>8} {:>6} {:>14} {:>10} {:>12}",
        "dataset",
        "cpu-1t MB/s",
        "lane MB/s",
        "lane-x",
        "lanes",
        "device MB/s",
        "dev-x/8t",
        "perf/W-x"
    );
    for r in rows {
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>8.2} {:>6} {:>14.0} {:>10.1} {:>12.0}",
            r.dataset,
            r.cpu_1t_mbps,
            r.udp.lane_rate_mbps,
            r.lane_speedup(),
            r.udp.lanes,
            r.udp.throughput_mbps,
            r.device_speedup(),
            r.perf_per_watt_ratio()
        );
    }
    let sp: Vec<f64> = rows.iter().map(Comparison::device_speedup).collect();
    let pw: Vec<f64> = rows.iter().map(Comparison::perf_per_watt_ratio).collect();
    println!(
        "geomean: device speedup {:.1}x, perf/W {:.0}x",
        geomean(&sp),
        geomean(&pw)
    );
}

/// Standard workload bundle shared by the per-kernel figures so that
/// fig13…fig20 and fig21/fig22 measure identical configurations.
pub mod suite {
    use super::*;
    use udp::kernels;
    use udp_codecs::{CsvParser, Histogram, HuffmanTree, TriggerLut};
    use udp_workloads as w;

    /// Bytes of input handed to each UDP lane (duplicated across lanes).
    pub const LANE_BYTES: usize = 24 * 1024;
    /// Bytes used for CPU wall-clock measurement.
    pub const CPU_BYTES: usize = 1 << 20;
    /// Minimum wall-clock sampling window per CPU measurement.
    pub const MIN_SECS: f64 = 0.05;

    /// All kernel comparisons, in paper order (Figure 21's x-axis).
    pub fn run_all() -> Vec<(String, Vec<Comparison>)> {
        vec![
            ("CSV Parsing".into(), csv()),
            ("Huffman Encoding".into(), huffman_encode()),
            ("Huffman Decoding".into(), huffman_decode()),
            ("Pattern Matching".into(), patterns()),
            ("Dictionary".into(), dictionary()),
            ("Dictionary-RLE".into(), dictionary_rle()),
            ("Histogram".into(), histogram()),
            ("Snappy Compression".into(), snappy_compress()),
            ("Snappy Decompression".into(), snappy_decompress()),
            ("Signal Triggering".into(), trigger()),
        ]
    }

    /// CSV parsing on Crimes/Taxi/FoodInspection-like data (Figure 13).
    pub fn csv() -> Vec<Comparison> {
        let sets = [
            ("crimes", w::crimes_csv(CPU_BYTES, 1)),
            ("taxi", w::taxi_csv(CPU_BYTES, 2)),
            ("food-inspection", w::food_inspection_csv(CPU_BYTES, 3)),
        ];
        sets.into_iter()
            .map(|(name, data)| {
                let cpu = cpu_rate_mbps(data.len(), MIN_SECS, || {
                    std::hint::black_box(CsvParser::new().parse_stats(&data));
                });
                let lane_data = align_newline(&data, LANE_BYTES);
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::csv::run(lane_data),
                }
            })
            .collect()
    }

    fn align_newline(data: &[u8], want: usize) -> &[u8] {
        let end = data[..want.min(data.len())]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(data.len(), |p| p + 1);
        &data[..end]
    }

    fn text_corpora() -> Vec<(&'static str, Vec<u8>)> {
        vec![
            (
                "canterbury-low",
                w::canterbury_like(w::Entropy::Low, CPU_BYTES, 4),
            ),
            (
                "canterbury-med",
                w::canterbury_like(w::Entropy::Medium, CPU_BYTES, 5),
            ),
            ("bdbench-crawl", w::bdbench_block(0, CPU_BYTES, 6)),
            ("bdbench-rank", w::bdbench_block(1, CPU_BYTES, 7)),
            ("bdbench-user", w::bdbench_block(2, CPU_BYTES, 8)),
        ]
    }

    /// Huffman encoding (Figure 14).
    pub fn huffman_encode() -> Vec<Comparison> {
        text_corpora()
            .into_iter()
            .map(|(name, data)| {
                let tree = HuffmanTree::from_data(&data);
                let cpu = cpu_rate_mbps(data.len(), MIN_SECS, || {
                    std::hint::black_box(tree.encode(&data));
                });
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::huffman::run_encode(&data[..LANE_BYTES]),
                }
            })
            .collect()
    }

    /// Huffman decoding (Figure 15).
    pub fn huffman_decode() -> Vec<Comparison> {
        text_corpora()
            .into_iter()
            .map(|(name, data)| {
                let tree = HuffmanTree::from_data(&data);
                let (bits, nbits) = tree.encode(&data);
                let cpu = cpu_rate_mbps(bits.len(), MIN_SECS, || {
                    std::hint::black_box(tree.decode(&bits, nbits).expect("decodes"));
                });
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::huffman::run_decode(&data[..LANE_BYTES]),
                }
            })
            .collect()
    }

    /// Pattern matching: ADFA strings + DFA and NFA regexes (Figure 16).
    pub fn patterns() -> Vec<Comparison> {
        let pats = w::nids_literals(64, 9);
        let (trace, _) = w::traffic_with_matches(&pats, CPU_BYTES, 700, 9);
        let adfa = udp_automata::Adfa::build(&pats);
        let cpu_simple = cpu_rate_mbps(trace.len(), MIN_SECS, || {
            std::hint::black_box(adfa.find_all(&trace));
        });
        let regexes = w::nids_regexes(8, 10);
        let refs: Vec<&str> = regexes.iter().map(String::as_str).collect();
        let asts: Vec<udp_automata::Regex> = refs
            .iter()
            .map(|p| udp_automata::Regex::parse(p).expect("generated regexes parse"))
            .collect();
        let dfa = udp_automata::Dfa::determinize(&udp_automata::Nfa::scanner(&asts)).minimize();
        let cpu_complex = cpu_rate_mbps(trace.len(), MIN_SECS, || {
            std::hint::black_box(dfa.find_all(&trace));
        });
        vec![
            Comparison {
                dataset: "simple (ADFA)".to_string(),
                cpu_1t_mbps: cpu_simple,
                udp: kernels::patterns::run_adfa(&pats, &trace[..LANE_BYTES]),
            },
            Comparison {
                dataset: "complex (DFA)".to_string(),
                cpu_1t_mbps: cpu_complex,
                udp: kernels::patterns::run_dfa(&refs, &trace[..LANE_BYTES]),
            },
            Comparison {
                dataset: "complex (NFA)".to_string(),
                cpu_1t_mbps: cpu_complex,
                udp: kernels::patterns::run_nfa_model(&refs, &trace[..LANE_BYTES / 2]),
            },
        ]
    }

    fn crimes_column(idx: usize, bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        let data = w::crimes_csv(bytes, seed);
        CsvParser::new()
            .parse(&data)
            .into_iter()
            .skip(1)
            .map(|mut r| r.swap_remove(idx))
            .collect()
    }

    /// Dictionary encoding on Crimes attributes (Figure 17).
    pub fn dictionary() -> Vec<Comparison> {
        [("arrest", 7usize), ("district", 9), ("location-desc", 6)]
            .into_iter()
            .map(|(name, idx)| {
                let col = crimes_column(idx, CPU_BYTES / 2, 11);
                let cpu = {
                    let bytes: usize = col.iter().map(|v| v.len() + 1).sum();
                    cpu_rate_mbps(bytes, MIN_SECS, || {
                        let mut e = udp_codecs::DictionaryEncoder::default();
                        std::hint::black_box(e.encode_column(&col));
                    })
                };
                let small: Vec<Vec<u8>> = col.iter().take(2000).cloned().collect();
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::dict::run(&small),
                }
            })
            .collect()
    }

    /// Dictionary-RLE on the same attributes.
    pub fn dictionary_rle() -> Vec<Comparison> {
        [("arrest", 7usize), ("location-desc", 6)]
            .into_iter()
            .map(|(name, idx)| {
                let col = crimes_column(idx, CPU_BYTES / 2, 12);
                let cpu = {
                    let bytes: usize = col.iter().map(|v| v.len() + 1).sum();
                    cpu_rate_mbps(bytes, MIN_SECS, || {
                        let mut e = udp_codecs::DictRleEncoder::new();
                        std::hint::black_box(e.encode_column(&col));
                    })
                };
                let small: Vec<Vec<u8>> = col.iter().take(2000).cloned().collect();
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::dict::run_rle(&small),
                }
            })
            .collect()
    }

    /// Histogramming Crimes.Lat/Lon and Taxi.Fare (Figure 18).
    pub fn histogram() -> Vec<Comparison> {
        let n = CPU_BYTES / 4;
        let cases = [
            (
                "crimes.latitude/10",
                w::latitude_stream(n, 13),
                Histogram::uniform(41.6, 42.0, 10),
            ),
            (
                "crimes.longitude/10",
                w::longitude_stream(n, 14),
                Histogram::uniform(-87.9, -87.5, 10),
            ),
            (
                "taxi.fare/4",
                w::fare_stream(n, 15),
                Histogram::uniform(0.0, 100.0, 4),
            ),
        ];
        cases
            .into_iter()
            .map(|(name, le, hist)| {
                let cpu = cpu_rate_mbps(le.len(), MIN_SECS, || {
                    let mut h = Histogram::with_edges(hist.edges().to_vec());
                    h.add_le_bytes(&le);
                    std::hint::black_box(h.counts()[0]);
                });
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::histogram::run(&le[..LANE_BYTES], &hist),
                }
            })
            .collect()
    }

    /// Snappy compression (Figure 19).
    pub fn snappy_compress() -> Vec<Comparison> {
        text_corpora()
            .into_iter()
            .map(|(name, data)| {
                let cpu = cpu_rate_mbps(data.len(), MIN_SECS, || {
                    std::hint::black_box(udp_codecs::snappy_compress(&data));
                });
                let (udp, _) = kernels::snappy::run_compress(&data[..LANE_BYTES]);
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp,
                }
            })
            .collect()
    }

    /// Snappy decompression (Figure 20).
    pub fn snappy_decompress() -> Vec<Comparison> {
        text_corpora()
            .into_iter()
            .map(|(name, data)| {
                let stream = udp_codecs::snappy_compress(&data);
                let cpu = cpu_rate_mbps(stream.len(), MIN_SECS, || {
                    std::hint::black_box(udp_codecs::snappy_decompress(&stream).expect("valid"));
                });
                Comparison {
                    dataset: name.to_string(),
                    cpu_1t_mbps: cpu,
                    udp: kernels::snappy::run_decompress(&data[..LANE_BYTES]),
                }
            })
            .collect()
    }

    /// Signal triggering, FSMs p2–p13 (§5.7).
    pub fn trigger() -> Vec<Comparison> {
        [2u32, 5, 9, 13]
            .into_iter()
            .map(|width| {
                let (samples, _) = w::pulsed_waveform(CPU_BYTES, &[width], 40, 16);
                let lut = TriggerLut::build(udp_codecs::TriggerFsm::new(64, 192, width));
                let cpu = cpu_rate_mbps(samples.len(), MIN_SECS, || {
                    std::hint::black_box(lut.run(&samples));
                });
                Comparison {
                    dataset: format!("p{width}"),
                    cpu_1t_mbps: cpu,
                    udp: kernels::trigger::run(width, &samples[..LANE_BYTES]),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn cpu_rate_is_positive() {
        let data = vec![1u8; 100_000];
        let r = cpu_rate_mbps(data.len(), 0.01, || {
            std::hint::black_box(data.iter().map(|&b| b as u64).sum::<u64>());
        });
        assert!(r > 0.0);
    }

    #[test]
    fn comparison_math() {
        let udp = UdpKernelReport {
            name: "x".into(),
            lane_rate_mbps: 400.0,
            throughput_mbps: 25_600.0,
            lanes: 64,
            banks_per_lane: 1,
            wall_cycles: 1,
            bytes_in: 1,
            code_bytes: 1,
        };
        let c = Comparison {
            dataset: "d".into(),
            cpu_1t_mbps: 100.0,
            udp,
        };
        assert!((c.lane_speedup() - 4.0).abs() < 1e-12);
        assert!((c.device_speedup() - 32.0).abs() < 1e-12);
        // perf/W: (25600/0.86368) / (800/80) ≈ 2964.
        assert!((c.perf_per_watt_ratio() - 2964.0).abs() < 2.0);
    }
}
