//! Host-side simulator throughput: how fast the simulator itself chews
//! input, before/after predecoding, with the persistent lane pool, and
//! on the tier-2 compiled backend.
//!
//! Four configurations over the same 64-lane run:
//!
//! * `predecoded-seq` — the one-worker lane pool: the program is
//!   decoded once into a `DecodedProgram` all lanes index, and windows
//!   reset incrementally between chunks.
//! * `predecoded-par` — `UdpRunOptions::parallel`: the same pool with
//!   one worker per host core pulling chunks off a shared counter.
//! * `compiled-seq` / `compiled-par` — `ExecBackend::Compiled`
//!   (DESIGN.md §2.6.3): the program specialized into dense dispatch
//!   tables at load time, sequential and pooled.
//!
//! All four produce bit-identical modeled results (see the
//! `determinism` test and `backend_oracle`); only host wall-clock
//! differs.
//!
//! `--gate-csv-speedup <x>` exits nonzero unless `compiled-seq` is at
//! least `x`× `predecoded-seq` on every csv scenario — a same-process
//! ratio, so the gate is robust to absolute host load.
//! `--gate-huffman-speedup <x>` is the same gate over the huffman
//! scenarios (the bit-burst superop's action-per-symbol territory).
//!
//! Two workload shapes: big chunks (64 × 24 KB — the steady-stream
//! shape) and many small chunks (256 × 4 KB — the ETL shape, where
//! per-chunk reset and scheduling overhead dominate a naive host loop).
//!
//! Results go to stdout; with `--json`, also to `results/hostperf.txt`
//! and, one machine-readable line per scenario, to
//! `results/BENCH_hostperf.json`, so the perf trajectory is diffable
//! across PRs (see `scripts/ci.sh`). Without `--json` no file is
//! written.

use std::fmt::Write as _;
use std::time::Instant;
use udp_asm::{LayoutOptions, ProgramBuilder, ProgramImage};
use udp_bench::host_rate_mbps;
use udp_isa::mem::BANK_WORDS;
use udp_sim::engine::Staging;
use udp_sim::{ExecBackend, Udp, UdpRunOptions};

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

/// One timed run of `f`, in host seconds.
fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// One scenario's measured rates, for the text table and the JSON log.
struct ScenarioResult {
    name: String,
    chunks: usize,
    bytes: usize,
    predecoded_seq_mbps: f64,
    predecoded_par_mbps: f64,
    compiled_seq_mbps: f64,
    compiled_par_mbps: f64,
    /// Why the tier-2 backend declined this kernel (`None` when it
    /// compiled): a compiled-vs-interpreter ratio near 1.0 with a
    /// reason here is fallback, not a regression.
    compiled_declined: Option<&'static str>,
}

fn bench_workload(name: &str, image: &ProgramImage, inputs: &[&[u8]]) -> ScenarioResult {
    let banks = image.stats.span_words.div_ceil(BANK_WORDS).max(1);
    let bytes: usize = inputs.iter().map(|i| i.len()).sum();
    let reps = 7;

    // Backends are pinned explicitly: `Default` reads `UDP_SIM_BACKEND`,
    // and this bench's whole point is to measure both sides by name.
    let seq_opts = UdpRunOptions {
        banks_per_lane: banks,
        parallel: false,
        backend: ExecBackend::Interpreter,
        ..Default::default()
    };
    let par_opts = UdpRunOptions {
        parallel: true,
        ..seq_opts.clone()
    };
    let cseq_opts = UdpRunOptions {
        backend: ExecBackend::Compiled,
        ..seq_opts.clone()
    };
    let cpar_opts = UdpRunOptions {
        backend: ExecBackend::Compiled,
        ..par_opts.clone()
    };
    let run_engine = |opts: &UdpRunOptions| {
        let mut udp = Udp::new();
        let rep = udp
            .try_run_data_parallel(image, inputs, &Staging::default(), opts)
            .expect("benchmark kernel fits its lane window");
        std::hint::black_box(rep.wall_cycles);
    };
    let mut run_seq = || run_engine(&seq_opts);
    let mut run_par = || run_engine(&par_opts);
    let mut run_cseq = || run_engine(&cseq_opts);
    let mut run_cpar = || run_engine(&cpar_opts);

    // Warm-up, then interleave the configurations rep by rep and take
    // each one's best: external load (this is a shared host) then hits
    // all of them alike instead of biasing whichever configuration
    // happened to run during a noisy burst.
    run_seq();
    run_par();
    run_cseq();
    run_cpar();
    let (mut seq, mut par) = (f64::MAX, f64::MAX);
    let (mut cseq, mut cpar) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        seq = seq.min(time_once(&mut run_seq));
        par = par.min(time_once(&mut run_par));
        cseq = cseq.min(time_once(&mut run_cseq));
        cpar = cpar.min(time_once(&mut run_cpar));
    }

    ScenarioResult {
        name: name.to_string(),
        chunks: inputs.len(),
        bytes,
        predecoded_seq_mbps: host_rate_mbps(bytes, std::time::Duration::from_secs_f64(seq)),
        predecoded_par_mbps: host_rate_mbps(bytes, std::time::Duration::from_secs_f64(par)),
        compiled_seq_mbps: host_rate_mbps(bytes, std::time::Duration::from_secs_f64(cseq)),
        compiled_par_mbps: host_rate_mbps(bytes, std::time::Duration::from_secs_f64(cpar)),
        compiled_declined: udp_sim::compiled_decline_reason(image),
    }
}

fn render_line(r: &ScenarioResult, out: &mut String) {
    let _ = writeln!(
        out,
        "{:<16} lanes={:<3} input={:>8} B  predecoded-seq={:>8.1} MB/s  predecoded-par={:>8.1} MB/s ({:>5.2}x)  compiled-seq={:>8.1} MB/s ({:>4.2}x)  compiled-par={:>8.1} MB/s ({:>5.2}x)",
        r.name,
        r.chunks,
        r.bytes,
        r.predecoded_seq_mbps,
        r.predecoded_par_mbps,
        r.predecoded_par_mbps / r.predecoded_seq_mbps,
        r.compiled_seq_mbps,
        r.compiled_seq_mbps / r.predecoded_seq_mbps,
        r.compiled_par_mbps,
        r.compiled_par_mbps / r.predecoded_seq_mbps,
    );
    if let Some(reason) = r.compiled_declined {
        let _ = writeln!(out, "{:<16}   compiled backend declined: {reason}", "");
    }
}

/// One JSON object per scenario, one per line — no dependency needed,
/// trivially greppable/awk-able from CI.
fn render_json(results: &[ScenarioResult]) -> String {
    let mut s = String::new();
    for r in results {
        let declined = match r.compiled_declined {
            Some(reason) => format!("\"{reason}\""),
            None => "null".to_string(),
        };
        let _ = writeln!(
            s,
            "{{\"name\":\"{}\",\"chunks\":{},\"bytes\":{},\"predecoded_seq_mbps\":{:.2},\"predecoded_par_mbps\":{:.2},\"compiled_seq_mbps\":{:.2},\"compiled_par_mbps\":{:.2},\"compiled_declined\":{declined}}}",
            r.name, r.chunks, r.bytes, r.predecoded_seq_mbps, r.predecoded_par_mbps, r.compiled_seq_mbps, r.compiled_par_mbps,
        );
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let gate_arg = |flag: &str| -> Option<f64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{flag} takes a number"))
            })
    };
    let gate_csv_speedup = gate_arg("--gate-csv-speedup");
    let gate_huffman_speedup = gate_arg("--gate-huffman-speedup");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-side simulator throughput (64-lane device run, interleaved best of 7)\n\
         threads available: {}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut results = Vec::new();

    // CSV parsing: dispatch-heavy with per-field actions.
    let csv_img = assemble(&udp_compilers::csv::csv_to_udp(), 8);
    let csv_chunks: Vec<Vec<u8>> = (0..64u64)
        .map(|seed| udp_workloads::crimes_csv(24 * 1024, seed))
        .collect();
    let csv_inputs: Vec<&[u8]> = csv_chunks.iter().map(Vec::as_slice).collect();
    results.push(bench_workload("csv-parse", &csv_img, &csv_inputs));

    // Many-small-chunks shape (the ETL figures): per-chunk reset and
    // scheduling overhead dominate a naive host loop here.
    let csv_small: Vec<Vec<u8>> = (0..256u64)
        .map(|seed| udp_workloads::crimes_csv(4 * 1024, seed))
        .collect();
    let csv_small_inputs: Vec<&[u8]> = csv_small.iter().map(Vec::as_slice).collect();
    results.push(bench_workload("csv-small", &csv_img, &csv_small_inputs));

    // Huffman encoding: action-loop heavy (EmitBits per symbol).
    let huff_chunks: Vec<Vec<u8>> = (0..64u64)
        .map(|seed| udp_workloads::canterbury_like(udp_workloads::Entropy::Medium, 24 * 1024, seed))
        .collect();
    let all: Vec<u8> = huff_chunks.iter().flatten().copied().collect();
    let tree = udp_codecs::HuffmanTree::from_data(&all);
    let huff_img = assemble(&udp_compilers::huffman::huffman_encode_to_udp(&tree), 8);
    let huff_inputs: Vec<&[u8]> = huff_chunks.iter().map(Vec::as_slice).collect();
    results.push(bench_workload("huffman-encode", &huff_img, &huff_inputs));

    let huff_small: Vec<Vec<u8>> = (0..256u64)
        .map(|seed| udp_workloads::canterbury_like(udp_workloads::Entropy::Medium, 4 * 1024, seed))
        .collect();
    let huff_small_inputs: Vec<&[u8]> = huff_small.iter().map(Vec::as_slice).collect();
    results.push(bench_workload(
        "huffman-small",
        &huff_img,
        &huff_small_inputs,
    ));

    for r in &results {
        render_line(r, &mut out);
    }
    print!("{out}");
    if json {
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/hostperf.txt", &out))
        {
            eprintln!("could not write results/hostperf.txt: {e}");
        }
        let payload = render_json(&results);
        if let Err(e) = std::fs::write("results/BENCH_hostperf.json", &payload) {
            eprintln!("could not write results/BENCH_hostperf.json: {e}");
        }
    }
    // Same-process ratios: absolute MB/s moves with host load, but
    // compiled and interpreter runs interleaved in one process see the
    // same load, so the ratio is what CI can gate on.
    let mut failed = false;
    for (flag, prefix, min) in [
        ("--gate-csv-speedup", "csv", gate_csv_speedup),
        ("--gate-huffman-speedup", "huffman", gate_huffman_speedup),
    ] {
        let Some(min) = min else { continue };
        let mut below = false;
        for r in results.iter().filter(|r| r.name.starts_with(prefix)) {
            let ratio = r.compiled_seq_mbps / r.predecoded_seq_mbps;
            let verdict = if ratio >= min { "ok" } else { "FAIL" };
            println!(
                "gate {:<16} compiled-seq/predecoded-seq = {ratio:.2}x (need {min:.2}x): {verdict}",
                r.name
            );
            below |= ratio < min;
        }
        if below {
            eprintln!("{flag} {min}: compiled backend below required speedup");
        }
        failed |= below;
    }
    if failed {
        std::process::exit(1);
    }
}
