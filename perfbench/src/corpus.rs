//! The program set of the device workloads — every program of the
//! compiler corpus — and, for each, a seeded generator of inputs its
//! family accepts, the staging it needs, and the CPU reference its
//! output is checked against where the workspace has one.

use crate::measure::{fnv1a, Rng, Tracer};
use std::sync::Arc;
use std::time::Instant;
use udp_asm::{DecodedProgram, ProgramBuilder, ProgramImage};
use udp_codecs::{DictionaryEncoder, Histogram, HuffmanTree, TriggerFsm};
use udp_compilers::histogram::{histogram_to_udp, read_bins};
use udp_isa::mem::BANK_WORDS;
use udp_isa::Reg;
use udp_sim::{
    BitStream, Lane, LaneConfig, LaneStatus, LocalMemory, OutputSink, Staging, UdpRunReport,
};
use udp_workloads as w;

/// The text the corpus' Huffman programs build their code tree from.
/// It must match the compiler corpus; the decode references catch drift.
const HUFFMAN_SAMPLE: &[u8] =
    b"aaaaaaaaaaaaaaaabbbbbbbbccccddeeffgghh the quick brown fox jumps over the lazy dog";
/// The small-alphabet sample behind `huffman-decode-ssf` (its tree is
/// built from four repetitions).
const HUFFMAN_SMALL_SAMPLE: &[u8] = b"aaabbbcccddaabbccbbaaaddccbbaa";

/// Words the pattern-matching inputs are made of: filler plus strings
/// each scanner in the corpus matches.
const SCAN_WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "foo", "bar", "barium", "abc",
    "abd", "acd", "xyyyz", "xz", "42", "07", "abbbc", "ac", "id123;", "id99999;", "id7;",
];

/// A corpus program, assembled at its smallest bank split with the
/// verifier's resource certificate attached.
pub struct Program {
    pub name: String,
    pub image: Arc<ProgramImage>,
}

/// Time spent building the corpus, by layer.
pub struct SetupTimes {
    pub total_s: f64,
    pub assemble_s: f64,
    pub verify_s: f64,
    pub certified: usize,
}

/// Corpus programs the device workloads cannot run. `nfa` is a
/// multi-activation program (`udp_sim::engine::run_nfa`): its entry
/// forks epsilon activations, which a data-parallel lane, running in
/// single-activation mode, reports as a fault.
const EXCLUDED: &[&str] = &["nfa"];

/// Names of the corpus programs the device workloads run.
pub fn names() -> Vec<String> {
    udp_compilers::corpus::corpus()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !EXCLUDED.contains(&name.as_str()))
        .collect()
}

/// Translates, assembles and verifies the corpus less [`EXCLUDED`],
/// recording each program's assemble and verify spans under `parent`.
/// A program that fails to assemble or verify is an error.
pub fn build(tracer: &Tracer, parent: u32) -> Result<(Vec<Program>, SetupTimes), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes {
        total_s: 0.0,
        assemble_s: 0.0,
        verify_s: 0.0,
        certified: 0,
    };
    let mut programs = Vec::new();
    for (job, (name, pb)) in udp_compilers::corpus::corpus().into_iter().enumerate() {
        if EXCLUDED.contains(&name.as_str()) {
            continue;
        }
        let (image, report) = assemble_and_verify(&pb, &mut times, tracer, parent, job as u64)
            .map_err(|e| format!("{name}: {e}"))?;
        times.certified += usize::from(report);
        programs.push(Program {
            name,
            image: Arc::new(image),
        });
    }
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((programs, times))
}

/// Assembles `pb` into its smallest bank window and verifies it,
/// attaching the certificate. Returns whether the program is certified.
fn assemble_and_verify(
    pb: &ProgramBuilder,
    times: &mut SetupTimes,
    tracer: &Tracer,
    parent: u32,
    job: u64,
) -> Result<(ProgramImage, bool), String> {
    let t = Instant::now();
    let image = udp_compilers::corpus::assemble_smallest(pb, 64);
    let mid = Instant::now();
    tracer.record("asm.assemble", Some(parent), job, t, mid);
    times.assemble_s += mid.duration_since(t).as_secs_f64();
    let mut image = image.map_err(|e| format!("assemble: {e}"))?;
    let t = Instant::now();
    let report = udp_verify::verify_image(
        &image,
        &udp_verify::VerifyOptions::with_banks(code_banks(&image)),
    );
    let end = Instant::now();
    tracer.record("verify.verify", Some(parent), job, t, end);
    times.verify_s += end.duration_since(t).as_secs_f64();
    if !report.is_clean() {
        return Err(format!("verify: {} errors", report.errors()));
    }
    let certified = report.cert.is_some();
    if image.cert.is_none() {
        image.cert = report.cert;
    }
    Ok((image, certified))
}

/// Banks the program's code needs.
pub fn code_banks(image: &ProgramImage) -> usize {
    image.stats.span_words.div_ceil(BANK_WORDS).max(1)
}

/// What a chunk's output must be, where the workspace has a reference.
pub enum Expect {
    /// No CPU reference: backend equality and the pinned digest check it.
    Unchecked,
    /// Exact output bytes.
    Output(Vec<u8>),
    /// Output truncated to the reference's length (padding may decode
    /// spurious trailing symbols).
    Prefix(Vec<u8>),
    /// The output, framed, must decompress to this block.
    SnappyRoundTrip(Vec<u8>),
    /// `Report` positions (the trigger kernel's result).
    Reports(Vec<usize>),
    /// Bin counters, outlier slot last, that the histogram kernels leave
    /// in lane memory. The device report does not carry lane memory, so
    /// the chunk is rerun on a bare lane whose report must equal the
    /// device call's and whose memory holds the counters.
    Bins(Vec<u64>),
}

/// The inputs of one device call.
pub struct CallSet {
    pub chunks: Vec<Vec<u8>>,
    pub expect: Vec<Expect>,
    pub staging: Staging,
    pub banks: usize,
    pub bytes: usize,
}

impl CallSet {
    pub fn inputs(&self) -> Vec<&[u8]> {
        self.chunks.iter().map(Vec::as_slice).collect()
    }

    /// Checks a report of `program` on this call: no lane faulted, every
    /// chunk ran, and each output matches its reference.
    pub fn check(&self, program: &Program, rep: &UdpRunReport) -> Result<(), String> {
        let name = program.name.as_str();
        if rep.lanes.len() != self.chunks.len() {
            return Err(format!(
                "{name}: {} lane reports for {} chunks",
                rep.lanes.len(),
                self.chunks.len()
            ));
        }
        for (i, (lane, expect)) in rep.lanes.iter().zip(&self.expect).enumerate() {
            if let LaneStatus::Fault(kind) = &lane.status {
                return Err(format!("{name}: chunk {i} faulted: {kind:?}"));
            }
            let ok = match expect {
                Expect::Unchecked => true,
                Expect::Output(want) => lane.output == *want,
                Expect::Prefix(want) => lane.output.get(..want.len()) == Some(want.as_slice()),
                Expect::SnappyRoundTrip(block) => {
                    let framed = udp_compilers::snappy::frame_compressed(block.len(), &lane.output);
                    udp_codecs::snappy_decompress(&framed).ok().as_ref() == Some(block)
                }
                Expect::Reports(want) => {
                    let got: Vec<usize> = lane
                        .reports
                        .iter()
                        .map(|&(_, p)| (p as usize).wrapping_sub(1))
                        .collect();
                    got == *want
                }
                Expect::Bins(want) => {
                    let decoded = Arc::new(program.image.predecode());
                    let mut mem = LocalMemory::with_words(self.banks * BANK_WORDS);
                    let mut bare = self.lane(&program.image, &decoded, &mut mem);
                    let mut stream = BitStream::new(&self.chunks[i]);
                    let mut out = OutputSink::new();
                    let cfg = self.lane_config(&program.image);
                    let bare_rep = bare.run(&mut mem, &mut stream, &mut out, &cfg);
                    let layout = histogram_to_udp(&histogram_of(name)).1;
                    bare_rep == *lane && read_bins(&mem, &layout) == *want
                }
            };
            if !ok {
                return Err(format!(
                    "{name}: chunk {i} output differs from the reference"
                ));
            }
        }
        Ok(())
    }

    /// The lane configuration the engine gives this call's lanes.
    pub fn lane_config(&self, image: &ProgramImage) -> LaneConfig {
        match &image.cert {
            Some(cert) if self.staging.regs.is_empty() => LaneConfig::default().with_cert(cert),
            _ => LaneConfig::default(),
        }
    }

    /// A bare interpreter lane over `mem`, a window of `self.banks`
    /// banks, cleared and loaded the way the engine loads a lane window.
    pub fn lane(
        &self,
        image: &ProgramImage,
        decoded: &Arc<DecodedProgram>,
        mem: &mut LocalMemory,
    ) -> Lane {
        mem.set_bank_tracking(false);
        mem.clear_words(0, self.banks * BANK_WORDS);
        mem.load_words(0, &image.words);
        for (off, bytes) in &self.staging.segments {
            mem.load_bytes(*off, bytes);
        }
        let mut lane = Lane::with_decoded(image, 0, Arc::clone(decoded));
        if staging_clears_code(&self.staging, image.stats.span_words) {
            lane.mark_code_clean();
        }
        for (r, v) in &self.staging.regs {
            lane.preset_reg(*r, *v);
        }
        lane
    }
}

/// The histogram the corpus compiled program `name` from. It must match
/// the compiler corpus; the bin check catches drift.
fn histogram_of(name: &str) -> Histogram {
    match name {
        "histogram-u4" => Histogram::uniform(0.0, 100.0, 4),
        _ => Histogram::uniform(-87.9, -87.5, 10),
    }
}

/// Reference bin counters of a little-endian `f32` stream, outlier slot
/// last, as [`read_bins`] lays them out.
fn bins_of(name: &str, le: &[u8]) -> Vec<u64> {
    let mut hist = histogram_of(name);
    hist.add_le_bytes(le);
    let mut bins = hist.counts().to_vec();
    bins.push(hist.outliers());
    bins
}

/// Digest of a call's results: every lane's output and reports, and the
/// bin counters of the histogram kernels (checked equal to `set`'s).
pub fn digest(rep: &UdpRunReport, set: &CallSet) -> u64 {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for lane in &rep.lanes {
        parts.push(lane.output.clone());
        let mut r = Vec::with_capacity(lane.reports.len() * 8);
        for &(a, b) in &lane.reports {
            r.extend_from_slice(&u64::from(a).to_le_bytes());
            r.extend_from_slice(&u64::from(b).to_le_bytes());
        }
        parts.push(r);
    }
    for expect in &set.expect {
        if let Expect::Bins(bins) = expect {
            parts.push(bins.iter().flat_map(|b| b.to_le_bytes()).collect());
        }
    }
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    fnv1a(&refs)
}

/// Cuts `data` after the last `sep` within the first `want` bytes
/// (all of it when `sep` does not occur there).
fn cut_after(data: &[u8], want: usize, sep: &[u8]) -> Vec<u8> {
    let head = &data[..want.min(data.len())];
    let end = head
        .windows(sep.len())
        .rposition(|win| win == sep)
        .map_or(data.len(), |p| p + sep.len());
    data[..end].to_vec()
}

fn sample_text(rng: &mut Rng, alphabet: &[u8], n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| alphabet[rng.below(alphabet.len())])
        .collect()
}

/// `n` distinct lowercase tokens.
fn vocabulary(rng: &mut Rng, n: usize) -> Vec<Vec<u8>> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = 3 + rng.below(8);
        let tok: Vec<u8> = (0..len).map(|_| b'a' + rng.below(26) as u8).collect();
        if seen.insert(tok.clone()) {
            out.push(tok);
        }
    }
    out
}

/// The dictionary size whose staged table has the `k` the corpus'
/// `dict-k*` program was compiled for.
fn vocab_for(name: &str) -> usize {
    match name {
        "dict-k4" => 4,
        "dict-k11" => 600,
        _ => 48,
    }
}

/// Generates one call's inputs for program `name`: `n` chunks of about
/// `size` bytes each, all drawn from `rng`.
pub fn call_set(program: &Program, rng: &mut Rng, n: usize, size: usize) -> CallSet {
    let name = program.name.as_str();
    let mut staging = Staging::default();
    let mut chunks = Vec::with_capacity(n);
    let mut expect = Vec::with_capacity(n);
    // Dictionary programs share one staged dictionary across the call.
    let vocab = name
        .starts_with("dict")
        .then(|| vocabulary(rng, vocab_for(name)));
    if let Some(vocab) = &vocab {
        let st = udp_compilers::dict::stage_dictionary(vocab);
        staging = Staging {
            segments: st.segments,
            regs: st.regs,
        };
    }
    if name == "snappy-comp" {
        staging.regs.push((Reg::new(2), size as u32));
    }
    for _ in 0..n {
        let seed = rng.next_u64();
        let (chunk, exp) = match name {
            "csv" | "csv-semicolon" => {
                let data = cut_after(&w::crimes_csv(size, seed), size, b"\n");
                let exp = udp_compilers::csv::baseline_framing(&data);
                if name == "csv" {
                    (data, Expect::Output(exp))
                } else {
                    // Swapping delimiter and quote in both input and framed
                    // output preserves the framing, unless the text already
                    // held the new delimiter or quote.
                    let swap = |bytes: &[u8]| -> Vec<u8> {
                        bytes
                            .iter()
                            .map(|&b| match b {
                                b',' => b';',
                                b'"' => b'\'',
                                b => b,
                            })
                            .collect()
                    };
                    let clean = !data.iter().any(|&b| b == b';' || b == b'\'');
                    let exp = if clean {
                        Expect::Output(swap(&exp))
                    } else {
                        Expect::Unchecked
                    };
                    (swap(&data), exp)
                }
            }
            "json" => {
                let data = cut_after(&w::ndjson_events(size, seed), size, b"\n");
                let exp = udp_compilers::json::baseline_framing(&data);
                (data, Expect::Output(exp))
            }
            "xml" => {
                let data = cut_after(&w::xml_records(size, seed), size, b"</order>\n");
                let exp = udp_compilers::xml::baseline_framing(&data);
                (data, Expect::Output(exp))
            }
            "rle-decode" => {
                let mut runs = Vec::new();
                let mut expanded = Vec::new();
                while runs.len() * 8 < size {
                    let value = rng.below(256) as u8;
                    let count = 1 + rng.below(8) as u32;
                    runs.push((value, count));
                    expanded.extend(std::iter::repeat_n(value, count as usize));
                }
                (
                    udp_compilers::rle::encode_runs(&runs),
                    Expect::Output(expanded),
                )
            }
            _ if name.starts_with("bitpack-") => {
                let width: u8 = name[name.len() - 1..].parse().expect("bitpack width");
                let mask = if width == 8 {
                    0xFF
                } else {
                    (1u32 << width) - 1
                };
                if name.starts_with("bitpack-enc") {
                    let codes: Vec<u8> = (0..size)
                        .map(|_| (rng.next_u64() as u32 & mask) as u8)
                        .collect();
                    let as_u32: Vec<u32> = codes.iter().map(|&c| u32::from(c)).collect();
                    let packed = udp_codecs::bitpack_encode(&as_u32, width);
                    (codes, Expect::Output(packed))
                } else {
                    let count = size * 8 / usize::from(width);
                    let codes: Vec<u32> =
                        (0..count).map(|_| rng.next_u64() as u32 & mask).collect();
                    let packed = udp_codecs::bitpack_encode(&codes, width);
                    let want: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
                    (packed, Expect::Prefix(want))
                }
            }
            "dict-k4" | "dict-k8" | "dict-k11" | "dict-rle-k8" => {
                let vocab = vocab
                    .as_ref()
                    .expect("dictionary programs have a vocabulary");
                let mut tokens: Vec<&[u8]> = Vec::new();
                let mut len = 0;
                while len < size {
                    let tok = vocab[rng.below(vocab.len())].as_slice();
                    let reps = if name == "dict-rle-k8" {
                        1 + rng.below(6)
                    } else {
                        1
                    };
                    for _ in 0..reps {
                        tokens.push(tok);
                        len += tok.len() + 1;
                    }
                }
                let mut enc = DictionaryEncoder::default();
                enc.encode_column(vocab);
                let codes = enc.encode_column(&tokens);
                let mut want = Vec::new();
                if name == "dict-rle-k8" {
                    // The final run stays in lane memory, unflushed.
                    let runs = udp_codecs::rle_encode(&codes);
                    for r in &runs[..runs.len() - 1] {
                        want.extend_from_slice(&r.value.to_le_bytes());
                        want.extend_from_slice(&r.length.to_le_bytes());
                    }
                } else {
                    for c in &codes {
                        want.extend_from_slice(&c.to_le_bytes());
                    }
                }
                (
                    udp_compilers::dict::join_tokens(&tokens),
                    Expect::Output(want),
                )
            }
            "snappy-comp" => {
                let mut block = w::canterbury_like(w::Entropy::Medium, size, seed);
                block.resize(size, b' ');
                (block.clone(), Expect::SnappyRoundTrip(block))
            }
            "snappy-decomp" => {
                let mut block = w::canterbury_like(w::Entropy::Medium, size, seed);
                block.truncate(size);
                (udp_codecs::snappy_compress(&block), Expect::Output(block))
            }
            "huffman-encode" => {
                let tree = HuffmanTree::from_data(HUFFMAN_SAMPLE);
                let text = sample_text(rng, HUFFMAN_SAMPLE, size);
                let (bits, _) = tree.encode(&text);
                (text, Expect::Output(bits))
            }
            _ if name.starts_with("huffman-decode") => {
                // Symbol counts for about `size` encoded bytes: the small
                // alphabet codes about 2 bits a symbol, the other about 4.
                let (tree_text, alphabet, symbols) = if name.ends_with("ssf") {
                    (
                        HUFFMAN_SMALL_SAMPLE.repeat(4),
                        HUFFMAN_SMALL_SAMPLE,
                        size * 4,
                    )
                } else {
                    (HUFFMAN_SAMPLE.to_vec(), HUFFMAN_SAMPLE, size * 2)
                };
                let tree = HuffmanTree::from_data(&tree_text);
                let text = sample_text(rng, alphabet, symbols);
                let (bits, nbits) = tree.encode(&text);
                let padded = udp_compilers::huffman::pad_for_stride(&bits, nbits, 8);
                (padded, Expect::Prefix(text))
            }
            "histogram-u4" | "histogram-u10" => {
                let le = if name == "histogram-u4" {
                    w::fare_stream(size / 4, seed)
                } else {
                    w::longitude_stream(size / 4, seed)
                };
                let bins = bins_of(name, &le);
                (
                    udp_compilers::histogram::to_big_endian(&le),
                    Expect::Bins(bins),
                )
            }
            "trigger-p3" => {
                let (samples, _) = w::pulsed_waveform(size, &[3], 40, seed);
                let want = TriggerFsm::new(64, 192, 3).run_reference(&samples);
                (samples, Expect::Reports(want))
            }
            _ => {
                // The pattern scanners (adfa, dfa*, d2fa, counted).
                let mut text = Vec::with_capacity(size + 16);
                while text.len() < size {
                    text.extend_from_slice(SCAN_WORDS[rng.below(SCAN_WORDS.len())].as_bytes());
                    text.push(if rng.below(8) == 0 { b'\n' } else { b' ' });
                }
                text.truncate(size);
                (text, Expect::Unchecked)
            }
        };
        chunks.push(chunk);
        expect.push(exp);
    }
    let staged = staging
        .segments
        .iter()
        .map(|(off, bytes)| (*off as usize + bytes.len()).div_ceil(BANK_WORDS * 4))
        .max()
        .unwrap_or(0);
    let banks = code_banks(&program.image).max(staged).next_power_of_two();
    let bytes = chunks.iter().map(Vec::len).sum();
    CallSet {
        chunks,
        expect,
        staging,
        banks,
        bytes,
    }
}

/// Whether a staging segment overlaps the code span (mirrors the
/// engine's rule for the pristine-code fetch path).
fn staging_clears_code(staging: &Staging, span_words: usize) -> bool {
    staging
        .segments
        .iter()
        .all(|(off, bytes)| bytes.is_empty() || *off as usize >= span_words * 4)
}
