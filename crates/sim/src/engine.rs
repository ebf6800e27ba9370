//! The 64-lane UDP device: program loading, data-parallel execution,
//! NFA multi-activation mode, and bank-conflict accounting.

use crate::error::{FaultKind, SimError};
use crate::lane::{Lane, LaneConfig, LaneReport, LaneStatus};
use crate::memory::LocalMemory;
use crate::pool::{self, RunParams};
use crate::prepared::{self, PreparedKernel};
use crate::stream::{BitStream, OutputSink};
use crate::supervisor::{self, RunHealth, SupervisorOptions};
use std::sync::Arc;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_asm::{DecodedProgram, ProgramImage};
use udp_isa::mem::{AddressingMode, BANK_WORDS, NUM_BANKS};
use udp_isa::transition::{ExecKind, TransitionWord, FALLBACK_SIGNATURE};
use udp_isa::Reg;

/// Data staged into each lane's window before a run (dictionaries,
/// histogram bin tables, output areas) — the DLT engine's job in the real
/// system.
#[derive(Debug, Clone, Default)]
pub struct Staging {
    /// `(window-relative byte offset, bytes)` segments.
    pub segments: Vec<(u32, Vec<u8>)>,
    /// Scalar registers preset before the run.
    pub regs: Vec<(Reg, u32)>,
}

/// Which per-lane execution engine a run uses (DESIGN.md §2.6.3).
///
/// The interpreter is the reference semantics and permanent differential
/// oracle; the compiled backend specializes the verified program into
/// dense dispatch tables at load time and must reproduce the
/// interpreter's [`UdpRunReport`] bit-for-bit (it deoptimizes back to
/// the interpreter whenever specialization assumptions break, e.g.
/// self-modifying code or `SetBase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Per-symbol interpreter over the predecoded program (reference).
    #[default]
    Interpreter,
    /// Tier-2 load-time specialization: per-state dense dispatch tables
    /// with a burst inner loop, falling back to the interpreter when
    /// its assumptions no longer hold. Timing-model counters are
    /// reconstructed so reports stay bit-identical. Honored under
    /// [`AddressingMode::Local`]; sharing modes always interpret.
    Compiled,
}

/// An `UDP_SIM_BACKEND` / [`FromStr`](std::str::FromStr) value that
/// names no backend. Carries the rejected string so the caller (or the warning
/// [`ExecBackend::from_env`] prints) can show exactly what was typed —
/// a typo'd `UDP_SIM_BACKEND=complied` must not silently run the wrong
/// backend matrix leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The string that matched no backend name.
    pub value: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown execution backend `{}` (expected `interpreter` or `compiled`)",
            self.value
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for ExecBackend {
    type Err = ParseBackendError;

    /// Parses a backend name, case-insensitively: `interpreter` (or the
    /// aliases `interp` / `reference`) and `compiled`. Anything else is
    /// a typed [`ParseBackendError`] — never a silent default.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("interpreter")
            || s.eq_ignore_ascii_case("interp")
            || s.eq_ignore_ascii_case("reference")
        {
            Ok(ExecBackend::Interpreter)
        } else if s.eq_ignore_ascii_case("compiled") {
            Ok(ExecBackend::Compiled)
        } else {
            Err(ParseBackendError {
                value: s.to_string(),
            })
        }
    }
}

impl ExecBackend {
    /// Backend selected by the `UDP_SIM_BACKEND` environment variable
    /// (parsed with [`FromStr`](std::str::FromStr); unset or empty means the
    /// interpreter). This is what lets CI run whole test suites as a
    /// backend matrix without per-callsite plumbing:
    /// [`UdpRunOptions::default`] starts from this value.
    ///
    /// A set-but-unparsable value falls back to the interpreter but
    /// prints one loud warning to stderr (once per process): the
    /// default-per-run-options call pattern means this function cannot
    /// fail, but a typo'd matrix leg silently testing the wrong backend
    /// is exactly the failure CI exists to catch.
    pub fn from_env() -> Self {
        match std::env::var("UDP_SIM_BACKEND") {
            Ok(v) if v.is_empty() => ExecBackend::Interpreter,
            Ok(v) => v.parse().unwrap_or_else(|e| {
                static WARNED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
                WARNED.get_or_init(|| {
                    eprintln!("udp-sim: UDP_SIM_BACKEND: {e}; using the interpreter");
                });
                ExecBackend::Interpreter
            }),
            Err(_) => ExecBackend::Interpreter,
        }
    }
}

/// Options for a device run.
#[derive(Debug, Clone)]
pub struct UdpRunOptions {
    /// Addressing mode (affects energy and conflict accounting).
    pub addressing: AddressingMode,
    /// Banks per lane window. Code + staged data must fit.
    pub banks_per_lane: usize,
    /// Per-lane cycle cap.
    pub lane: LaneConfig,
    /// Let the lane pool start helper threads beside the calling
    /// thread, up to one worker per host core (capped by the lane and
    /// chunk counts). It starts them while the time they are predicted
    /// to save — the call's bytes times the kernel's measured host time
    /// per byte — exceeds what they cost, and every one it may while
    /// the kernel has no measured rate yet (DESIGN.md §2.6.1). Without
    /// it the calling thread runs every chunk and spawns nothing. Only
    /// a host-side speed knob: modeled time is recomputed from the
    /// per-lane reports with the wave formula (DESIGN.md §2.6.2), so
    /// cycles, stalls, references, outputs, and the degradation of
    /// panicking chunks are bit-identical either way. Honored under
    /// [`AddressingMode::Local`] (disjoint lane windows); sharing modes
    /// run their lanes one after another on the device memory, because
    /// those lanes may genuinely communicate through it.
    pub parallel: bool,
    /// Run `udp-verify`'s static checks over the image before loading
    /// it; a report with errors aborts the run as [`SimError::Verify`].
    pub verify: bool,
    /// Attach the chunk supervisor (DESIGN.md §8): faulted chunks climb
    /// the retry → fallback → quarantine ladder instead of silently
    /// dropping their output, and [`UdpRunReport::health`] records the
    /// per-chunk outcomes. `None` (the default) records passive health
    /// only: faulted chunks are quarantined directly. Honored on the
    /// local-addressing paths; sharing modes record passive health.
    pub supervise: Option<SupervisorOptions>,
    /// Per-lane execution engine. Defaults to
    /// [`ExecBackend::from_env`], so `UDP_SIM_BACKEND=compiled` flips
    /// every default-constructed run to the compiled backend.
    pub backend: ExecBackend,
}

impl Default for UdpRunOptions {
    fn default() -> Self {
        UdpRunOptions {
            addressing: AddressingMode::Local,
            banks_per_lane: 1,
            lane: LaneConfig::default(),
            parallel: false,
            verify: false,
            supervise: None,
            backend: ExecBackend::from_env(),
        }
    }
}

/// Aggregate results of a device run.
///
/// Compares equal field-by-field, which is how the determinism tests
/// check that a pooled run reproduces a one-worker run bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpRunReport {
    /// Per-lane reports, one per input chunk actually executed.
    pub lanes: Vec<LaneReport>,
    /// Lanes that ran (≤ 64, limited by code size / banks_per_lane).
    pub lanes_used: usize,
    /// Wall cycles: the slowest lane (data-parallel barrier) plus
    /// modeled bank-conflict stalls.
    pub wall_cycles: u64,
    /// Modeled conflict stall cycles included in `wall_cycles`.
    pub conflict_stalls: u64,
    /// Total input bytes consumed across lanes.
    pub bytes_in: u64,
    /// Total local-memory references across lanes.
    pub mem_refs: u64,
    /// Addressing mode used (for the energy model).
    pub addressing: AddressingMode,
    /// Per-chunk outcomes and fault histogram (DESIGN.md §8). Purely a
    /// function of the per-lane reports and the supervision config, so
    /// it participates in the sequential-vs-pooled bit-identity
    /// contract like every other field.
    pub health: RunHealth,
}

impl UdpRunReport {
    /// Aggregate throughput in MB/s at `clock_ghz` (paper metric:
    /// Throughput).
    pub fn throughput_mbps(&self, clock_ghz: f64) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        self.bytes_in as f64 / self.wall_cycles as f64 * clock_ghz * 1000.0
    }

    /// All lane outputs concatenated in lane order.
    pub fn concat_output(&self) -> Vec<u8> {
        let total = self.lanes.iter().map(|l| l.output.len()).sum();
        let mut v = Vec::with_capacity(total);
        for l in &self.lanes {
            v.extend_from_slice(&l.output);
        }
        v
    }
}

/// The UDP device: 64 lanes over a 1 MB multi-bank local memory.
///
/// A device is only its memory: prepared kernels live apart from it
/// (the caller's [`PreparedKernel`], or the process-wide cache behind
/// the image-taking entry points), so a fresh device runs a program
/// prepared by another at no extra cost.
#[derive(Debug)]
pub struct Udp {
    mem: LocalMemory,
    /// Per-bank zero marks: every word of bank `b` at a bank offset of
    /// `high[b]` or more is zero. Local-addressing copy-back writes
    /// only each window's dirty prefix and zeroes just what these say
    /// the memory held above it.
    high: [usize; NUM_BANKS],
}

impl Udp {
    /// A device with a zeroed 1 MB local memory.
    pub fn new() -> Self {
        Udp {
            mem: LocalMemory::new(),
            high: [0; NUM_BANKS],
        }
    }

    /// How many lanes can run `image` given a window of
    /// `banks_per_lane` banks each.
    pub fn max_lanes(image: &ProgramImage, banks_per_lane: usize) -> usize {
        let window_words = banks_per_lane * BANK_WORDS;
        if image.stats.span_words > window_words {
            return 0;
        }
        NUM_BANKS / banks_per_lane.max(1)
    }

    /// Runs `image` data-parallel over `inputs`, one chunk per lane,
    /// with optional per-lane staging; chunks beyond lane capacity
    /// execute in further waves (wall cycles accumulate). Pre-flight
    /// misconfiguration — an oversized program, a bad bank split, a
    /// non-executable image — comes back as a [`SimError`], and a chunk
    /// whose execution panics degrades to [`LaneStatus::Fault`] in its
    /// own report while the sibling chunks' reports survive.
    ///
    /// [`Udp::run`] over a cached [`PreparedKernel`]: the process keeps
    /// the kernels it prepared last in one LRU table shared by every
    /// device and thread, keyed by exact [`ProgramImage`] equality
    /// (certificate included). A caller streaming many calls through a
    /// program predecodes and compiles it once per process, even on a
    /// fresh device per call.
    pub fn try_run_data_parallel(
        &mut self,
        image: &ProgramImage,
        inputs: &[&[u8]],
        staging: &Staging,
        opts: &UdpRunOptions,
    ) -> Result<UdpRunReport, SimError> {
        let kernel = prepared::CACHE.get(image);
        self.run(&kernel, inputs, staging, opts)
    }

    /// Exactly [`Udp::try_run_data_parallel`]: the predecoded table
    /// argument is not read, since the process-wide kernel cache
    /// predecodes each image itself. Kept for existing callers; callers
    /// that own the kernel should build a [`PreparedKernel`] and call
    /// [`Udp::run`] instead.
    pub fn try_run_data_parallel_shared(
        &mut self,
        image: &ProgramImage,
        _decoded: &Arc<DecodedProgram>,
        inputs: &[&[u8]],
        staging: &Staging,
        opts: &UdpRunOptions,
    ) -> Result<UdpRunReport, SimError> {
        self.try_run_data_parallel(image, inputs, staging, opts)
    }

    /// Runs a prepared kernel data-parallel over `inputs`, one chunk
    /// per lane, with optional per-lane staging; chunks beyond lane
    /// capacity execute in further waves (wall cycles accumulate).
    ///
    /// Under local addressing every chunk goes through the lane pool
    /// (`pool` module): private window memories with incremental
    /// dirty-prefix resets and dynamic chunk scheduling, on the calling
    /// thread alone or — with [`UdpRunOptions::parallel`] set — on
    /// helper threads too. Modeled time is recomputed from the per-lane
    /// reports with the wave formula, so the report does not depend on
    /// the worker count. The compiled backend lowers the kernel on its
    /// first compiled run and reuses those tables afterwards.
    pub fn run(
        &mut self,
        kernel: &PreparedKernel,
        inputs: &[&[u8]],
        staging: &Staging,
        opts: &UdpRunOptions,
    ) -> Result<UdpRunReport, SimError> {
        let image = kernel.image();
        if !image.executable {
            return Err(SimError::NotExecutable);
        }
        if opts.banks_per_lane == 0 || opts.banks_per_lane > NUM_BANKS {
            return Err(SimError::BadBankSplit {
                banks_per_lane: opts.banks_per_lane,
            });
        }
        let window_words = opts.banks_per_lane * BANK_WORDS;
        if image.stats.span_words > window_words {
            return Err(SimError::ProgramTooLarge {
                span_words: image.stats.span_words,
                window_words,
                banks_per_lane: opts.banks_per_lane,
            });
        }
        if let Some(sup) = &opts.supervise {
            sup.validate()?;
        }
        if opts.verify {
            let vopts = udp_verify::VerifyOptions::with_banks(opts.banks_per_lane);
            let report = udp_verify::verify_image(image, &vopts);
            if !report.is_clean() {
                return Err(SimError::Verify(Box::new(report)));
            }
        }
        let lanes_cap = (NUM_BANKS / opts.banks_per_lane).max(1);
        // Images carrying a complete verifier resource certificate run
        // under a budget derived from the certified worst case instead
        // of the generic constants. Host register staging invalidates
        // the certificate's reset-state premise, so it disables the
        // derivation.
        let lane_cfg = match &image.cert {
            Some(cert) if staging.regs.is_empty() => opts.lane.with_cert(cert),
            _ => opts.lane.clone(),
        };
        let decoded = kernel.decoded();
        // Per-bank counts only feed the conflict model, which local
        // (disjoint-window) addressing never consults.
        self.mem.set_bank_tracking(opts.addressing.allows_sharing());
        // Local addressing means provably disjoint windows, so every
        // lane can execute against a private window-sized memory and be
        // copied back — one worker keeps one hot window-sized buffer in
        // cache instead of striding the full 1 MB device memory, and
        // several can run at once. Sharing modes stay on the shared
        // device memory: their lanes may genuinely communicate, and the
        // conflict model needs the merged per-bank reference counts.
        if opts.addressing == AddressingMode::Local {
            // A compile decline (oversized state space, wide symbols,
            // nothing to fuse) silently falls back to the interpreter —
            // the semantics are identical either way;
            // `compiled_decline_reason` surfaces the why.
            let compiled = if opts.backend == ExecBackend::Compiled {
                kernel.compiled()
            } else {
                None
            };
            let params = RunParams {
                image,
                decoded,
                staging,
                cfg: &lane_cfg,
                window_words,
                lanes_cap,
                compiled,
            };
            let rate = opts.parallel.then(|| kernel.host_rate(compiled.is_some()));
            let (mut lane_reports, mut finals) = pool::run(&params, inputs, rate);
            let health = match &opts.supervise {
                Some(sup) => {
                    supervisor::supervise(&params, inputs, &mut lane_reports, &mut finals, sup)
                }
                None => RunHealth::passive(&lane_reports),
            };
            // Copy the final occupant of each lane slot's window back
            // into device memory, so `read_lane_bytes` sees the same
            // post-run state as running every wave on the device.
            for (slot, words) in finals {
                self.copy_back(slot * window_words, window_words, &words);
            }
            return Ok(Self::merge_report(lane_reports, lanes_cap, opts, health));
        }

        // Lanes may write anywhere in the device memory.
        self.high = [BANK_WORDS; NUM_BANKS];
        let mut lane_reports = Vec::with_capacity(inputs.len());
        let mut wall_cycles = 0u64;
        let mut total_conflict = 0u64;
        let mut chunk = 0usize;
        while chunk < inputs.len() {
            let wave = &inputs[chunk..(chunk + lanes_cap).min(inputs.len())];
            let mut wave_cycles = 0u64;
            let mut wave_bank_refs = [0u64; NUM_BANKS];
            for (i, input) in wave.iter().enumerate() {
                let origin = (i * window_words) as u32;
                self.mem.load_words(origin, &image.words);
                // Zero the data area above the code within the window.
                self.mem.clear_words(
                    origin + image.stats.span_words as u32,
                    window_words - image.stats.span_words,
                );
                for (off, bytes) in &staging.segments {
                    self.mem.load_bytes(origin * 4 + off, bytes);
                }
                let mut lane = Lane::staged(image, decoded, origin, staging);
                let mut stream = BitStream::new(input);
                let mut out = OutputSink::with_capacity(input.len());
                let before = self.mem.refs();
                let bank_before = *self.mem.bank_refs();
                let mut rep = lane.run(&mut self.mem, &mut stream, &mut out, &lane_cfg);
                rep.mem_refs -= before; // per-lane delta
                for (b, (after, before)) in self
                    .mem
                    .bank_refs()
                    .iter()
                    .zip(bank_before.iter())
                    .enumerate()
                {
                    wave_bank_refs[b] += after - before;
                }
                wave_cycles = wave_cycles.max(rep.cycles);
                lane_reports.push(rep);
            }
            // Bank-conflict model: under local addressing, windows are
            // disjoint so conflicts are zero. Under restricted/global,
            // banks referenced by multiple lanes serialize round-robin:
            // the slowest lane waits for its share of the shared-bank
            // service. We charge the wave with the excess of the busiest
            // shared bank over an even split.
            let conflict = if opts.addressing.allows_sharing() {
                conflict_stall_model(&wave_bank_refs, wave.len(), opts.banks_per_lane)
            } else {
                0
            };
            total_conflict += conflict;
            wall_cycles += wave_cycles + conflict;
            chunk += wave.len();
        }

        Ok(UdpRunReport {
            lanes_used: lanes_cap.min(inputs.len()),
            wall_cycles,
            conflict_stalls: total_conflict,
            bytes_in: lane_reports.iter().map(|r| r.bytes_consumed).sum(),
            mem_refs: lane_reports.iter().map(|r| r.mem_refs).sum(),
            addressing: opts.addressing,
            health: RunHealth::passive(&lane_reports),
            lanes: lane_reports,
        })
    }

    /// Installs a final window snapshot: `words`, the dirty prefix of
    /// the window at word `origin`, is copied in, and the rest of the
    /// window is zeroed — but only as far up as each bank's zero mark
    /// says the device memory held anything. The device window then
    /// holds exactly the final window contents, while an untouched
    /// window tail costs no work (and no memory pages).
    fn copy_back(&mut self, origin: usize, window_words: usize, words: &[u32]) {
        self.mem.load_words(origin as u32, words);
        let end = origin + words.len();
        for bank in origin / BANK_WORDS..(origin + window_words) / BANK_WORDS {
            let start = bank * BANK_WORDS;
            let keep = end.clamp(start, start + BANK_WORDS);
            let held = start + self.high[bank];
            if held > keep {
                self.mem.clear_words(keep as u32, held - keep);
            }
            self.high[bank] = keep - start;
        }
    }

    /// Builds the aggregate report from per-lane reports under local
    /// addressing, recomputing modeled time with the wave formula:
    /// chunks execute in waves of `lanes_cap` on the modeled device,
    /// each wave costs its slowest lane, and disjoint windows mean zero
    /// conflict stalls. This is what decouples host scheduling from
    /// modeled time — however the pool interleaved chunks across
    /// workers, the report depends only on the per-lane reports in
    /// chunk order.
    fn merge_report(
        lane_reports: Vec<LaneReport>,
        lanes_cap: usize,
        opts: &UdpRunOptions,
        health: RunHealth,
    ) -> UdpRunReport {
        let wall_cycles = lane_reports
            .chunks(lanes_cap.max(1))
            .map(|wave| wave.iter().map(|r| r.cycles).max().unwrap_or(0))
            .sum();
        UdpRunReport {
            lanes_used: lanes_cap.min(lane_reports.len()),
            wall_cycles,
            conflict_stalls: 0,
            bytes_in: lane_reports.iter().map(|r| r.bytes_consumed).sum(),
            mem_refs: lane_reports.iter().map(|r| r.mem_refs).sum(),
            addressing: opts.addressing,
            health,
            lanes: lane_reports,
        }
    }

    /// Reads back a window-relative byte range of lane `lane_idx`'s
    /// window after a run.
    pub fn read_lane_bytes(
        &self,
        lane_idx: usize,
        banks_per_lane: usize,
        offset: u32,
        len: usize,
    ) -> Vec<u8> {
        let origin = (lane_idx * banks_per_lane * BANK_WORDS) as u32;
        self.mem.dump_bytes(origin * 4 + offset, len)
    }

    /// The device memory (diagnostics).
    pub fn memory(&self) -> &LocalMemory {
        &self.mem
    }
}

impl Default for Udp {
    fn default() -> Self {
        Self::new()
    }
}

/// Excess references to over-subscribed banks beyond an even split —
/// the cycles the round-robin arbiter adds to the critical path.
fn conflict_stall_model(bank_refs: &[u64; NUM_BANKS], lanes: usize, banks_per_lane: usize) -> u64 {
    if lanes <= 1 {
        return 0;
    }
    // Banks inside a single lane's window see only that lane: no conflict.
    // With disjoint windows (the data-parallel layout used here) this is
    // all banks, so the model contributes zero — shared-window runs (e.g.
    // a shared dictionary bank) see a positive charge.
    let window_banks = banks_per_lane.max(1);
    let mut stall = 0u64;
    for (b, &refs) in bank_refs.iter().enumerate() {
        let owners = if b / window_banks < lanes { 1 } else { 0 };
        if owners == 0 && refs > 0 {
            // A bank outside every private window is shared by all lanes.
            stall = stall.max(refs - refs / lanes as u64);
        }
    }
    stall
}

/// A reusable membership set over small integer keys, for frontier
/// deduplication without per-symbol sorting. `advance()` starts a new
/// generation in O(1) — membership is "stamp equals current generation"
/// — so the backing vector is allocated once and never cleared on the
/// hot path.
struct SeenSet {
    stamp: Vec<u32>,
    generation: u32,
}

impl SeenSet {
    fn new() -> Self {
        SeenSet {
            stamp: Vec::new(),
            generation: 0,
        }
    }

    /// Starts a new (empty) generation.
    fn advance(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap (once per 2^32 generations): old stamps could
            // alias the new generation, so clear them for real.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Inserts `v` into the current generation; true if it was absent.
    fn insert(&mut self, v: u32) -> bool {
        let i = v as usize;
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
        }
        if self.stamp[i] == self.generation {
            false
        } else {
            self.stamp[i] = self.generation;
            true
        }
    }
}

/// Runs an NFA program in lockstep multi-activation mode on one lane.
///
/// The frontier of active states all dispatch on the same input symbol
/// each step (UAP-style NFA execution); epsilon forks activate several
/// targets. Cycle cost is one dispatch per active state per symbol,
/// which is what makes large NFAs slower but smaller than DFAs.
///
/// Every word is decoded as it is read from memory. Frontier states
/// dedup through a reusable generation-stamped set instead of a
/// per-symbol sort, which changes only the in-`reports` ordering of
/// simultaneous matches, never their multiset or any count.
pub fn run_nfa(image: &ProgramImage, input: &[u8], cfg: &LaneConfig) -> LaneReport {
    assert!(image.executable);
    let words = (image.stats.span_words + 1024).max(8192);
    let mut mem = LocalMemory::with_words(words);
    mem.load_words(0, &image.words);

    let mut dispatches = 0u64;
    let mut fallback_misses = 0u64;
    let entry = image.entry_base;

    // Frontier of consuming-state bases. A Pass entry (initial epsilon
    // closure with several byte-states) is expanded before scanning.
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut seen = SeenSet::new();
    let mut accepted = false;
    let mut reports: Vec<(u16, u32)> = Vec::new();
    let mut cycles = 0u64;
    let mut nfa = NfaCtx {
        mem: &mut mem,
        cycles: &mut cycles,
        reports: &mut reports,
        accepted: &mut accepted,
        seen: &mut seen,
    };
    if image.entry_kind == ExecKind::Pass {
        let seed = TransitionWord::new(
            FALLBACK_SIGNATURE,
            (entry & 0xFFF) as u16,
            ExecKind::Pass,
            udp_isa::AttachMode::Direct,
            0,
        );
        nfa.seen.advance();
        nfa.resolve_activation(&seed, 0, &mut frontier);
    } else {
        frontier.push(entry);
    }
    let mut status = LaneStatus::InputExhausted;
    let budget = cfg.budget_for(input.len());

    'outer: for (pos, &byte) in input.iter().enumerate() {
        let s = u32::from(byte);
        next.clear();
        nfa.seen.advance();
        for &base in &frontier {
            if *nfa.cycles >= budget {
                status = LaneStatus::Fault(FaultKind::CycleBudget { limit: budget });
                break 'outer;
            }
            *nfa.cycles += 1;
            dispatches += 1;
            let raw = nfa.mem.read_word(base + s);
            let hit = raw != 0 && (raw >> 24) as u8 == byte;
            let taken = if hit {
                Some(TransitionWord::decode(raw))
            } else {
                *nfa.cycles += 1;
                fallback_misses += 1;
                let fb_addr = base + udp_isa::FALLBACK_SLOT;
                let fb = nfa.mem.read_word(fb_addr);
                if fb == 0 {
                    None // this activation dies
                } else {
                    Some(TransitionWord::decode(fb))
                }
            };
            let Some(t) = taken else { continue };
            nfa.resolve_activation(&t, pos as u32 + 1, &mut next);
        }
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            status = LaneStatus::NoTransition;
            break;
        }
    }

    LaneReport {
        status,
        cycles,
        dispatches,
        fallback_misses,
        actions: reports.len() as u64,
        mem_refs: mem.refs(),
        bytes_consumed: input.len() as u64,
        output: Vec::new(),
        reports,
        accepted,
        regs: [0; 16],
    }
}

/// The mutable machinery one NFA run threads through activation
/// resolution (bundled so the recursion has one argument instead of
/// six).
struct NfaCtx<'a> {
    mem: &'a mut LocalMemory,
    cycles: &'a mut u64,
    reports: &'a mut Vec<(u16, u32)>,
    accepted: &'a mut bool,
    seen: &'a mut SeenSet,
}

impl NfaCtx<'_> {
    /// Follows a taken transition to consuming successors, expanding
    /// epsilon forks and running Report/Accept side effects (the only
    /// actions NFA programs attach). Successors dedup against the
    /// current `seen` generation at insertion.
    fn resolve_activation(&mut self, t: &TransitionWord, pos: u32, next: &mut Vec<u32>) {
        // Run attached Report/Accept actions.
        if let Some(addr) = t.action_addr(0, 0) {
            let flat = match t.attach_mode() {
                udp_isa::AttachMode::Direct => addr,
                udp_isa::AttachMode::Scaled => addr, // abase = 0 in NFA programs
            };
            for a in flat..flat.saturating_add(64) {
                let Some(act) = udp_isa::Action::decode(self.mem.read_word(a)) else {
                    break;
                };
                *self.cycles += 1;
                match act.op {
                    udp_isa::Opcode::Report => self.reports.push((act.imm, pos)),
                    udp_isa::Opcode::Accept => *self.accepted = act.imm != 0,
                    _ => {}
                }
                if act.last {
                    break;
                }
            }
        }
        match t.kind() {
            ExecKind::Halt => {}
            ExecKind::Consume => {
                let tgt = u32::from(t.target());
                if self.seen.insert(tgt) {
                    next.push(tgt);
                }
            }
            ExecKind::Flagged => {}
            ExecKind::Pass => {
                // Expand the fork chain.
                let base = u32::from(t.target());
                let mut k = 0u32;
                loop {
                    *self.cycles += 1;
                    let addr = base + udp_isa::FALLBACK_SLOT + k;
                    let raw = self.mem.read_word(addr);
                    if raw == 0 {
                        break;
                    }
                    let w = TransitionWord::decode(raw);
                    self.resolve_activation(&w, pos, next);
                    if w.signature() != CHAIN_CONTINUE_SIGNATURE {
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_asm::{Arc, LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::{Action, Opcode};

    fn emit(b: u8) -> Vec<Action> {
        vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b))]
    }

    fn scanner() -> ProgramImage {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, b'a' as u16, Target::State(s), emit(b'!'));
        b.fallback_arc(s, Target::State(s), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    #[test]
    fn data_parallel_runs_every_chunk() {
        let img = scanner();
        let mut udp = Udp::new();
        let inputs: Vec<&[u8]> = vec![b"aa", b"ba", b"bb"];
        let rep = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &Staging::default(),
                &UdpRunOptions::default(),
            )
            .expect("valid run");
        assert_eq!(rep.lanes.len(), 3);
        assert_eq!(
            rep.concat_output(),
            b"aa!a!".iter().map(|_| b'!').take(3).collect::<Vec<_>>()
        );
        assert_eq!(rep.bytes_in, 6);
        // Wall cycles = slowest lane.
        let max = rep.lanes.iter().map(|l| l.cycles).max().unwrap();
        assert_eq!(rep.wall_cycles, max);
    }

    #[test]
    fn verify_preflight_accepts_clean_and_rejects_corrupt_images() {
        let img = scanner();
        let mut udp = Udp::new();
        let opts = UdpRunOptions {
            verify: true,
            ..UdpRunOptions::default()
        };
        let inputs: Vec<&[u8]> = vec![b"aa"];
        udp.try_run_data_parallel(&img, &inputs, &Staging::default(), &opts)
            .expect("clean image passes pre-flight");

        let mut broken = img.clone();
        let dup = broken.state_bases[0];
        broken.state_bases.push(dup);
        match udp.try_run_data_parallel(&broken, &inputs, &Staging::default(), &opts) {
            Err(SimError::Verify(report)) => assert!(report.errors() > 0),
            other => panic!("expected SimError::Verify, got {other:?}"),
        }
        // Without the flag the same image still loads (dynamic behavior
        // is the fault harness's business, not the loader's).
        udp.try_run_data_parallel(
            &broken,
            &inputs,
            &Staging::default(),
            &UdpRunOptions::default(),
        )
        .expect("pre-flight is opt-in");
    }

    #[test]
    fn more_chunks_than_lanes_run_in_waves() {
        let img = scanner();
        let mut udp = Udp::new();
        let chunk: &[u8] = b"aaaa";
        let inputs: Vec<&[u8]> = vec![chunk; 70]; // > 64 lanes
        let rep = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &Staging::default(),
                &UdpRunOptions::default(),
            )
            .expect("valid run");
        assert_eq!(rep.lanes.len(), 70);
        // Two waves: wall = 2 × single-chunk cycles.
        let one = rep.lanes[0].cycles;
        assert_eq!(rep.wall_cycles, 2 * one);
    }

    #[test]
    fn oversized_program_is_a_typed_error() {
        // Pack enough dense states that the image cannot fit one bank.
        let mut b = ProgramBuilder::new();
        let states: Vec<_> = (0..40).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        for (i, &s) in states.iter().enumerate() {
            let next = states[(i + 1) % states.len()];
            for sym in 0..200u16 {
                b.labeled_arc(s, sym, Target::State(next), vec![]);
            }
            b.fallback_arc(s, Target::State(s), vec![]);
        }
        let img = b
            .assemble(&udp_asm::LayoutOptions::with_banks(64))
            .expect("fits the full memory");
        assert!(img.stats.span_words > BANK_WORDS);
        let mut udp = Udp::new();
        let inputs: Vec<&[u8]> = vec![b"aaa"];
        let err = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &Staging::default(),
                &UdpRunOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::ProgramTooLarge {
                banks_per_lane: 1,
                ..
            }
        ));
    }

    #[test]
    fn zero_banks_is_a_typed_error() {
        let img = scanner();
        let mut udp = Udp::new();
        let inputs: Vec<&[u8]> = vec![b"a"];
        let opts = UdpRunOptions {
            banks_per_lane: 0,
            ..Default::default()
        };
        let err = udp
            .try_run_data_parallel(&img, &inputs, &Staging::default(), &opts)
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::BadBankSplit { banks_per_lane: 0 }
        );
    }

    #[test]
    fn panicking_lane_degrades_to_fault_and_siblings_survive() {
        // Lane 1's input is long enough to cross the chaos threshold;
        // lanes 0 and 2 finish well under it. The panic must surface as
        // a Fault report for lane 1 only.
        let img = scanner();
        let mut udp = Udp::new();
        let long: Vec<u8> = vec![b'a'; 200];
        let inputs: Vec<&[u8]> = vec![b"aa", &long, b"aaa"];
        let opts = UdpRunOptions {
            parallel: true,
            lane: LaneConfig {
                chaos_panic_at: Some(50),
                ..Default::default()
            },
            ..Default::default()
        };
        let (rep, _) = crate::pool::tests::chaos_threads(|| {
            udp.try_run_data_parallel(&img, &inputs, &Staging::default(), &opts)
        });
        let rep = rep.expect("pre-flight config is valid");
        assert_eq!(rep.lanes.len(), 3);
        assert_eq!(rep.lanes[0].status, LaneStatus::InputExhausted);
        assert_eq!(rep.lanes[0].output, b"!!");
        assert!(
            matches!(
                &rep.lanes[1].status,
                LaneStatus::Fault(FaultKind::HostPanic(m)) if m.contains("chaos")
            ),
            "lane 1 should carry the panic: {:?}",
            rep.lanes[1].status
        );
        assert_eq!(rep.lanes[2].status, LaneStatus::InputExhausted);
        assert_eq!(rep.lanes[2].output, b"!!!");
    }

    #[test]
    fn backend_names_parse_and_typos_are_typed_errors() {
        assert_eq!("interpreter".parse(), Ok(ExecBackend::Interpreter));
        assert_eq!("INTERP".parse(), Ok(ExecBackend::Interpreter));
        assert_eq!("reference".parse(), Ok(ExecBackend::Interpreter));
        assert_eq!("compiled".parse(), Ok(ExecBackend::Compiled));
        assert_eq!("Compiled".parse(), Ok(ExecBackend::Compiled));
        let err = "complied".parse::<ExecBackend>().unwrap_err();
        assert_eq!(err.value, "complied");
        assert!(err.to_string().contains("complied"));
        assert!(err.to_string().contains("compiled"));
        assert!("".parse::<ExecBackend>().is_err());
    }

    #[test]
    fn invalid_supervisor_options_are_rejected_preflight() {
        let img = scanner();
        let mut udp = Udp::new();
        let inputs: Vec<&[u8]> = vec![b"a"];
        let opts = UdpRunOptions {
            supervise: Some(SupervisorOptions {
                backoff_base_ms: 10,
                backoff_cap_ms: 2,
                ..SupervisorOptions::default()
            }),
            ..UdpRunOptions::default()
        };
        let err = udp
            .try_run_data_parallel(&img, &inputs, &Staging::default(), &opts)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::SupervisorConfig {
                backoff_base_ms: 10,
                backoff_cap_ms: 2,
            }
        );
    }

    #[test]
    fn multi_bank_windows_reduce_lane_count() {
        let img = scanner();
        assert_eq!(Udp::max_lanes(&img, 1), 64);
        assert_eq!(Udp::max_lanes(&img, 2), 32);
        assert_eq!(Udp::max_lanes(&img, 64), 1);
    }

    #[test]
    fn staging_lands_in_each_lane_window() {
        // Program reads staged byte at window offset 2048 and emits it.
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let r1 = Reg::new(1);
        b.labeled_arc(
            s,
            b'.' as u16,
            Target::Halt,
            vec![
                Action::imm(Opcode::MovI, r1, Reg::R0, 2048),
                Action::imm(Opcode::LoadB, r1, r1, 0),
                Action::imm(Opcode::EmitB, Reg::R0, r1, 0),
            ],
        );
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let mut udp = Udp::new();
        let staging = Staging {
            segments: vec![(2048, vec![b'S'])],
            regs: vec![],
        };
        let inputs: Vec<&[u8]> = vec![b".", b"."];
        let rep = udp
            .try_run_data_parallel(&img, &inputs, &staging, &UdpRunOptions::default())
            .expect("valid run");
        assert_eq!(rep.concat_output(), b"SS");
    }

    #[test]
    fn shared_bank_references_charge_conflict_stalls() {
        // Lanes that BumpW a location outside every private window model
        // a shared structure (e.g. a global statistics bank).
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.fallback_arc(
            s,
            Target::State(s),
            vec![Action::imm(Opcode::BumpW, Reg::R0, Reg::new(12), 1024)],
        );
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let mut udp = Udp::new();
        let inputs: Vec<&[u8]> = vec![b"xxxxxxxx"; 4];
        let local = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &Staging::default(),
                &UdpRunOptions::default(),
            )
            .expect("valid run");
        assert_eq!(local.conflict_stalls, 0, "local windows are disjoint");
        // Under restricted addressing the model can charge stalls for
        // genuinely shared banks; with disjoint windows it stays zero.
        let mut udp = Udp::new();
        let restricted = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &Staging::default(),
                &UdpRunOptions {
                    addressing: udp_isa::mem::AddressingMode::Restricted,
                    ..Default::default()
                },
            )
            .expect("valid run");
        assert_eq!(restricted.lanes.len(), 4);
        assert!(restricted.wall_cycles >= local.wall_cycles);
    }

    #[test]
    fn throughput_accounts_for_all_lanes() {
        let img = scanner();
        let mut udp = Udp::new();
        let inputs: Vec<&[u8]> = vec![b"aaaaaaaaaaaaaaaa"; 8];
        let rep = udp
            .try_run_data_parallel(
                &img,
                &inputs,
                &Staging::default(),
                &UdpRunOptions::default(),
            )
            .expect("valid run");
        let lane_rate = rep.lanes[0].rate_mbps(1.0);
        let tput = rep.throughput_mbps(1.0);
        assert!(
            (tput / lane_rate - 8.0).abs() < 0.01,
            "{tput} vs {lane_rate}"
        );
    }

    #[test]
    fn nfa_mode_tracks_multiple_activations() {
        // Patterns "ab" and "ac" as an NFA with a fork after 'a'.
        // start --a--> fork{p1, p2}; p1 --b--> report 1; p2 --c--> report 2.
        let mut b = ProgramBuilder::new();
        let start = b.add_consuming_state();
        let p1 = b.add_consuming_state();
        let p2 = b.add_consuming_state();
        b.set_entry(start);
        let fork = b.add_fork_state(vec![
            Arc {
                target: Target::State(p1),
                actions: vec![],
            },
            Arc {
                target: Target::State(p2),
                actions: vec![],
            },
        ]);
        b.labeled_arc(start, b'a' as u16, Target::State(fork), vec![]);
        b.fallback_arc(start, Target::State(start), vec![]);
        // p1/p2 die on mismatch (no fallback) — but the start state keeps
        // scanning via the fork? No: real scanners fork the start state
        // too. Here we just check activation mechanics on exact input.
        b.labeled_arc(
            p1,
            b'b' as u16,
            Target::State(start),
            vec![Action::imm(Opcode::Report, Reg::R0, Reg::R0, 1)],
        );
        b.labeled_arc(
            p2,
            b'c' as u16,
            Target::State(start),
            vec![Action::imm(Opcode::Report, Reg::R0, Reg::R0, 2)],
        );
        let img = b.assemble(&LayoutOptions::default()).unwrap();

        let rep = run_nfa(&img, b"ab", &LaneConfig::default());
        assert_eq!(rep.reports, vec![(1, 2)]);

        let rep = run_nfa(&img, b"ac", &LaneConfig::default());
        assert_eq!(rep.reports, vec![(2, 2)]);

        // NFA cost: after 'a', two states are active on the second symbol.
        assert!(rep.dispatches >= 3);
    }
}
