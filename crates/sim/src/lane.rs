//! The UDP lane interpreter: dispatch unit + stream-prefetch unit +
//! action unit (paper Figure 23), cycle-accurately.

use crate::engine::Staging;
use crate::error::FaultKind;
use crate::memory::LocalMemory;
use crate::stream::{BitStream, OutputSink};
use std::sync::Arc;
use udp_asm::idiom::EmitSpan;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_asm::{DecodedProgram, ProgramImage};
use udp_isa::action::{Action, Opcode};
use udp_isa::transition::{ExecKind, TransitionWord, FALLBACK_SIGNATURE};
use udp_isa::{Reg, Word, BLOCK_CAP, LOOP_CAP};

/// The predecoded code tables, hoisted out of the `Arc` into plain
/// slices held in locals for the duration of a run — the fetch fast
/// path then costs one bounds check and one load instead of a pointer
/// chase through `Arc` and `Vec` headers that memory writes would keep
/// invalidating.
#[derive(Clone, Copy)]
pub(crate) struct CodeTables<'a> {
    pub(crate) transitions: &'a [(Word, TransitionWord)],
    pub(crate) actions: &'a [(Word, Option<Action>)],
}

impl<'a> CodeTables<'a> {
    /// Both views of `dp`.
    pub(crate) fn of(dp: &'a DecodedProgram) -> Self {
        CodeTables {
            transitions: dp.transitions(),
            actions: dp.actions(),
        }
    }
}

/// Per-run lane configuration.
#[derive(Debug, Clone)]
pub struct LaneConfig {
    /// Absolute safety cap on simulated cycles. Acts as an override
    /// ceiling on the derived budget (see [`LaneConfig::budget_for`]):
    /// the effective per-chunk budget never exceeds it, so callers that
    /// want the pre-derived behavior of a hard cap just set this low.
    pub max_cycles: u64,
    /// Proportional cycle budget: a chunk of `n` input bytes may spend
    /// at most `cycles_per_byte * n` cycles (floored by
    /// [`LaneConfig::min_cycle_budget`], ceilinged by
    /// [`LaneConfig::max_cycles`]). The constant default of 4096 is
    /// orders of magnitude above any real kernel (the decompressors
    /// peak around tens of cycles per input byte), so legitimate
    /// programs never feel it while a runaway loop on a small chunk
    /// terminates proportionally instead of burning the absolute cap.
    /// When the image carries a verifier resource certificate
    /// (`udp_asm::ResourceCert`), [`LaneConfig::with_cert`] replaces
    /// the constant with a bound derived from the certified worst-case
    /// cycles per byte — usually thousands of times tighter. `0`
    /// disables the proportional budget entirely.
    pub cycles_per_byte: u64,
    /// Floor of the proportional budget, so near-empty chunks still get
    /// enough cycles for staged-table setup and non-consuming programs.
    pub min_cycle_budget: u64,
    /// Fault-injection hook: when set, the lane *panics* the moment its
    /// cycle counter reaches this value. Only the fault harness and the
    /// engine's panic-recovery tests set this — it exists so the
    /// "one poisoned lane must not take down the wave" path can be
    /// exercised deterministically. `None` (the default) costs nothing
    /// on the dispatch hot path: the check is folded into the existing
    /// cycle-cap compare.
    pub chaos_panic_at: Option<u64>,
    /// Fault-injection hook: when set, the lane stops with
    /// [`FaultKind::ChaosInjected`] the moment its cycle counter
    /// reaches this value — a modeled *detected* soft error (vs the
    /// undetected crash `chaos_panic_at` models). Folded into the same
    /// cycle-cap compare; free when `None`.
    pub chaos_fault_at: Option<u64>,
    /// Marks the chaos hooks as transient: the supervisor disarms both
    /// hooks when it replays a faulted chunk, modeling a soft error
    /// that does not recur on retry. With `false` (persistent chaos),
    /// replays re-fault deterministically and recovery must come from
    /// the reference fallback instead.
    pub chaos_transient: bool,
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig {
            max_cycles: 2_000_000_000,
            cycles_per_byte: 4096,
            min_cycle_budget: 1 << 20,
            chaos_panic_at: None,
            chaos_fault_at: None,
            chaos_transient: false,
        }
    }
}

impl LaneConfig {
    /// The effective cycle budget for a chunk of `input_bytes`:
    /// `min(max_cycles, max(min_cycle_budget, cycles_per_byte * n))`,
    /// or just `max_cycles` when the proportional budget is disabled.
    ///
    /// `cycles_per_byte` and `min_cycle_budget` are *not* necessarily
    /// the constant defaults: a caller holding a certified image
    /// ([`LaneConfig::with_cert`]) derives both from the verifier's
    /// worst-case bounds, and the three-way clamp order matters — the
    /// floor is applied to the proportional term *before* the
    /// `max_cycles` ceiling, so a tiny chunk still cannot exceed the
    /// absolute cap even when a cert inflates the floor.
    pub fn budget_for(&self, input_bytes: usize) -> u64 {
        if self.cycles_per_byte == 0 {
            return self.max_cycles;
        }
        let proportional = self
            .cycles_per_byte
            .saturating_mul(input_bytes as u64)
            .max(self.min_cycle_budget);
        self.max_cycles.min(proportional)
    }

    /// Derives a tightened budget from a complete verifier resource
    /// certificate: the proportional slope becomes twice the certified
    /// worst-case cycles per byte (the factor-2 headroom keeps a sound
    /// but tight certificate from ever stopping a legitimate run), and
    /// the floor grows to cover twice the certificate's additive base.
    /// `max_cycles` is left untouched — it stays the absolute safety
    /// ceiling regardless of what was certified.
    ///
    /// Incomplete certificates (any `unbounded` blocker or a missing
    /// cycle bound) leave the configuration unchanged: an unbounded
    /// program gets the generic constant budget, not an infinite one.
    ///
    /// The certificate models a run from the architectural reset state,
    /// so callers must not apply this to runs with staged register
    /// presets.
    #[must_use]
    pub fn with_cert(&self, cert: &udp_asm::ResourceCert) -> LaneConfig {
        let mut cfg = self.clone();
        if !cert.is_complete() {
            return cfg;
        }
        if let Some(cpb) = cert.max_cycles_per_byte {
            // A certified ratio of 0 (pure-halting programs) still
            // needs a positive slope so budget_for's disable sentinel
            // (0) is never produced by accident.
            cfg.cycles_per_byte = cpb.saturating_mul(2).max(1);
            // Sound replacement for the generic 1 MiB floor: a clean
            // run needs at most `base + cpb*n` cycles, and whenever the
            // proportional term `2*cpb*n` fails to cover that (small
            // `n`, `cpb*n < base + 1024`), this floor does.
            cfg.min_cycle_budget = cert.base_cycles.saturating_mul(2).saturating_add(1024);
        }
        cfg
    }
}

/// Why a lane stopped.
///
/// # Lifecycle
///
/// A lane is born [`LaneStatus::Running`] and stays there for its whole
/// execution; each step transitions it *at most once* to a
/// terminal variant (anything but `Running`), after which stepping is a
/// no-op contract violation — [`Lane::run`] polls the status after
/// every step and stops on the first terminal value. The status is
/// *moved* (not cloned) into the final [`LaneReport`]; the lane object
/// is left `Running` again but must be considered consumed: its
/// registers, stream position, and cycle counters still hold their
/// final values, so re-running it would double-count. Build a fresh
/// lane per run instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneStatus {
    /// Still runnable (only observable mid-stepping).
    Running,
    /// The stream had too few bits for the next dispatch — the normal end
    /// of a scan.
    InputExhausted,
    /// A `Halt` action or terminal arc stopped the lane with this code.
    Halted(u16),
    /// Dispatch missed and the state had no fallback.
    NoTransition,
    /// The lane faulted: a malformed program, an exhausted cycle
    /// budget, a recovered host panic — see [`FaultKind`] for the
    /// taxonomy. Faulted chunks are what the supervisor's
    /// retry → fallback → quarantine ladder (DESIGN.md §8) operates on.
    Fault(FaultKind),
}

/// Everything a lane run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneReport {
    /// Termination cause.
    pub status: LaneStatus,
    /// Simulated cycles.
    pub cycles: u64,
    /// Multi-way dispatches performed.
    pub dispatches: u64,
    /// Dispatches that fell back after a signature miss (+1 cycle each).
    pub fallback_misses: u64,
    /// Actions executed.
    pub actions: u64,
    /// Local-memory references attributable to this lane (code fetches +
    /// data accesses, including the modeled loop-datapath accesses).
    pub mem_refs: u64,
    /// Input bytes consumed.
    pub bytes_consumed: u64,
    /// The output stream.
    pub output: Vec<u8>,
    /// `(pattern, byte position)` match reports.
    pub reports: Vec<(u16, u32)>,
    /// Final accept flag.
    pub accepted: bool,
    /// Final register file (diagnostics).
    pub regs: [u32; 16],
}

impl LaneReport {
    /// Input processing rate in MB/s at `clock_ghz` (paper metric: Rate).
    pub fn rate_mbps(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bytes_consumed as f64 / self.cycles as f64 * clock_ghz * 1000.0
    }
}

/// One UDP lane.
#[derive(Debug, Clone)]
pub struct Lane {
    pub(crate) regs: [u32; 16],
    /// Flat word address of the lane's window origin.
    pub(crate) origin: u32,
    /// Flat window-base register (restricted addressing).
    pub(crate) wbase: u32,
    /// Flat action-base register.
    pub(crate) abase: u32,
    pub(crate) ascale: u8,
    pub(crate) sym_bits: u8,
    /// Flat base of the current state.
    pub(crate) base: u32,
    pub(crate) kind: ExecKind,
    pub(crate) status: LaneStatus,
    pub(crate) accept: bool,
    reports: Vec<(u16, u32)>,
    pub(crate) cycles: u64,
    pub(crate) dispatches: u64,
    pub(crate) fallback_misses: u64,
    pub(crate) actions_run: u64,
    extra_refs: u64,
    /// Predecoded view of the loaded image, window-relative — empty
    /// for the lazy reference lane ([`Lane::new`]). Read only while
    /// `code_clean` holds; every other fetch decodes the word it reads
    /// from memory.
    pub(crate) decoded: Arc<DecodedProgram>,
    /// True while the code span at `origin` is known to hold the
    /// pristine image (set by [`Lane::mark_code_clean`], cleared on any
    /// lane write into the span). While clean, code fetches inside the
    /// span come straight from the predecoded table — counted as memory
    /// references but without re-reading the word.
    pub(crate) code_clean: bool,
    /// Image span in words (the region `code_clean` covers).
    code_len: u32,
}

impl Lane {
    /// Creates a lane positioned at a program image loaded at
    /// `origin_words`, decoding words lazily as they are fetched: its
    /// table is empty, so every fetch reads memory and decodes. The
    /// reference the predecoded lanes are tested against.
    pub fn new(image: &ProgramImage, origin_words: u32) -> Self {
        Self::with_decoded(
            image,
            origin_words,
            Arc::new(DecodedProgram::from_words(&[])),
        )
    }

    /// Like [`Lane::new`], but holding a shared predecoded table
    /// (decode-once / execute-many), which the lane reads once
    /// [`Lane::mark_code_clean`] declares the code pristine. The table
    /// must come from the same `image`; simulated cycles, references,
    /// and outputs are bit-identical to the lazy-decoding lane.
    pub fn with_decoded(
        image: &ProgramImage,
        origin_words: u32,
        decoded: Arc<DecodedProgram>,
    ) -> Self {
        assert!(image.executable, "size-model-only image cannot run");
        Lane {
            regs: [0; 16],
            origin: origin_words,
            wbase: origin_words + image.init.wbase,
            abase: origin_words + image.init.abase,
            ascale: image.init.ascale,
            sym_bits: image.init.symbol_bits,
            base: origin_words + image.entry_base,
            kind: image.entry_kind,
            status: LaneStatus::Running,
            accept: false,
            reports: Vec::new(),
            cycles: 0,
            dispatches: 0,
            fallback_misses: 0,
            actions_run: 0,
            extra_refs: 0,
            decoded,
            code_clean: false,
            code_len: image.stats.span_words as u32,
        }
    }

    /// The lane every device run starts a chunk with: `image` loaded at
    /// `origin_words` (the caller has written it and `staging`'s
    /// segments into memory), fetching from `decoded`, with the
    /// pristine-code fast path on unless a staging segment overwrote
    /// code words, and `staging`'s registers preset.
    pub(crate) fn staged(
        image: &ProgramImage,
        decoded: &Arc<DecodedProgram>,
        origin_words: u32,
        staging: &Staging,
    ) -> Self {
        let mut lane = Self::with_decoded(image, origin_words, Arc::clone(decoded));
        let code_bytes = image.stats.span_words * 4;
        if staging
            .segments
            .iter()
            .all(|(off, bytes)| bytes.is_empty() || *off as usize >= code_bytes)
        {
            lane.mark_code_clean();
        }
        for (r, v) in &staging.regs {
            lane.preset_reg(*r, *v);
        }
        lane
    }

    /// Declares that the memory this lane will run against holds the
    /// pristine image at `origin` (freshly loaded, fully in bounds, no
    /// staging segment overlapping the code span). While that holds,
    /// code fetches inside the span are served from the predecoded
    /// table — still counted as memory references, but without the
    /// re-read. Every other fetch decodes the word it reads from
    /// memory. The lane clears the flag itself the moment it writes
    /// into its own code span, so self-modifying programs keep
    /// decode-on-read semantics. Cycle, reference, and conflict numbers
    /// are identical either way. (A lane with an empty table,
    /// [`Lane::new`], still reads and decodes every word.)
    pub fn mark_code_clean(&mut self) {
        self.code_clean = true;
    }

    /// Whether the pristine-code fast path survived the run: true only
    /// if [`Lane::mark_code_clean`] was called and no write landed in
    /// the code span since, i.e. the window's code prefix still holds
    /// the verbatim program image. The pool uses this to skip reloading
    /// the image on the next window reset.
    pub(crate) fn code_is_clean(&self) -> bool {
        self.code_clean
    }

    /// Records a lane write of word address `word_addr`; a write into
    /// the code span invalidates the pristine-code fast path.
    #[inline]
    fn note_write(&mut self, word_addr: u32) {
        if word_addr.wrapping_sub(self.origin) < self.code_len {
            self.code_clean = false;
        }
    }

    /// Fetches the transition word at `addr`: its raw bits and its
    /// view, from the predecoded table while the code is pristine and
    /// `addr` lies in it, decoded from the word read otherwise. Counts
    /// exactly one memory reference either way.
    #[inline]
    fn fetch_transition(
        &self,
        addr: u32,
        mem: &mut LocalMemory,
        tables: CodeTables,
    ) -> (u32, TransitionWord) {
        if self.code_clean {
            let off = addr.wrapping_sub(self.origin) as usize;
            if let Some(&(raw, t)) = tables.transitions.get(off) {
                mem.count_read(addr);
                return (raw, t);
            }
        }
        let raw = mem.read_word(addr);
        (raw, TransitionWord::decode(raw))
    }

    /// Action-view twin of [`Lane::fetch_transition`].
    #[inline]
    fn fetch_action(
        &self,
        addr: u32,
        mem: &mut LocalMemory,
        tables: CodeTables,
    ) -> (u32, Option<Action>) {
        if self.code_clean {
            let off = addr.wrapping_sub(self.origin) as usize;
            if let Some(&(raw, a)) = tables.actions.get(off) {
                mem.count_read(addr);
                return (raw, a);
            }
        }
        let raw = mem.read_word(addr);
        (raw, Action::decode(raw))
    }

    /// Presets a scalar register (host staging before the run).
    pub fn preset_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::R15 {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Convenience: allocate a memory just big enough, load the image at
    /// origin 0, and run the lane over `input`.
    pub fn run_program(image: &ProgramImage, input: &[u8], cfg: &LaneConfig) -> LaneReport {
        Self::run_program_capture(image, input, &Staging::default(), cfg).0
    }

    /// Like [`Lane::run_program`], but stages data segments/registers
    /// first and returns the final memory (bin tables, scratch output).
    pub fn run_program_capture(
        image: &ProgramImage,
        input: &[u8],
        staging: &Staging,
        cfg: &LaneConfig,
    ) -> (LaneReport, LocalMemory) {
        // Leave generous data headroom above the code for program scratch.
        let words = (image.stats.span_words + 16384).max(32768);
        let mut mem = LocalMemory::with_words(words);
        mem.load_words(0, &image.words);
        for (off, bytes) in &staging.segments {
            mem.load_bytes(*off, bytes);
        }
        let mut lane = Lane::staged(image, &Arc::new(image.predecode()), 0, staging);
        let mut stream = BitStream::new(input);
        let mut out = OutputSink::new();
        let rep = lane.run(&mut mem, &mut stream, &mut out, cfg);
        (rep, mem)
    }

    /// Runs the lane to completion in single-activation (DFA) mode.
    pub fn run(
        &mut self,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        cfg: &LaneConfig,
    ) -> LaneReport {
        // Hoist the predecoded tables out of the `Arc` into plain
        // slice locals for the whole run (see `CodeTables`).
        let dp = Arc::clone(&self.decoded);
        let tables = CodeTables::of(&dp);
        // The chaos hooks share the cycle-cap compare: `cap` is the
        // nearest of the limits, and which one fired is only sorted
        // out on the (cold) exit path. The budget itself is derived
        // from the chunk's input length (cycles-per-byte with a floor,
        // ceilinged by the absolute `max_cycles` cap).
        let budget = cfg.budget_for(stream.len_bits().div_ceil(8) as usize);
        let chaos_panic = cfg.chaos_panic_at.unwrap_or(u64::MAX);
        let chaos_fault = cfg.chaos_fault_at.unwrap_or(u64::MAX);
        let cap = budget.min(chaos_panic).min(chaos_fault);
        while self.status == LaneStatus::Running {
            if self.cycles >= cap {
                self.status = cap_status(self.cycles, budget, chaos_panic, chaos_fault);
                break;
            }
            // Most dispatches in the common workloads are "trivial": a
            // consuming state hits a predecoded slot whose transition
            // carries no actions and lands in another consuming state.
            // Handle runs of those in a tight loop; anything else —
            // signature miss, attached actions, mode change, dirty code
            // — drops to the general `step` machinery. All modeled
            // counters (cycles, dispatches, reads, the R13 symbol
            // latch) advance exactly as the general path would.
            if self.kind == ExecKind::Consume && self.code_clean {
                let trans = tables.transitions;
                // With bank tracking off there is no per-address work
                // in a read count, so batch the slot-fetch accounting
                // in a register and credit it in one step on exit.
                let batch = !mem.tracks_banks();
                let mut batched = 0u64;
                loop {
                    if self.cycles >= cap {
                        self.status = cap_status(self.cycles, budget, chaos_panic, chaos_fault);
                        break;
                    }
                    let Some(s) = stream.read(self.sym_bits) else {
                        self.status = LaneStatus::InputExhausted;
                        break;
                    };
                    let slot = self.base + s;
                    match trans.get(slot.wrapping_sub(self.origin) as usize) {
                        Some(&(raw, t)) if raw != 0 && (raw >> 24) as u8 == (s & 0xFF) as u8 => {
                            // Signature hit: same bookkeeping as
                            // `dispatch_on`, minus the refetch.
                            self.cycles += 1;
                            self.dispatches += 1;
                            self.regs[13] = s;
                            if batch {
                                batched += 1;
                            } else {
                                mem.count_read(slot);
                            }
                            if t.attach() == 0 && t.kind() == ExecKind::Consume {
                                // Trivial: no actions, next state also
                                // consumes — stay in the tight loop.
                                self.base = self.wbase + u32::from(t.target());
                            } else {
                                self.take(&t, mem, stream, out, tables);
                                if self.status != LaneStatus::Running
                                    || self.kind != ExecKind::Consume
                                    || !self.code_clean
                                {
                                    break;
                                }
                            }
                        }
                        _ => {
                            // Signature miss (or slot outside the
                            // predecoded span): full dispatch. It
                            // re-fetches — and counts — the slot word
                            // itself; the peek above was uncounted, so
                            // the read tally stays exact.
                            self.dispatch_on(s, mem, stream, out, tables);
                            if self.status != LaneStatus::Running
                                || self.kind != ExecKind::Consume
                                || !self.code_clean
                            {
                                break;
                            }
                        }
                    }
                }
                if batched > 0 {
                    mem.add_reads(batched);
                }
                continue;
            }
            self.step(mem, stream, out, tables);
        }
        LaneReport {
            // Move the status out (it can carry a FaultKind payload);
            // the lane is consumed by this run — see the LaneStatus
            // lifecycle notes.
            status: std::mem::replace(&mut self.status, LaneStatus::Running),
            cycles: self.cycles,
            dispatches: self.dispatches,
            fallback_misses: self.fallback_misses,
            actions: self.actions_run,
            mem_refs: mem.refs() + self.extra_refs,
            bytes_consumed: u64::from(stream.byte_index()),
            output: out.take_bytes(),
            reports: std::mem::take(&mut self.reports),
            accepted: self.accept,
            regs: self.regs,
        }
    }

    /// Executes one dispatch (and its attached actions).
    #[inline]
    fn step(
        &mut self,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        tables: CodeTables,
    ) {
        match self.kind {
            ExecKind::Halt => {
                self.status = LaneStatus::Halted(0);
            }
            ExecKind::Consume => {
                // `read` returns None (cursor unchanged) exactly when
                // fewer than `sym_bits` bits remain.
                match stream.read(self.sym_bits) {
                    Some(s) => self.dispatch_on(s, mem, stream, out, tables),
                    None => self.status = LaneStatus::InputExhausted,
                }
            }
            ExecKind::Flagged => {
                let s = self.regs[0] & 0xFF;
                self.dispatch_on(s, mem, stream, out, tables);
            }
            ExecKind::Pass => {
                // Pass-through state: take the fallback-slot word,
                // refilling the bit count carried in its signature.
                self.cycles += 1;
                self.dispatches += 1;
                let addr = self.base + udp_isa::FALLBACK_SLOT;
                let (raw, t) = self.fetch_transition(addr, mem, tables);
                if raw == 0 {
                    self.status = LaneStatus::NoTransition;
                    return;
                }
                match t.signature() {
                    CHAIN_CONTINUE_SIGNATURE => {
                        self.status = LaneStatus::Fault(FaultKind::Addressing {
                            context: "epsilon fork outside NFA mode",
                            value: u32::from(CHAIN_CONTINUE_SIGNATURE),
                        });
                        return;
                    }
                    FALLBACK_SIGNATURE => {}
                    refill if refill <= 8 => {
                        if u64::from(refill) > stream.bit_index() {
                            self.status = LaneStatus::Fault(FaultKind::StreamUnderflow {
                                requested_bits: refill,
                                consumed_bits: stream.bit_index(),
                            });
                            return;
                        }
                        stream.putback(refill);
                    }
                    other => {
                        self.status = LaneStatus::Fault(FaultKind::Addressing {
                            context: "bad pass signature",
                            value: u32::from(other),
                        });
                        return;
                    }
                }
                self.take(&t, mem, stream, out, tables);
            }
        }
    }

    #[inline]
    fn dispatch_on(
        &mut self,
        s: u32,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        tables: CodeTables,
    ) {
        self.cycles += 1;
        self.dispatches += 1;
        self.regs[13] = s; // symbol latch (R13)
        let slot = self.base + s;
        let (raw, t) = self.fetch_transition(slot, mem, tables);
        // The signature lives in the top byte of the raw encoding, so
        // the hit check needs no decode at all.
        let hit = raw != 0 && (raw >> 24) as u8 == (s & 0xFF) as u8;
        let t = if hit {
            t
        } else {
            // Signature miss: one extra cycle to read the fallback slot.
            self.cycles += 1;
            self.fallback_misses += 1;
            let fb_slot = self.base + udp_isa::FALLBACK_SLOT;
            let (fb, fb_t) = self.fetch_transition(fb_slot, mem, tables);
            if fb == 0 {
                self.status = LaneStatus::NoTransition;
                return;
            }
            fb_t
        };
        self.take(&t, mem, stream, out, tables);
    }

    #[inline]
    pub(crate) fn take(
        &mut self,
        t: &TransitionWord,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        tables: CodeTables,
    ) {
        if let Some(rel) = t.action_addr(0, self.ascale) {
            // `action_addr` gives either the direct attach (window-
            // relative low region) or needs the abase added; recompute
            // flat here so both modes land in this lane's window.
            let flat = match t.attach_mode() {
                udp_isa::AttachMode::Direct => self.origin + rel,
                udp_isa::AttachMode::Scaled => self.abase + (u32::from(t.attach()) << self.ascale),
            };
            self.run_action_block(flat, mem, stream, out, tables);
            if self.status != LaneStatus::Running {
                return;
            }
        }
        if t.kind() == ExecKind::Halt {
            self.status = LaneStatus::Halted(0);
            return;
        }
        self.base = self.wbase + u32::from(t.target());
        self.kind = t.kind();
    }

    fn run_action_block(
        &mut self,
        addr: u32,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        tables: CodeTables,
    ) {
        self.action_block_tail(addr, BLOCK_CAP, mem, stream, out, tables);
    }

    /// Runs (the rest of) an action block with `budget` fetches left of
    /// the architectural [`BLOCK_CAP`]. Split out so the compiled
    /// backend can resume decode-on-read semantics mid-block the moment
    /// a cached block writes into its own code span.
    pub(crate) fn action_block_tail(
        &mut self,
        mut addr: u32,
        budget: usize,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        tables: CodeTables,
    ) {
        for _ in 0..budget {
            let (raw, decoded) = self.fetch_action(addr, mem, tables);
            let Some(a) = decoded else {
                self.status = LaneStatus::Fault(FaultKind::UndecodableWord { addr, raw });
                return;
            };
            let skip = self.exec(&a, mem, stream, out);
            self.actions_run += 1;
            if self.status != LaneStatus::Running {
                return;
            }
            if a.last {
                return;
            }
            addr += 1 + skip;
        }
        self.status = LaneStatus::Fault(FaultKind::LoopOverflow {
            context: "action block",
            len: BLOCK_CAP as u32,
            cap: BLOCK_CAP as u32,
        });
    }

    /// Runs a compile-time-decoded action block: the same actions the
    /// decode-on-read walk from `flat` would fetch (the caller
    /// guarantees it — pristine code span, attach bases unchanged), so
    /// the per-action table lookup and bounds check disappear and the
    /// counted code reads are credited in bulk. Every architectural
    /// effect — cycles from `exec`, `actions_run`, early termination on
    /// a status change — lands exactly as the interpreter's walk.
    ///
    /// `pure_code` (compile-time property: no memory-writing ops in the
    /// block) skips the pristine-code re-validation entirely; otherwise
    /// a write into the code span mid-block replays the remaining
    /// actions through [`Lane::action_block_tail`], so self-modifying
    /// blocks keep decode-on-read semantics.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_cached_block(
        &mut self,
        flat: u32,
        block: &[Action],
        pure_code: bool,
        fused: Option<&EmitSpan>,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
        tables: CodeTables,
    ) {
        let mut at = 0usize;
        if let Some(f) = fused {
            if !self.run_emit_span(f, mem, stream, out) {
                return;
            }
            at = EmitSpan::LEN;
            if at >= block.len() {
                return;
            }
        }
        if pure_code {
            for (i, a) in block[at..].iter().enumerate() {
                self.exec(a, mem, stream, out);
                self.actions_run += 1;
                if self.status != LaneStatus::Running {
                    mem.add_reads(i as u64 + 1);
                    return;
                }
            }
            mem.add_reads((block.len() - at) as u64);
            return;
        }
        for (i, a) in block[at..].iter().enumerate() {
            let skip = self.exec(a, mem, stream, out);
            self.actions_run += 1;
            if self.status != LaneStatus::Running {
                mem.add_reads(i as u64 + 1);
                return;
            }
            if !self.code_clean {
                mem.add_reads(i as u64 + 1);
                if !a.last {
                    let abs = at + i;
                    self.action_block_tail(
                        flat + abs as u32 + 1 + skip,
                        BLOCK_CAP - abs - 1,
                        mem,
                        stream,
                        out,
                        tables,
                    );
                }
                return;
            }
        }
        mem.add_reads((block.len() - at) as u64);
    }

    /// Runs a recognized [`EmitSpan`] prefix as one straight-line
    /// routine. Register reads and writes happen in exact program
    /// order (aliased registers observe every intermediate value), and
    /// the charges are precisely the generic walk's: each action's issue
    /// cycles from the ISA charge table plus the `LoopIn` bulk charge, one
    /// counted code read per action, `actions_run` per action. Returns
    /// `false` when the `LoopIn` length check faulted (the block is
    /// over; charges cover the three actions that architecturally ran).
    fn run_emit_span(
        &mut self,
        f: &EmitSpan,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
    ) -> bool {
        let idx = stream.byte_index();
        match self.run_emit_span_unsynced(f, idx, mem, stream, out) {
            Some(c) => {
                self.cycles += c;
                true
            }
            None => {
                self.cycles += EmitSpan::FAULT_CYCLES;
                false
            }
        }
    }

    /// The in-burst twin of [`Lane::run_emit_span`], for a stream whose
    /// cursor sync the caller defers: `idx` is the live byte position
    /// the cursor will be synced to. Cycle charges are *returned* (the
    /// caller folds them into its bulk accumulator) rather than applied;
    /// every other effect — register writes, output, `actions_run`, the
    /// counted code reads — lands directly. `None` means the `LoopIn`
    /// length check faulted (status set; the three architecturally-run
    /// actions' non-cycle charges applied, their
    /// [`EmitSpan::FAULT_CYCLES`] owed by the caller).
    #[inline]
    pub(crate) fn run_emit_span_unsynced(
        &mut self,
        f: &EmitSpan,
        idx: u32,
        mem: &mut LocalMemory,
        stream: &BitStream,
        out: &mut OutputSink,
    ) -> Option<u64> {
        self.regs[f.d0 as usize] = idx.wrapping_add(f.off0);
        let len = self.regs[f.r1 as usize].wrapping_sub(self.regs[f.s1 as usize]);
        self.regs[f.d1 as usize] = len;
        let src = self.regs[f.r2 as usize];
        let n = self.regs[f.s2 as usize];
        if n > LOOP_CAP {
            self.actions_run += 3;
            mem.add_reads(3);
            self.status = LaneStatus::Fault(FaultKind::LoopOverflow {
                context: "loop action",
                len: n,
                cap: LOOP_CAP,
            });
            return None;
        }
        if n > 0 {
            out.push_bytes_with(|dst| stream.extend_bytes_into(src, n as usize, dst));
        }
        out.push_byte(self.regs[f.s3 as usize].wrapping_add(f.imm3) as u8);
        self.regs[f.d4 as usize] = idx.wrapping_add(f.off4);
        self.actions_run += EmitSpan::LEN as u64;
        mem.add_reads(EmitSpan::LEN as u64);
        Some(EmitSpan::ISSUE_CYCLES + Opcode::LoopIn.charge().bulk_cycles(n))
    }

    fn rd(&self, r: Reg, stream: &BitStream) -> u32 {
        if r == Reg::R15 {
            stream.byte_index()
        } else {
            self.regs[r.index() as usize]
        }
    }

    fn wr(&mut self, r: Reg, v: u32) {
        if r != Reg::R15 {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Executes one action; returns how many following actions to skip.
    fn exec(
        &mut self,
        a: &Action,
        mem: &mut LocalMemory,
        stream: &mut BitStream,
        out: &mut OutputSink,
    ) -> u32 {
        use Opcode::*;
        // The bulk charge is read in the loop arms, where the opcode is
        // known, so the hot path computes only the issue cycles here.
        self.cycles += u64::from(a.op.charge().issue);
        // Every operand `eval` may read is read here, ahead of the match:
        // with nothing left between this match's default arm and `eval`'s
        // own, the two compile to one opcode jump table.
        let sv = self.rd(a.src, stream);
        let d = self.rd(a.dst, stream);
        let rv = self.rd(a.rref, stream);
        let (imm16, imm1) = (a.imm, a.imm1);
        // Read in the arms, where the opcode is known, so the extension
        // rule folds to a constant.
        let imm = || a.op.imm_value(a.imm);
        let byte_origin = self.origin * 4;
        match a.op {
            Nop => {}
            LoadW => {
                let v = mem.read_word(byte_origin.wrapping_add(sv.wrapping_add(imm())) / 4);
                self.wr(a.dst, v);
            }
            StoreW => {
                let addr = byte_origin.wrapping_add(d.wrapping_add(imm()));
                self.note_write(addr / 4);
                mem.write_word(addr / 4, sv);
            }
            LoadB => {
                let v = mem.read_byte(byte_origin.wrapping_add(sv.wrapping_add(imm())));
                self.wr(a.dst, u32::from(v));
            }
            StoreB => {
                let addr = byte_origin.wrapping_add(d.wrapping_add(imm()));
                self.note_write(addr / 4);
                mem.write_byte(addr, sv as u8);
            }
            SetSym => {
                if (1..=8).contains(&a.imm) {
                    self.sym_bits = a.imm as u8;
                } else {
                    self.status = LaneStatus::Fault(FaultKind::Addressing {
                        context: "SetSym symbol width",
                        value: u32::from(a.imm),
                    });
                }
            }
            SetSymT => {
                if (1..=8).contains(&a.imm) {
                    self.sym_bits = a.imm as u8;
                } else {
                    self.status = LaneStatus::Fault(FaultKind::Addressing {
                        context: "SetSymT symbol width",
                        value: u32::from(a.imm),
                    });
                }
            }
            SetBase => self.wbase = self.origin + imm(),
            SetABase => self.abase = self.origin + sv.wrapping_add(imm()),
            SetAScale => self.ascale = (imm() & 7) as u8,
            ReadBits => match stream.read((imm() & 31).max(1) as u8) {
                Some(v) => self.wr(a.dst, v),
                None => self.status = LaneStatus::InputExhausted,
            },
            PeekBits => {
                let v = stream.peek((imm() & 31).max(1) as u8).unwrap_or(0);
                self.wr(a.dst, v);
            }
            BumpW => {
                // Read-modify-write: 2 references.
                let addr = byte_origin.wrapping_add(imm().wrapping_add(sv.wrapping_mul(4))) / 4;
                self.note_write(addr);
                let v = mem.read_word(addr).wrapping_add(1);
                mem.write_word(addr, v);
                self.wr(a.dst, v);
            }
            EmitB => out.push_byte(sv.wrapping_add(imm()) as u8),
            EmitW => out.push_bytes(&sv.to_le_bytes()),
            SkipB => stream.skip_bytes(sv.wrapping_add(imm())),
            RefillI => {
                let bits = (imm() & 15).min(8) as u8;
                if u64::from(bits) > stream.bit_index() {
                    self.status = LaneStatus::Fault(FaultKind::StreamUnderflow {
                        requested_bits: bits,
                        consumed_bits: stream.bit_index(),
                    });
                } else {
                    stream.putback(bits);
                }
            }
            Report => self.reports.push((a.imm, stream.byte_index())),
            Accept => self.accept = a.imm != 0,
            Halt => self.status = LaneStatus::Halted(a.imm),
            InIdx => self.wr(a.dst, stream.byte_index().wrapping_add(imm())),
            OutIdx => self.wr(a.dst, (out.len() as u32).wrapping_add(imm())),
            AtEof => self.wr(a.dst, u32::from(stream.at_end())),
            EmitBits => out.push_bits(sv, a.imm1.clamp(1, 16)),
            SkipIfZ if sv == 0 => return u32::from(a.imm1),
            SkipIfNz if sv != 0 => return u32::from(a.imm1),
            SkipIfZ | SkipIfNz => {}
            LoopCmp => {
                // Stream-window vs stream-window compare, 8 bytes/cycle.
                let limit = self.regs[14].min(LOOP_CAP);
                let mut n = 0u32;
                while n < limit
                    && stream.byte_at(rv.wrapping_add(n)) == stream.byte_at(sv.wrapping_add(n))
                {
                    n += 1;
                }
                self.cycles += a.op.charge().bulk_cycles(n);
                self.wr(a.dst, n);
            }
            LoopCmpM => {
                let limit = self.regs[14].min(LOOP_CAP);
                let mut n = 0u32;
                while n < limit
                    && mem.peek_byte(byte_origin.wrapping_add(rv).wrapping_add(n))
                        == stream.byte_at(sv.wrapping_add(n))
                {
                    n += 1;
                }
                self.cycles += a.op.charge().bulk_cycles(n);
                self.extra_refs += u64::from(n.div_ceil(8));
                self.wr(a.dst, n);
            }
            LoopCpy => {
                let Some(n) = self.loop_len(sv) else { return 0 };
                // Bulk writes anywhere end the pristine-code fast path
                // (conservative; re-validation keeps semantics exact).
                self.code_clean = false;
                // Counted writes charge n refs; the reads fold into the
                // 8-byte datapath model.
                mem.copy_bytes_counted(
                    byte_origin.wrapping_add(rv),
                    byte_origin.wrapping_add(d),
                    n,
                );
                self.cycles += a.op.charge().bulk_cycles(n);
            }
            LoopOut => {
                let Some(n) = self.loop_len(sv) else { return 0 };
                if n > 0 {
                    out.push_bytes_with(|dst| {
                        mem.extend_bytes_into(byte_origin.wrapping_add(rv), n as usize, dst);
                    });
                }
                self.extra_refs += u64::from(n.div_ceil(8));
                self.cycles += a.op.charge().bulk_cycles(n);
            }
            LoopBack => {
                let Some(n) = self.loop_len(sv) else { return 0 };
                if rv == 0 || (rv as usize) > out.len() {
                    self.status = LaneStatus::Fault(FaultKind::Addressing {
                        context: "LoopBack distance outside the produced output",
                        value: rv,
                    });
                    return 0;
                }
                out.copy_back(rv, n);
                self.cycles += a.op.charge().bulk_cycles(n);
            }
            LoopIn => {
                let Some(n) = self.loop_len(sv) else { return 0 };
                if n > 0 {
                    out.push_bytes_with(|dst| stream.extend_bytes_into(rv, n as usize, dst));
                }
                self.cycles += a.op.charge().bulk_cycles(n);
            }
            PeekAt => self.wr(a.dst, u32::from(stream.byte_at(rv.wrapping_add(sv)))),
            PeekW => {
                let base = rv.wrapping_add(sv);
                let v = u32::from_le_bytes([
                    stream.byte_at(base),
                    stream.byte_at(base.wrapping_add(1)),
                    stream.byte_at(base.wrapping_add(2)),
                    stream.byte_at(base.wrapping_add(3)),
                ]);
                self.wr(a.dst, v);
            }
            // The register ops: the ISA's one definition of their values.
            // The register ops: the ISA's one definition of their values.
            op => self.wr(a.dst, op.eval(d, sv, rv, imm16, imm1)),
        }
        0
    }

    /// Validates a loop-action length; absurd values (beyond any lane
    /// window) fault instead of spinning for minutes.
    fn loop_len(&mut self, n: u32) -> Option<u32> {
        if n > LOOP_CAP {
            self.status = LaneStatus::Fault(FaultKind::LoopOverflow {
                context: "loop action",
                len: n,
                cap: LOOP_CAP,
            });
            None
        } else {
            Some(n)
        }
    }
}

/// Resolves which limit fired when the folded cycle-cap compare trips:
/// the panic hook wins (it models an undetected crash), then the
/// injected-fault hook, then the real cycle budget.
#[cold]
pub(crate) fn cap_status(
    cycles: u64,
    budget: u64,
    chaos_panic: u64,
    chaos_fault: u64,
) -> LaneStatus {
    if cycles >= chaos_panic {
        panic!("chaos: injected lane panic at cycle {cycles}");
    }
    if cycles >= chaos_fault {
        return LaneStatus::Fault(FaultKind::ChaosInjected { at_cycle: cycles });
    }
    LaneStatus::Fault(FaultKind::CycleBudget { limit: budget })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::{Action, ActionFormat, Opcode};

    fn cfg() -> LaneConfig {
        LaneConfig {
            max_cycles: 100_000,
            ..Default::default()
        }
    }

    fn emit(b: u8) -> Vec<Action> {
        // r12 is never written in these tests, so src + imm == imm.
        vec![Action::imm(
            Opcode::EmitB,
            Reg::R0,
            Reg::new(12),
            u16::from(b),
        )]
    }

    /// One-state scanner that emits '!' on 'a' and loops otherwise.
    fn scanner() -> udp_asm::ProgramImage {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, b'a' as u16, Target::State(s), emit(b'!'));
        b.fallback_arc(s, Target::State(s), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    #[test]
    fn scans_and_emits() {
        let r = Lane::run_program(&scanner(), b"banana", &cfg());
        assert_eq!(r.status, LaneStatus::InputExhausted);
        assert_eq!(r.output, b"!!!");
        assert_eq!(r.bytes_consumed, 6);
        assert_eq!(r.dispatches, 6);
    }

    #[test]
    fn fallback_costs_one_extra_cycle() {
        let r = Lane::run_program(&scanner(), b"bbbb", &cfg());
        // 4 dispatches, all misses: 4 + 4 fallback cycles.
        assert_eq!(r.fallback_misses, 4);
        assert_eq!(r.cycles, 8);
    }

    #[test]
    fn hit_costs_one_cycle_plus_action() {
        let r = Lane::run_program(&scanner(), b"aaaa", &cfg());
        assert_eq!(r.fallback_misses, 0);
        // 4 dispatches + 4 emit actions.
        assert_eq!(r.cycles, 8);
    }

    /// Dispatches one `a` into a halting arc carrying `acts`, with
    /// `regs` preset, 64 `a` bytes of input, the same 64 bytes in data
    /// memory at byte 16384, and 32 bytes of prior output (so
    /// `LoopBack` has history to copy).
    fn run_block(acts: Vec<Action>, regs: &[(u8, u32)]) -> LaneReport {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, b'a' as u16, Target::Halt, acts);
        b.fallback_arc(s, Target::Halt, vec![]);
        let image = b.assemble(&LayoutOptions::default()).unwrap();
        let mut mem = LocalMemory::with_words(8192);
        mem.load_words(0, &image.words);
        for i in 0..64 {
            mem.write_byte(16384 + i, b'a');
        }
        let mut lane = Lane::new(&image, 0);
        for &(r, v) in regs {
            lane.preset_reg(Reg::new(r), v);
        }
        let input = [b'a'; 64];
        let mut stream = BitStream::new(&input);
        let mut out = OutputSink::new();
        out.push_bytes(&[b'o'; 32]);
        lane.run(&mut mem, &mut stream, &mut out, &cfg())
    }

    /// The lane charges every opcode exactly its ISA charge-table
    /// cycles, and bulk loops `issue + ceil(n/8)` across lengths.
    #[test]
    fn every_opcode_charges_its_table_cycles() {
        let dispatch = run_block(vec![], &[]).cycles;
        for &op in Opcode::ALL {
            let charge = op.charge();
            let (dst, rref, src) = (Reg::new(3), Reg::new(2), Reg::new(1));
            let a = match op.format() {
                ActionFormat::Imm => Action::imm(op, dst, src, 4),
                ActionFormat::Imm2 => Action::imm2(op, dst, src, 4, 4),
                ActionFormat::Reg => Action::reg(op, dst, rref, src),
            };
            let lens: &[u32] = if charge.bulk { &[0, 1, 8, 9, 17] } else { &[0] };
            for &n in lens {
                // R1 = length (compare loops: stream offset 0, R14 the
                // limit); R2 = source (history distance for LoopBack);
                // R3 = destination / store base, clear of the code.
                let r2 = match op {
                    Opcode::LoopCmpM | Opcode::LoopCpy | Opcode::LoopOut => 16384,
                    Opcode::LoopBack => 4,
                    _ => 0,
                };
                let compare = matches!(op, Opcode::LoopCmp | Opcode::LoopCmpM);
                let r1 = if compare { 0 } else { n };
                let r = run_block(vec![a], &[(1, r1), (2, r2), (3, 20000), (14, n)]);
                assert!(
                    !matches!(r.status, LaneStatus::Fault(_)) || !charge.bulk,
                    "{op} n={n}: {:?}",
                    r.status
                );
                if compare {
                    assert_eq!(r.regs[3], n, "{op} compared length");
                }
                let table = u64::from(charge.issue) + charge.bulk_cycles(n);
                assert_eq!(r.cycles - dispatch, table, "{op} n={n}");
            }
        }
    }

    /// The ISA's per-opcode [`udp_isa::Effects`], held to the
    /// interpreter on edge operands: an op not flagged `can_end` leaves
    /// the lane running, and an op not flagged `stream` leaves the
    /// cursor where it was and computes the same result at two cursor
    /// positions. The compiled backend's lowering trusts both.
    #[test]
    fn every_opcode_keeps_to_its_effect_flags() {
        let image = scanner();
        let input: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let (dst, rref, src) = (Reg::new(3), Reg::new(2), Reg::new(1));
        for &op in Opcode::ALL {
            let fx = op.effects();
            for v in [0, 1, u32::MAX, LOOP_CAP + 1] {
                for imm in [0u16, 1, 4, 0xFFFF] {
                    let a = match op.format() {
                        ActionFormat::Imm => Action::imm(op, dst, src, imm),
                        ActionFormat::Imm2 => {
                            Action::imm2(op, dst, src, (imm & 0xF) as u8, imm & 0xFFF)
                        }
                        ActionFormat::Reg => Action::reg(op, dst, rref, src),
                    };
                    let run = |skip_bytes: usize| {
                        let mut mem = LocalMemory::with_words(8192);
                        mem.load_words(0, &image.words);
                        let mut lane = Lane::new(&image, 0);
                        for r in 1..=3 {
                            lane.preset_reg(Reg::new(r), v);
                        }
                        // The compare loops' limit; kept small so an
                        // edge operand cannot make them run for long.
                        lane.preset_reg(Reg::R14, 16);
                        let mut stream = BitStream::new(&input);
                        for _ in 0..skip_bytes {
                            stream.read(8);
                        }
                        let mut out = OutputSink::new();
                        out.push_bytes(&[b'o'; 32]);
                        lane.exec(&a, &mut mem, &mut stream, &mut out);
                        let moved = stream.bit_index() != (skip_bytes as u64) * 8;
                        let result = (
                            lane.status.clone(),
                            lane.regs,
                            lane.accept,
                            lane.cycles,
                            out.take_bytes(),
                            lane.reports.clone(),
                        );
                        (moved, result)
                    };
                    let (moved, at1) = run(1);
                    if !fx.can_end {
                        assert_eq!(at1.0, LaneStatus::Running, "{a}, operands {v:#x}");
                    }
                    if !fx.stream {
                        let (moved3, at3) = run(3);
                        assert!(!moved && !moved3, "{a} moved the cursor");
                        assert_eq!(at1, at3, "{a}, operands {v:#x}: cursor-dependent");
                    }
                }
            }
        }
    }

    #[test]
    fn no_transition_when_fallback_missing() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, b'x' as u16, Target::State(s), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let r = Lane::run_program(&img, b"q", &cfg());
        assert_eq!(r.status, LaneStatus::NoTransition);
    }

    #[test]
    fn halt_arc_stops_the_lane() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, 0, Target::Halt, emit(b'E'));
        b.fallback_arc(s, Target::State(s), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let r = Lane::run_program(&img, &[7, 7, 0, 7], &cfg());
        assert_eq!(r.status, LaneStatus::Halted(0));
        assert_eq!(r.output, b"E");
        assert_eq!(r.bytes_consumed, 3);
    }

    #[test]
    fn sub_byte_symbols_dispatch() {
        // 2-bit symbols: emit the symbol value as a digit.
        let mut b = ProgramBuilder::new();
        b.set_symbol_bits(2);
        let s = b.add_consuming_state();
        b.set_entry(s);
        for sym in 0u16..4 {
            b.labeled_arc(s, sym, Target::State(s), emit(b'0' + sym as u8));
        }
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        // 0b00_01_10_11 = 0x1B
        let r = Lane::run_program(&img, &[0x1B], &cfg());
        assert_eq!(r.output, b"0123");
    }

    #[test]
    fn refill_state_puts_bits_back() {
        // Dispatch 3 bits; a pass state refills 1 bit and the next
        // dispatch re-reads it.
        let mut b = ProgramBuilder::new();
        b.set_symbol_bits(3);
        let done = b.add_consuming_state(); // consumes remaining symbol
        let refill = b.add_pass_state(
            1,
            udp_asm::Arc {
                target: Target::State(done),
                actions: emit(b'R'),
            },
        );
        let start = b.add_consuming_state();
        b.set_entry(start);
        // Any 3-bit symbol goes to the refill state.
        b.fallback_arc(start, Target::State(refill), vec![]);
        for sym in 0u16..8 {
            b.labeled_arc(done, sym, Target::Halt, emit(b'0' + sym as u8));
        }
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        // Input bits: 101 101 -> start consumes 101, refill puts back 1,
        // done consumes 110 -> digit '6'... byte = 0b101_101_00 = 0xB4;
        // after refill cursor is at bit 2, reading bits 2..5 = 110.
        let r = Lane::run_program(&img, &[0xB4], &cfg());
        assert_eq!(r.status, LaneStatus::Halted(0));
        assert_eq!(r.output, b"R6");
    }

    #[test]
    fn flagged_dispatch_reads_r0() {
        // First state consumes a byte into R0 via actions? Simpler:
        // preset R0 and enter a flagged state directly.
        let mut b = ProgramBuilder::new();
        let f = b.add_flagged_state();
        b.set_entry(f);
        b.labeled_arc(f, 42, Target::Halt, emit(b'Y'));
        b.fallback_arc(f, Target::Halt, emit(b'N'));
        let img = b.assemble(&LayoutOptions::default()).unwrap();

        let words = (img.stats.span_words + 1024).max(8192);
        let mut mem = LocalMemory::with_words(words);
        mem.load_words(0, &img.words);
        let mut lane = Lane::new(&img, 0);
        lane.preset_reg(Reg::new(0), 42);
        let mut stream = BitStream::new(b"");
        let mut out = OutputSink::new();
        let r = lane.run(&mut mem, &mut stream, &mut out, &cfg());
        assert_eq!(r.output, b"Y");
    }

    #[test]
    fn action_arithmetic_and_memory() {
        // On byte 'g': r1 = 5; r2 = r1 + 10; store r2 at byte 512; load it
        // back into r3; emit r3.
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let r3 = Reg::new(3);
        let r4 = Reg::new(4);
        b.labeled_arc(
            s,
            b'g' as u16,
            Target::Halt,
            vec![
                Action::imm(Opcode::MovI, r1, Reg::R0, 5),
                Action::imm(Opcode::AddI, r2, r1, 10),
                Action::imm(Opcode::MovI, r4, Reg::R0, 2048),
                Action::imm(Opcode::StoreW, r4, r2, 0),
                Action::imm(Opcode::LoadW, r3, r4, 0),
                Action::imm(Opcode::EmitB, Reg::R0, r3, 50),
            ],
        );
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let r = Lane::run_program(&img, b"g", &cfg());
        assert_eq!(r.status, LaneStatus::Halted(0));
        assert_eq!(r.output, &[65]); // 15 + 50
        assert_eq!(r.regs[2], 15);
    }

    #[test]
    fn skip_if_zero_predication() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let r1 = Reg::new(1);
        b.labeled_arc(
            s,
            b'x' as u16,
            Target::Halt,
            vec![
                Action::imm(Opcode::MovI, r1, Reg::R0, 0),
                Action::imm2(Opcode::SkipIfZ, Reg::R0, r1, 1, 0),
                Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b'A')),
                Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b'B')),
            ],
        );
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let r = Lane::run_program(&img, b"x", &cfg());
        assert_eq!(r.output, b"B", "the skipped action must not run");
    }

    #[test]
    fn cycle_limit_fires() {
        // Flagged self-loop never consumes input: infinite.
        let mut b = ProgramBuilder::new();
        let f = b.add_flagged_state();
        b.set_entry(f);
        b.fallback_arc(f, Target::State(f), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let r = Lane::run_program(
            &img,
            b"",
            &LaneConfig {
                max_cycles: 100,
                ..Default::default()
            },
        );
        assert_eq!(
            r.status,
            LaneStatus::Fault(FaultKind::CycleBudget { limit: 100 })
        );
    }

    #[test]
    fn proportional_budget_stops_runaway_programs_early() {
        // Same infinite flagged self-loop, default config: the derived
        // budget (floor, since the input is empty) fires long before
        // the 2e9 absolute cap would.
        let mut b = ProgramBuilder::new();
        let f = b.add_flagged_state();
        b.set_entry(f);
        b.fallback_arc(f, Target::State(f), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let cfg = LaneConfig::default();
        let r = Lane::run_program(&img, b"", &cfg);
        assert_eq!(
            r.status,
            LaneStatus::Fault(FaultKind::CycleBudget {
                limit: cfg.min_cycle_budget
            })
        );
        assert!(r.cycles <= cfg.min_cycle_budget + 1);
    }

    #[test]
    fn budget_derivation_respects_floor_and_absolute_cap() {
        let cfg = LaneConfig::default();
        assert_eq!(cfg.budget_for(0), cfg.min_cycle_budget);
        assert_eq!(cfg.budget_for(1024), 1024 * cfg.cycles_per_byte);
        assert_eq!(cfg.budget_for(usize::MAX), cfg.max_cycles);
        // The absolute cap overrides the floor too.
        let tight = LaneConfig {
            max_cycles: 50,
            ..LaneConfig::default()
        };
        assert_eq!(tight.budget_for(4096), 50);
        // cycles_per_byte = 0 disables the proportional budget.
        let absolute = LaneConfig {
            cycles_per_byte: 0,
            ..LaneConfig::default()
        };
        assert_eq!(absolute.budget_for(0), absolute.max_cycles);
    }

    #[test]
    fn cert_derived_budget_orders_floor_slope_and_cap() {
        let cert = udp_asm::ResourceCert {
            max_cycles_per_byte: Some(10),
            base_cycles: 100,
            min_bytes_per_cycle_progress: Some((1, 10)),
            max_output_expansion: Some(2),
            base_output_bytes: 8,
            ..Default::default()
        };
        let cfg = LaneConfig::default().with_cert(&cert);
        // Slope doubles the certified ratio; floor covers 2*base+slack.
        assert_eq!(cfg.cycles_per_byte, 20);
        assert_eq!(cfg.min_cycle_budget, 2 * 100 + 1024);
        // Clamp order: floor applies to the proportional term first...
        assert_eq!(cfg.budget_for(1), cfg.min_cycle_budget);
        assert_eq!(cfg.budget_for(10_000), 200_000);
        // ...and max_cycles still ceilings the result, even over the
        // cert-derived floor.
        let tight = LaneConfig {
            max_cycles: 500,
            ..cfg.clone()
        };
        assert_eq!(tight.budget_for(1), 500);
        assert_eq!(tight.budget_for(10_000), 500);
        // Every certified clean run fits the derived budget:
        // base + per*n <= budget_for(n) for representative n.
        for n in [0usize, 1, 7, 100, 4096, 1 << 20] {
            let need = cert.base_cycles + 10 * n as u64;
            assert!(
                cfg.budget_for(n) >= need,
                "budget {} < certified worst case {} at n={}",
                cfg.budget_for(n),
                need,
                n
            );
        }
        // A certified ratio of zero still yields a positive slope so
        // the `cycles_per_byte == 0` disable sentinel never fires.
        let halting = udp_asm::ResourceCert {
            max_cycles_per_byte: Some(0),
            max_output_expansion: Some(0),
            ..Default::default()
        };
        assert_eq!(LaneConfig::default().with_cert(&halting).cycles_per_byte, 1);
        // Incomplete certificates leave the generic constants alone.
        let blocked = udp_asm::ResourceCert {
            max_cycles_per_byte: None,
            max_output_expansion: Some(1),
            ..Default::default()
        };
        let unchanged = LaneConfig::default().with_cert(&blocked);
        assert_eq!(
            unchanged.cycles_per_byte,
            LaneConfig::default().cycles_per_byte
        );
        assert_eq!(
            unchanged.min_cycle_budget,
            LaneConfig::default().min_cycle_budget
        );
    }

    #[test]
    fn budget_derivation_saturates_instead_of_wrapping() {
        // `cycles_per_byte * input_bytes` on a multi-GB chunk overflows
        // u64; the product must saturate (and then clamp to max_cycles),
        // never wrap around to a tiny budget that would fault legitimate
        // large inputs almost immediately. With the ceiling lifted to
        // u64::MAX the saturated product itself must survive.
        let uncapped = LaneConfig {
            max_cycles: u64::MAX,
            ..LaneConfig::default()
        };
        assert_eq!(uncapped.budget_for(usize::MAX), u64::MAX);
        // A wrapped multiply here would land far below min_cycle_budget.
        let huge = (u64::MAX / uncapped.cycles_per_byte) as usize + 1;
        assert_eq!(uncapped.budget_for(huge), u64::MAX);
        assert!(uncapped.budget_for(huge) >= uncapped.min_cycle_budget);
    }

    #[test]
    fn chaos_fault_hook_surfaces_as_typed_fault() {
        let r = Lane::run_program(
            &scanner(),
            &[b'a'; 64],
            &LaneConfig {
                chaos_fault_at: Some(10),
                ..cfg()
            },
        );
        assert!(
            matches!(
                r.status,
                LaneStatus::Fault(FaultKind::ChaosInjected { at_cycle }) if at_cycle >= 10
            ),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn report_action_records_positions() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(
            s,
            b'z' as u16,
            Target::State(s),
            vec![Action::imm(Opcode::Report, Reg::R0, Reg::R0, 3)],
        );
        b.fallback_arc(s, Target::State(s), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        let r = Lane::run_program(&img, b"azbz", &cfg());
        assert_eq!(r.reports, vec![(3, 2), (3, 4)]);
    }

    #[test]
    fn rate_is_bytes_per_cycle_scaled() {
        let r = Lane::run_program(&scanner(), b"aaaa", &cfg());
        // 8 cycles for 4 bytes at 1 GHz = 500 MB/s.
        assert!((r.rate_mbps(1.0) - 500.0).abs() < 1e-9);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use udp_asm::{LaneInit, LayoutStats, ProgramImage};
        use udp_isa::transition::ExecKind;

        /// A lane fed arbitrary garbage as a program must terminate with
        /// a status — never panic, never hang past the cycle cap.
        fn garbage_image(words: Vec<u32>, entry: u32, kind_sel: u8) -> ProgramImage {
            let kind = [
                ExecKind::Consume,
                ExecKind::Flagged,
                ExecKind::Pass,
                ExecKind::Halt,
            ][(kind_sel & 3) as usize];
            let span = words.len();
            ProgramImage {
                words,
                entry_base: entry % span.max(1) as u32,
                entry_kind: kind,
                init: LaneInit {
                    symbol_bits: (kind_sel % 8) + 1,
                    abase: 0,
                    ascale: kind_sel & 3,
                    wbase: 0,
                },
                state_bases: vec![],
                stats: LayoutStats {
                    span_words: span,
                    ..Default::default()
                },
                executable: true,
                cert: None,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn prop_garbage_programs_never_panic(
                words in proptest::collection::vec(any::<u32>(), 8..600),
                entry in any::<u32>(),
                kind_sel in any::<u8>(),
                input in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let img = garbage_image(words, entry, kind_sel);
                let rep = Lane::run_program(&img, &input, &LaneConfig {
                    max_cycles: 20_000,
                    ..Default::default()
                });
                prop_assert_ne!(rep.status, LaneStatus::Running);
            }
        }
    }
}
