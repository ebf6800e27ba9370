//! The tier-2 runtime: drives a live [`Lane`] through the compiled
//! dispatch tables, then hands the lane back to [`Lane::run`] — which
//! either assembles the final report from a terminal status or, after
//! a deoptimization, resumes interpreting from the exact architectural
//! state the compiled loop left. Every modeled counter (cycles,
//! dispatches, fallback misses, counted reads, the R13 symbol latch)
//! advances exactly as the interpreter would, so the reconstructed
//! report is bit-identical either way.

use super::{
    CachedBlock, CompiledProgram, FusedOp, PassPlan, BITEMIT_NONE, EXIT_NO_TRANSITION,
    PAYLOAD_MASK, TAG_EXIT, TAG_GENERAL, TAG_MISS,
};
use crate::error::FaultKind;
use crate::lane::{cap_status, CodeTables, Lane, LaneConfig, LaneReport, LaneStatus};
use crate::memory::LocalMemory;
use crate::stream::{BitStream, OutputSink};
use std::sync::Arc;
use udp_asm::idiom::EmitSpan;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_isa::action::Opcode;
use udp_isa::transition::{ExecKind, TransitionWord};

/// Where the compiled loop goes after one dispatch.
enum Next {
    /// Keep executing compiled code in this state.
    State(usize),
    /// The lane reached a terminal status.
    Stop,
    /// Hand the lane (still `Running`) back to the interpreter.
    Deopt,
}

/// Runs one chunk through the compiled backend. Falls back to plain
/// interpretation — before starting, or mid-run via deoptimization —
/// whenever the specialization preconditions stop holding; the final
/// report always comes out of [`Lane::run`]'s assembly, so the
/// semantics/timing split never forks the report shape.
pub(crate) fn run_compiled(
    cp: &CompiledProgram,
    lane: &mut Lane,
    mem: &mut LocalMemory,
    stream: &mut BitStream<'_>,
    out: &mut OutputSink,
    cfg: &LaneConfig,
) -> LaneReport {
    // Specialization preconditions: batched read credits need bank
    // tracking off, tables assume the verbatim image at origin 0 and
    // the compile-time window base. All hold on the pooled local-
    // addressing path; anything else just interprets.
    let dp = Arc::clone(&lane.decoded);
    if !mem.tracks_banks()
        && lane.code_clean
        && lane.origin == 0
        && lane.wbase == cp.wbase
        && lane.status == LaneStatus::Running
    {
        if let Some(start) = cp.lookup(lane.base, lane.kind) {
            let tables = CodeTables::of(&dp);
            Ctx {
                cp,
                lane,
                mem,
                stream,
                out,
                tables,
            }
            .run(start as usize, cfg);
        }
    }
    // Harvest: terminal status → immediate report assembly; Running
    // (deopt) → the interpreter continues from the live lane state.
    lane.run(mem, stream, out, cfg)
}

/// The mutable machinery one compiled run threads through dispatch
/// handling (bundled so the helpers have one receiver instead of six
/// parameters).
struct Ctx<'a, 'data> {
    cp: &'a CompiledProgram,
    lane: &'a mut Lane,
    mem: &'a mut LocalMemory,
    stream: &'a mut BitStream<'data>,
    out: &'a mut OutputSink,
    tables: CodeTables<'a>,
}

/// How the bit-burst loop ended.
enum BitExit {
    /// The folded cycle cap tripped before a consume dispatch.
    Cap,
    /// The cap tripped between the consume dispatch and the pass step
    /// of the decoder shape: the lane parks *at* the pass state (its
    /// flat base carried in the payload), exactly where the
    /// interpreter's per-dispatch cap check would leave it.
    MidCap(u32),
    /// The pass step's refill putback would underflow the stream
    /// (decoder shape): typed fault, lane parked at the pass state.
    Underflow {
        /// Flat base of the intermediate pass state.
        mid: u32,
        /// The refill bit count that did not fit.
        refill: u8,
    },
    /// Fewer than `sym_bits` bits left.
    Eof,
    /// This dispatch value has no fused entry: resolve it through the
    /// dense table (cap was already checked for this dispatch).
    NotFused,
    /// The successor state has no bit-table row at all: hand the state
    /// back to the outer machinery.
    Unfused,
}

/// How the burst loop ended.
enum BurstExit {
    /// The folded cycle cap tripped (budget or a chaos hook).
    Cap,
    /// The stream ran out of whole bytes.
    Eof,
    /// A non-trivial table entry; the symbol is not yet consumed.
    Entry(u32),
}

impl Ctx<'_, '_> {
    fn run(&mut self, mut st: usize, cfg: &LaneConfig) {
        // Same folded cap as the interpreter: the budget is derived
        // from the chunk length and shares one compare with the chaos
        // hooks; which limit fired is sorted out on the cold exit path.
        let budget = cfg.budget_for(self.stream.len_bits().div_ceil(8) as usize);
        let chaos_panic = cfg.chaos_panic_at.unwrap_or(u64::MAX);
        let chaos_fault = cfg.chaos_fault_at.unwrap_or(u64::MAX);
        let cap = budget.min(chaos_panic).min(chaos_fault);
        while self.lane.status == LaneStatus::Running {
            if self.lane.cycles >= cap {
                self.lane.status = cap_status(self.lane.cycles, budget, chaos_panic, chaos_fault);
                return;
            }
            let next = match self.cp.states[st].kind {
                ExecKind::Halt => {
                    self.lane.status = LaneStatus::Halted(0);
                    return;
                }
                ExecKind::Consume => self.consume(st, cap, budget, chaos_panic, chaos_fault),
                ExecKind::Flagged => {
                    let s = self.lane.regs[0] & 0xFF;
                    let e = self.cp.dense[st][s as usize];
                    self.entry(e, s, false)
                }
                ExecKind::Pass => self.pass(st),
            };
            match next {
                Next::State(i) => st = i,
                Next::Stop | Next::Deopt => return,
            }
        }
    }

    /// Runs consuming-state dispatches until the lane leaves the
    /// consuming world (terminal status, deopt, or a pass/flagged/halt
    /// successor). On the byte-aligned 8-bit fast path whole bursts of
    /// trivial dispatches run as an inner loop over the raw input
    /// slice — one load/compare per byte, counters credited in bulk —
    /// and action-carrying dispatches re-enter the burst directly
    /// instead of bouncing through the outer state machine.
    fn consume(
        &mut self,
        st: usize,
        cap: u64,
        budget: u64,
        chaos_panic: u64,
        chaos_fault: u64,
    ) -> Next {
        let mut st = st;
        loop {
            match self.consume_step(st, cap, budget, chaos_panic, chaos_fault) {
                Next::State(i) if self.cp.states[i].kind == ExecKind::Consume => {
                    // Same per-dispatch cap ordering as the outer loop.
                    if self.lane.cycles >= cap {
                        self.lane.status =
                            cap_status(self.lane.cycles, budget, chaos_panic, chaos_fault);
                        return Next::Stop;
                    }
                    st = i;
                }
                other => return other,
            }
        }
    }

    /// One consuming-state dispatch — or, on the fast path, bursts of
    /// trivial ones with action-carrying dispatches folded in between.
    /// A general entry's symbol consumption and dispatch charges ride
    /// the same bulk credit as the trivial bytes around it, so the hot
    /// csv shape (a dozen copy bytes, then a delimiter with an action
    /// block) never tears the burst down.
    fn consume_step(
        &mut self,
        st: usize,
        cap: u64,
        budget: u64,
        chaos_panic: u64,
        chaos_fault: u64,
    ) -> Next {
        let mut st = st;
        'setup: loop {
            if self.lane.sym_bits != 8
                || self.stream.bit_index() & 7 != 0
                || !self.cp.states[st].burstable
            {
                // The byte-burst below cannot run. The bit-burst loop
                // handles any alignment and any 1–8-bit symbol width,
                // as long as the state has a fused dispatch row and the
                // attach bases its blocks were resolved against hold.
                if self.cp.bit_tables[st].is_some()
                    && self.lane.abase == self.cp.abase
                    && self.lane.ascale == self.cp.ascale
                {
                    return self.bit_burst(st, cap, budget, chaos_panic, chaos_fault);
                }
                // Otherwise single-step (cap was checked by the caller,
                // matching the interpreter's order).
                let Some(s) = self.stream.read(self.lane.sym_bits) else {
                    self.lane.status = LaneStatus::InputExhausted;
                    return Next::Stop;
                };
                let e = self.cp.dense[st][s as usize];
                return self.entry(e, s, true);
            }
            let cp = self.cp;
            let data = self.stream.data();
            let mut pos = (self.stream.bit_index() >> 3) as usize;
            let mut cur = st;
            // Bulk-credit accumulators, flushed by `credit_burst`: the
            // input position the stream cursor actually sits at, the
            // live cycle count, and the fallback misses since the last
            // flush. Fully-inline general dispatches keep accumulating
            // across segments; everything else flushes first.
            let mut seg_start = pos;
            let mut cyc = self.lane.cycles;
            let mut misses = 0u64;
            // One iteration per burst segment: a run of trivial
            // dispatches ended by at most one general dispatch — run
            // inline when fully fused, through the synced interpreter
            // machinery otherwise — then the next segment continues
            // over the same input slice without re-entering the outer
            // state machine.
            loop {
                // A burst dispatch costs 1 cycle (hit) or 2 (miss), so when
                // the folded cap exceeds the worst case of the remaining
                // slice it cannot trip inside the loop and the per-byte
                // check is dead — which is the common case (the default
                // budget dwarfs chunk sizes) and keeps the hot loop at a
                // load/compare per byte.
                let exit = if cap - cyc > 2 * (data.len() - pos) as u64 {
                    let (p0, m0) = (pos, misses);
                    let mut hit_entry = None;
                    for &b in &data[pos..] {
                        let e = cp.dense[cur][usize::from(b)];
                        if e < TAG_MISS {
                            // Trivial signature hit: 1 cycle, 1 read.
                            cur = e as usize;
                        } else if e < TAG_GENERAL {
                            // Trivial fallback miss: surcharge cycle and read.
                            misses += 1;
                            cur = (e & PAYLOAD_MASK) as usize;
                        } else {
                            hit_entry = Some(e);
                            break;
                        }
                        pos += 1;
                    }
                    cyc += (pos - p0) as u64 + (misses - m0);
                    match hit_entry {
                        Some(e) => BurstExit::Entry(e),
                        None => BurstExit::Eof,
                    }
                } else {
                    loop {
                        // Exact interpreter ordering per dispatch: cap check,
                        // then the symbol read, then the table entry.
                        if cyc >= cap {
                            break BurstExit::Cap;
                        }
                        let Some(&b) = data.get(pos) else {
                            break BurstExit::Eof;
                        };
                        let e = cp.dense[cur][usize::from(b)];
                        if e < TAG_MISS {
                            pos += 1;
                            cyc += 1;
                            cur = e as usize;
                        } else if e < TAG_GENERAL {
                            pos += 1;
                            cyc += 2;
                            misses += 1;
                            cur = (e & PAYLOAD_MASK) as usize;
                        } else {
                            break BurstExit::Entry(e);
                        }
                    }
                };
                // A general entry is a dispatch like any other — fold its
                // symbol consumption and hit/miss charge into the burst's
                // bulk credit rather than re-reading the symbol bit-wise
                // and charging it field by field.
                let mut general = None;
                if let BurstExit::Entry(e) = exit {
                    if e < TAG_EXIT {
                        let ge = &cp.general[(e & PAYLOAD_MASK) as usize];
                        let miss = u64::from(ge.miss);
                        pos += 1;
                        cyc += 1 + miss;
                        misses += miss;
                        general = Some(ge);
                    }
                }
                // Fully-inline general dispatch: the whole block is one
                // fused emit-span that neither observes nor moves
                // anything the bulk credit defers, and its successor
                // bursts — so run it here and keep going over the same
                // slice with the sync still pending. Only the attach
                // bases need their dynamic check (a `SetABase` may have
                // run before this segment).
                if let Some(ge) = general {
                    if let Some(il) = &ge.inline {
                        if self.lane.abase == cp.abase && self.lane.ascale == cp.ascale {
                            match self.lane.run_emit_span_unsynced(
                                &il.f,
                                pos as u32,
                                self.mem,
                                self.stream,
                                self.out,
                            ) {
                                Some(dc) => {
                                    cyc += dc;
                                    // Same per-dispatch cap ordering as the
                                    // interpreter before the next dispatch.
                                    if cyc >= cap {
                                        self.credit_burst(data, seg_start, pos, cur, cyc, misses);
                                        self.lane.status =
                                            cap_status(cyc, budget, chaos_panic, chaos_fault);
                                        return Next::Stop;
                                    }
                                    cur = il.next;
                                    continue;
                                }
                                None => {
                                    // `LoopIn` length fault mid-block: three
                                    // actions architecturally ran (their
                                    // cycles are owed), the lane stops.
                                    cyc += EmitSpan::FAULT_CYCLES;
                                    self.credit_burst(data, seg_start, pos, cur, cyc, misses);
                                    return Next::Stop;
                                }
                            }
                        }
                    }
                }
                // Credit the burst in bulk: same totals the per-dispatch
                // bookkeeping would have accumulated, including the R13
                // latch of the last dispatched symbol and the stream
                // advance.
                self.credit_burst(data, seg_start, pos, cur, cyc, misses);
                if let Some(ge) = general {
                    match self.take(&ge.t, ge.next, ge.block.as_ref()) {
                        Next::State(i) if cp.states[i].kind == ExecKind::Consume => {
                            // The action block may have burned budget (or
                            // tripped a chaos hook): same per-dispatch cap
                            // ordering as the interpreter before going on.
                            if self.lane.cycles >= cap {
                                self.lane.status =
                                    cap_status(self.lane.cycles, budget, chaos_panic, chaos_fault);
                                return Next::Stop;
                            }
                            // Fast re-entry: the block left the cursor
                            // where the burst put it (byte-aligned, same
                            // position — no `SkipB`/`ReadBits` ran) and the
                            // successor can burst, so the next segment
                            // continues over the same slice directly.
                            if cp.states[i].burstable
                                && self.lane.sym_bits == 8
                                && self.stream.bit_index() == (pos as u64) << 3
                            {
                                cur = i;
                                seg_start = pos;
                                cyc = self.lane.cycles;
                                misses = 0;
                                continue;
                            }
                            st = i;
                            continue 'setup;
                        }
                        other => return other,
                    }
                }
                return match exit {
                    BurstExit::Cap => {
                        self.lane.status = cap_status(cyc, budget, chaos_panic, chaos_fault);
                        Next::Stop
                    }
                    BurstExit::Eof => {
                        self.lane.status = LaneStatus::InputExhausted;
                        Next::Stop
                    }
                    BurstExit::Entry(e) => {
                        // Only the rare exit entries (deopt, dead end) are
                        // left: consume the symbol the slow way and let
                        // `entry` put it back if the dispatch deoptimizes.
                        let Some(s) = self.stream.read(8) else {
                            self.lane.status = LaneStatus::InputExhausted;
                            return Next::Stop;
                        };
                        self.entry(e, s, true)
                    }
                };
            }
        }
    }

    /// Flushes the burst accumulators: the same totals the per-dispatch
    /// bookkeeping would have reached — cycle count, dispatch and
    /// fallback-miss counts, the batched read credits, the `R13` latch
    /// of the last dispatched symbol, the stream advance, and the
    /// lane's base register for the state the burst stands at.
    fn credit_burst(
        &mut self,
        data: &[u8],
        seg_start: usize,
        pos: usize,
        cur: usize,
        cyc: u64,
        misses: u64,
    ) {
        let consumed = pos - seg_start;
        let hits = consumed as u64 - misses;
        self.lane.cycles = cyc;
        self.lane.dispatches += hits + misses;
        self.lane.fallback_misses += misses;
        if consumed > 0 {
            self.mem.add_reads(hits + 2 * misses);
            self.lane.regs[13] = u32::from(data[pos - 1]);
            self.stream.skip_bytes(consumed as u32);
            self.lane.base = self.cp.states[cur].base;
        }
    }

    /// The "bit-burst" inner loop (DESIGN.md §2.6.4): runs fused
    /// action-per-symbol dispatches — any alignment, any 1–8-bit
    /// symbol — with the stream bit-cursor, the cycle count, and the
    /// output bit-accumulator all in locals, synced once at exit.
    /// Symbols come straight off the input slice via
    /// [`crate::stream::extract_bits`]; constant emit codes append to a
    /// local accumulator drained a whole word at a time. Every
    /// per-symbol charge replicates the interpreter exactly (see
    /// [`super::BitEmit`]), including the folded-cap re-check between
    /// the consume dispatch and the pass step of the decoder shape.
    fn bit_burst(
        &mut self,
        st: usize,
        cap: u64,
        budget: u64,
        chaos_panic: u64,
        chaos_fault: u64,
    ) -> Next {
        let cp = self.cp;
        let sym_bits = self.lane.sym_bits;
        let wsym = u64::from(sym_bits);
        let data = self.stream.data();
        let len_bits = self.stream.len_bits();
        let mut bitpos = self.stream.bit_index();
        let mut cur = st;
        // Deferred bookkeeping, synced in bulk at every exit: cycles
        // run live (the cap compares against them), the rest
        // accumulate as counts the totals derive from — every consume
        // dispatch, pass step and action is one counted read, a miss
        // one more. The R13 symbol latch is deferred as
        // (last_sym, syms) like the byte-burst's.
        let mut cyc = self.lane.cycles;
        let mut syms = 0u64;
        let mut passes = 0u64;
        let mut misses = 0u64;
        let mut acts = 0u64;
        let mut last_sym = 0u32;
        // The output's sub-byte pending bits move into a local 64-bit
        // accumulator. A record emits at most `MAX_RECORD_BITS`, so
        // draining to under a byte before any record that could
        // overflow keeps every record's bits in the word.
        let (mut acc, mut nacc) = self.out.take_pending();
        let exit = loop {
            let Some(tbl) = cp.bit_tables[cur].as_deref() else {
                break BitExit::Unfused;
            };
            // Exact interpreter ordering per dispatch: cap check, then
            // the symbol read, then the table entry.
            if cyc >= cap {
                break BitExit::Cap;
            }
            if len_bits - bitpos < wsym {
                break BitExit::Eof;
            }
            let s = crate::stream::extract_bits(data, bitpos, sym_bits);
            let ei = tbl[(s & 0xFF) as usize];
            if ei == BITEMIT_NONE {
                break BitExit::NotFused;
            }
            let e = &cp.bitemits[usize::from(ei)];
            bitpos += wsym;
            cyc += 1 + u64::from(e.miss);
            misses += u64::from(e.miss);
            last_sym = s;
            syms += 1;
            if let Some(mid) = e.pass_mid {
                // Decoder shape: the interpreter re-checks the folded
                // cap before the pass step, with the lane already moved
                // to the pass state.
                if cyc >= cap {
                    break BitExit::MidCap(mid);
                }
                cyc += 1;
                passes += 1;
                if u64::from(e.refill) > bitpos {
                    break BitExit::Underflow {
                        mid,
                        refill: e.refill,
                    };
                }
                bitpos -= u64::from(e.refill);
            }
            let b = e.block;
            if b.len > 0 {
                // Drain only when this record could overflow the
                // accumulator: whole bytes out, under a byte stays.
                if nacc + u32::from(b.out_bits) > 64 {
                    let rem = nacc & 7;
                    self.out
                        .extend_be_bytes(acc >> rem, ((nacc - rem) >> 3) as usize);
                    acc &= (1u64 << rem) - 1;
                    nacc = rem;
                }
                let regs = &mut self.lane.regs;
                regs[13] = s;
                let at = b.at as usize;
                for op in &cp.ops[at..at + usize::from(b.len)] {
                    run_op(
                        op,
                        regs,
                        self.mem,
                        &mut self.lane.accept,
                        &mut acc,
                        &mut nacc,
                    );
                }
            }
            cyc += u64::from(b.issue);
            acts += u64::from(b.nacts);
            cur = e.next as usize;
        };
        // Sync: same totals the per-dispatch bookkeeping would have
        // reached, the stream cursor at the deferred bit position, the
        // lane's base/kind at the state the burst stands at, and the
        // sub-byte remainder handed back to the sink.
        self.lane.cycles = cyc;
        self.lane.dispatches += syms + passes;
        self.lane.fallback_misses += misses;
        self.lane.actions_run += acts;
        self.mem.add_reads(syms + passes + misses + acts);
        if syms > 0 {
            self.lane.regs[13] = last_sym;
        }
        self.stream.set_bit_index(bitpos);
        self.lane.base = cp.states[cur].base;
        self.lane.kind = cp.states[cur].kind;
        let rem = nacc & 7;
        self.out
            .extend_be_bytes(acc >> rem, ((nacc - rem) >> 3) as usize);
        self.out.put_pending(acc & ((1u64 << rem) - 1), rem);
        match exit {
            BitExit::Cap => {
                self.lane.status = cap_status(cyc, budget, chaos_panic, chaos_fault);
                Next::Stop
            }
            BitExit::MidCap(mid) => {
                self.lane.base = mid;
                self.lane.kind = ExecKind::Pass;
                self.lane.status = cap_status(cyc, budget, chaos_panic, chaos_fault);
                Next::Stop
            }
            BitExit::Underflow { mid, refill } => {
                self.lane.base = mid;
                self.lane.kind = ExecKind::Pass;
                self.lane.status = LaneStatus::Fault(FaultKind::StreamUnderflow {
                    requested_bits: refill,
                    consumed_bits: bitpos,
                });
                Next::Stop
            }
            BitExit::Eof => {
                self.lane.status = LaneStatus::InputExhausted;
                Next::Stop
            }
            BitExit::Unfused => Next::State(cur),
            BitExit::NotFused => {
                // Cap was checked for this dispatch inside the loop;
                // consume the symbol the slow way (the stream cursor
                // sits exactly before it) and resolve it through the
                // dense table, which also handles deopt putback.
                let Some(s) = self.stream.read(sym_bits) else {
                    self.lane.status = LaneStatus::InputExhausted;
                    return Next::Stop;
                };
                let e = self.cp.dense[cur][s as usize];
                self.entry(e, s, true)
            }
        }
    }

    /// Applies one non-burst dense-table entry for dispatch value `s`.
    /// `consumed` says whether `s` came off the stream (and must be put
    /// back if this dispatch deoptimizes).
    fn entry(&mut self, e: u32, s: u32, consumed: bool) -> Next {
        if e < TAG_GENERAL {
            // Trivial hit or trivial-fallback miss: fully inlined.
            let miss = u64::from(e >= TAG_MISS);
            self.lane.cycles += 1 + miss;
            self.lane.dispatches += 1;
            self.lane.fallback_misses += miss;
            self.lane.regs[13] = s;
            self.mem.add_reads(1 + miss);
            let i = (e & PAYLOAD_MASK) as usize;
            self.lane.base = self.cp.states[i].base;
            self.lane.kind = ExecKind::Consume;
            Next::State(i)
        } else if e < TAG_EXIT {
            let cp = self.cp;
            let ge = &cp.general[(e & PAYLOAD_MASK) as usize];
            let miss = u64::from(ge.miss);
            self.lane.cycles += 1 + miss;
            self.lane.dispatches += 1;
            self.lane.fallback_misses += miss;
            self.lane.regs[13] = s;
            self.mem.add_reads(1 + miss);
            self.take(&ge.t, ge.next, ge.block.as_ref())
        } else if e == EXIT_NO_TRANSITION {
            // Signature miss, zero fallback word: miss surcharge, then
            // stop — exactly `dispatch_on`'s dead end.
            self.lane.cycles += 2;
            self.lane.dispatches += 1;
            self.lane.fallback_misses += 1;
            self.lane.regs[13] = s;
            self.mem.add_reads(2);
            self.lane.status = LaneStatus::NoTransition;
            Next::Stop
        } else {
            // EXIT_DEOPT: nothing charged yet — un-consume the symbol
            // so the interpreter redoes this dispatch itself.
            if consumed {
                self.stream.putback(self.lane.sym_bits);
            }
            Next::Deopt
        }
    }

    /// Takes a non-trivial transition — through the precompiled action
    /// block when one was cached and the attach bases still hold their
    /// compile-time values, through the interpreter's own `take()`
    /// otherwise — then re-resolves the compiled state, or deoptimizes
    /// when the action block broke a specialization invariant (dirty
    /// code span, retargeted window base, uncompiled successor).
    fn take(&mut self, t: &TransitionWord, hint: u32, block: Option<&CachedBlock>) -> Next {
        match block {
            Some(cb) if self.lane.abase == self.cp.abase && self.lane.ascale == self.cp.ascale => {
                // The cached mirror of `Lane::take`: run the block, then
                // halt or retarget — reading `wbase` only afterwards, so
                // a `SetBase` inside the block lands exactly as the
                // interpreter's ordering has it.
                self.lane.run_cached_block(
                    cb.flat,
                    &cb.acts,
                    cb.pure_code,
                    cb.fused.as_ref(),
                    self.mem,
                    self.stream,
                    self.out,
                    self.tables,
                );
                if self.lane.status != LaneStatus::Running {
                    return Next::Stop;
                }
                if t.kind() == ExecKind::Halt {
                    self.lane.status = LaneStatus::Halted(0);
                    return Next::Stop;
                }
                self.lane.base = self.lane.wbase + u32::from(t.target());
                self.lane.kind = t.kind();
            }
            _ => {
                self.lane
                    .take(t, self.mem, self.stream, self.out, self.tables);
                if self.lane.status != LaneStatus::Running {
                    return Next::Stop;
                }
            }
        }
        if !self.lane.code_clean || self.lane.wbase != self.cp.wbase {
            return Next::Deopt;
        }
        if hint != u32::MAX {
            return Next::State(hint as usize);
        }
        match self.cp.lookup(self.lane.base, self.lane.kind) {
            Some(i) => Next::State(i as usize),
            None => Next::Deopt,
        }
    }

    /// One pass-through dispatch from its precompiled plan.
    fn pass(&mut self, st: usize) -> Next {
        let Some(plan) = self.cp.states[st].pass.clone() else {
            return Next::Deopt;
        };
        match plan {
            PassPlan::Deopt => Next::Deopt,
            PassPlan::NoTransition => {
                self.charge_pass();
                self.lane.status = LaneStatus::NoTransition;
                Next::Stop
            }
            PassPlan::FaultChain => {
                self.charge_pass();
                self.lane.status = LaneStatus::Fault(FaultKind::Addressing {
                    context: "epsilon fork outside NFA mode",
                    value: u32::from(CHAIN_CONTINUE_SIGNATURE),
                });
                Next::Stop
            }
            PassPlan::FaultBadSig(other) => {
                self.charge_pass();
                self.lane.status = LaneStatus::Fault(FaultKind::Addressing {
                    context: "bad pass signature",
                    value: u32::from(other),
                });
                Next::Stop
            }
            PassPlan::Take { t, refill, next } => {
                self.charge_pass();
                if let Some(bits) = refill {
                    if u64::from(bits) > self.stream.bit_index() {
                        self.lane.status = LaneStatus::Fault(FaultKind::StreamUnderflow {
                            requested_bits: bits,
                            consumed_bits: self.stream.bit_index(),
                        });
                        return Next::Stop;
                    }
                    self.stream.putback(bits);
                }
                self.take(&t, next, None)
            }
        }
    }

    /// The fixed cost of a pass-state dispatch: one cycle, one
    /// dispatch, one counted fallback-slot read.
    fn charge_pass(&mut self) {
        self.lane.cycles += 1;
        self.lane.dispatches += 1;
        self.mem.add_reads(1);
    }
}

/// [`Opcode::eval`] over `u32`, kept out of line: inlined into
/// [`run_op`], its opcode switch slowed the bit-burst loop even on
/// records that run no register op (bitpack-enc-w4 lost 18–24%).
#[inline(never)]
fn eval_u32(op: Opcode, d: u32, sv: u32, rv: u32, imm: u16, imm1: u8) -> u32 {
    op.eval(d, sv, rv, imm, imm1)
}

/// Runs one lowered op of a fused record on the lane's registers, its
/// memory and accept flag, with the output in the burst's accumulator
/// `(acc, nacc)`. The caller has made room for the record's worst-case
/// bits, and the burst runs at origin 0, so memory addresses are the
/// register values themselves.
#[inline]
fn run_op(
    op: &FusedOp,
    regs: &mut [u32; 16],
    mem: &mut LocalMemory,
    accept: &mut bool,
    acc: &mut u64,
    nacc: &mut u32,
) {
    // `EmitB`/`EmitW` semantics: zero-pad the pending bits to a byte
    // boundary first.
    let pad = |acc: &mut u64, nacc: &mut u32| {
        let pad = (8 - (*nacc & 7)) & 7;
        *acc <<= pad;
        *nacc += pad;
    };
    let r = |i: u8| usize::from(i & 15);
    match *op {
        FusedOp::Bits { code, len } => {
            *acc = (*acc << len) | code;
            *nacc += u32::from(len);
        }
        FusedOp::EmitBits { src, w } => {
            let v = regs[r(src)] & ((1u32 << w) - 1);
            *acc = (*acc << w) | u64::from(v);
            *nacc += u32::from(w);
        }
        FusedOp::EmitB { src, imm } => {
            pad(acc, nacc);
            let b = regs[r(src)].wrapping_add(imm) as u8;
            *acc = (*acc << 8) | u64::from(b);
            *nacc += 8;
        }
        FusedOp::EmitW { src } => {
            pad(acc, nacc);
            *acc = (*acc << 32) | u64::from(regs[r(src)].swap_bytes());
            *nacc += 32;
        }
        FusedOp::Set { dst, v } => regs[r(dst)] = v,
        FusedOp::Load {
            byte,
            dst,
            src,
            off,
        } => {
            let addr = regs[r(src)].wrapping_add(off);
            regs[r(dst)] = if byte {
                u32::from(mem.read_byte(addr))
            } else {
                mem.read_word(addr / 4)
            };
        }
        FusedOp::Accept(on) => *accept = on,
        FusedOp::Alu {
            op,
            dst,
            src,
            rref,
            imm,
            imm1,
        } => {
            regs[r(dst)] = eval_u32(op, regs[r(dst)], regs[r(src)], regs[r(rref)], imm, imm1);
        }
    }
}
