//! Tier-2 compiled execution backend (DESIGN.md §2.6.3).
//!
//! The interpreter in `lane.rs` re-checks per symbol what is actually a
//! per-*program* property: which dispatch slots of a state hit, whether
//! the taken transition carries actions, and where it lands. This
//! module lowers a verified, predecoded program into specialized
//! per-state dispatch tables once per `PreparedKernel`, on its first
//! compiled run:
//!
//! * every reachable `(state base, exec kind)` pair discovered by a
//!   breadth-first walk of the transition graph becomes one compiled
//!   state with a dense 256-entry table of packed [`u32`] entries
//!   (symbols are at most 8 bits, so the table covers every possible
//!   dispatch value);
//! * "trivial" transitions — a signature hit with no attached actions
//!   landing in another compiled state — are encoded as a single table
//!   word carrying the successor index, so the inner loop is a
//!   load/compare/increment per input byte (`TAG_HIT`), with the same
//!   direct-threaded shape for trivial fallback misses (`TAG_MISS`);
//! * everything else (attached action blocks, pass states, slots whose
//!   words live outside the verbatim image span) routes to side tables
//!   that re-enter the interpreter's own `take()` machinery, or forces
//!   a deoptimization back to the interpreter mid-run.
//!
//! ## The semantics/timing split and the report invariant
//!
//! The compiled runner produces output bytes plus the same compact
//! counters the interpreter keeps (cycles, dispatches, fallback misses,
//! batched read credits); the full [`crate::lane::LaneReport`] is then
//! reconstructed by handing the lane object back to
//! [`crate::lane::Lane::run`], which either assembles the report from a
//! terminal status immediately or — after a deoptimization — resumes
//! interpreting from the exact architectural state the compiled loop
//! left. Either way the resulting [`crate::engine::UdpRunReport`] is
//! bit-identical to an all-interpreter run; the interpreter remains the
//! permanent differential oracle (the backend-matrix CI step and the
//! `backend_oracle` suite hold the two paths equal over the whole
//! compiler corpus, fault injection included).
//!
//! ## Soundness of compile-time specialization
//!
//! Tables are derived from `image.words`, which while the lane's
//! pristine-code flag holds is verbatim what fetches would read (the
//! same invariant the interpreter's predecoded fast path relies on).
//! Every escape hatch from that world deoptimizes: a write into the
//! code span clears the flag (checked after every action block), a
//! `SetBase` retargeting the window base invalidates precomputed
//! successor bases (checked the same way), and dispatch slots past the
//! image span — whose runtime contents are data, not code — compile to
//! [`EXIT_DEOPT`] entries. Deoptimization is always correct and merely
//! slow: the interpreter continues from the live lane state.

mod exec;

pub(crate) use exec::run_compiled;

use crate::lane::{EmitSpan, BLOCK_CAP, EMIT_SPAN_LEN};
use std::collections::HashMap;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_asm::{DecodedProgram, ProgramImage};
use udp_isa::action::{Action, Opcode};
use udp_isa::transition::{ExecKind, TransitionWord, FALLBACK_SIGNATURE};

/// Packed dense-table entry layout: the top two bits select the entry
/// class, the low 30 bits carry the payload (a compiled-state index or
/// a side-table index).
pub(crate) const TAG_SHIFT: u32 = 30;
pub(crate) const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
/// Signature hit, no actions, consuming successor: payload is the next
/// compiled-state index. Encoded as tag 0 so the burst loop's hit test
/// is a single compare against [`TAG_MISS`].
pub(crate) const TAG_HIT: u32 = 0 << TAG_SHIFT;
/// Signature miss whose fallback is trivial: payload is the next
/// compiled-state index; costs the miss surcharge (one extra cycle,
/// one extra read, one fallback-miss count).
pub(crate) const TAG_MISS: u32 = 1 << TAG_SHIFT;
/// Anything that runs the interpreter's `take()`: payload indexes
/// [`CompiledProgram::general`].
pub(crate) const TAG_GENERAL: u32 = 2 << TAG_SHIFT;
/// Terminal or unspecializable entries; payload selects which.
pub(crate) const TAG_EXIT: u32 = 3 << TAG_SHIFT;
/// The dispatch cannot be resolved from the verbatim image (slot or
/// fallback slot outside the span): undo the symbol read and hand the
/// lane back to the interpreter.
pub(crate) const EXIT_DEOPT: u32 = TAG_EXIT;
/// Signature miss with an absent (zero) fallback word: the lane stops
/// with `LaneStatus::NoTransition` after the miss surcharge.
pub(crate) const EXIT_NO_TRANSITION: u32 = TAG_EXIT | 1;

/// Upper bound on compiled states; programs whose reachable state set
/// exceeds it (degenerate hand-built images, not real kernels) fall
/// back to the interpreter outright.
const MAX_STATES: usize = 4096;

/// Why [`CompiledProgram::compile`] refused to specialize a program.
/// The stable reason strings surface in `hostperf --json` as the
/// `compiled_declined` column, so the bench trajectory records *why* a
/// kernel ran at interpreter parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decline {
    /// The image is not marked executable (failed verification).
    NotExecutable,
    /// Symbol width beyond the 8-bit dense-table coverage.
    WideSymbols,
    /// The reachable state set exceeded [`MAX_STATES`].
    StateExplosion,
    /// The general side table overflowed the packed payload bits.
    TableOverflow,
    /// No state has a trivial arc the byte-burst loop could chew or a
    /// fusable action-per-symbol arc for the bit-burst loop: nothing
    /// to specialize, the interpreter is already optimal.
    NoFusableArcs,
}

impl Decline {
    /// Stable snake-case reason string.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            Decline::NotExecutable => "not-executable",
            Decline::WideSymbols => "symbol-width-exceeds-dense-tables",
            Decline::StateExplosion => "state-count-exceeds-cap",
            Decline::TableOverflow => "dispatch-table-overflow",
            Decline::NoFusableArcs => "no-fusable-arcs",
        }
    }
}

/// Why the tier-2 compiled backend declines to specialize `image`, as
/// a stable reason string — `None` when it compiles. Diagnostic-only
/// (re-runs the compile pipeline; runs use the tables their
/// `PreparedKernel` keeps).
pub(crate) fn decline_reason(image: &ProgramImage) -> Option<&'static str> {
    let decoded = image.predecode();
    CompiledProgram::compile(image, &decoded)
        .err()
        .map(Decline::reason)
}

/// Sentinel bit-table entry: this dispatch value is not fused —
/// leave the bit-burst loop and resolve it through the dense table.
pub(crate) const BITEMIT_NONE: u16 = u16::MAX;

/// One fused action-per-symbol dispatch — a bit-table entry the
/// "bit-burst" inner loop (DESIGN.md §2.6.4) runs without leaving its
/// locals. Two recognized shapes, plus the trivial hit/miss arcs so a
/// mixed state keeps bursting:
///
/// * **encoder** (`recognize_bitemit`): a consume arc whose block is
///   ≤ 2 constant `MovI rd; EmitBits rd` pairs, optionally ending in
///   one `EmitB` — folded at compile time to ≤ 32 constant output bits
///   plus an optional dynamic byte;
/// * **decoder**: an action-less consume arc into a pass state whose
///   plan putback-refills and takes a single-`EmitB` block back to a
///   consuming state (the Huffman `SsRef` leaf→emit→root walk).
///
/// Per-symbol charges replicate the interpreter exactly, including the
/// folded-cap re-check *between* the consume dispatch and the pass
/// step of the decoder shape (`pass_mid`).
#[derive(Debug, Clone)]
pub(crate) struct BitEmit {
    /// Constant output bits (MSB-first), folded from the block's
    /// `MovI`/`EmitBits` pairs; `len == 0` when none.
    pub(crate) code: u32,
    pub(crate) len: u8,
    /// This entry sits behind a signature miss: one surcharge cycle
    /// and read, one fallback-miss count.
    pub(crate) miss: bool,
    /// Trailing dynamic `EmitB src, imm`: align the output to a byte
    /// (zero-padded), then append `regs[src] + imm`. The recognizer
    /// excludes `R13`/`R15` sources so the burst's deferred symbol
    /// latch and stream cursor stay invisible.
    pub(crate) dyn_byte: Option<(u8, u16)>,
    /// Decoder shape: flat base of the intermediate pass state. The
    /// interpreter re-checks the folded cap between the consume
    /// dispatch and the pass step, so the burst must too — and on a
    /// trip, park the lane *at* the pass state.
    pub(crate) pass_mid: Option<u32>,
    /// Bits put back by the pass plan's refill signature (decoder
    /// shape; 0 otherwise).
    pub(crate) refill: u8,
    /// Final register writes of the fused block (≤ 2), applied per
    /// symbol. `R13`/`R15` excluded by the recognizer.
    pub(crate) writes: [(u8, u32); 2],
    pub(crate) nwrites: u8,
    /// Actions in the fused block: each costs 1 cycle, 1 counted code
    /// read, 1 `actions_run`.
    pub(crate) nacts: u8,
    /// Compiled successor — statically a consuming state.
    pub(crate) next: u32,
}

/// What `recognize_bitemit` extracts from a fusable block.
struct BitEmitShape {
    code: u32,
    len: u8,
    writes: [(u8, u32); 2],
    nwrites: u8,
    dyn_byte: Option<(u8, u16)>,
}

/// Recognizes the action-per-symbol emit idiom: a sequence of ≤ 2
/// `MovI rd, imm; EmitBits rd, w` constant pairs (folded into one
/// ≤ 32-bit code), optionally ending in a single `EmitB src, imm`
/// (kept dynamic — it reads `src` live). Any register the block
/// touches must be neither `R13` (the burst defers the symbol latch)
/// nor `R15` (reads the deferred stream cursor). Mirrored by the
/// verifier's `fused_bitemit_blocks` certification count.
fn recognize_bitemit(acts: &[Action]) -> Option<BitEmitShape> {
    let mut code: u64 = 0;
    let mut len: u32 = 0;
    let mut writes: Vec<(u8, u32)> = Vec::new();
    let mut i = 0;
    let banned = |r: udp_isa::Reg| r == udp_isa::Reg::R13 || r == udp_isa::Reg::R15;
    while i < acts.len() {
        let a = &acts[i];
        if a.op == Opcode::MovI && i + 1 < acts.len() {
            let e = &acts[i + 1];
            if e.op != Opcode::EmitBits || e.src != a.dst || banned(a.dst) {
                return None;
            }
            let w = u32::from(e.imm1.clamp(1, 16));
            code = (code << w) | u64::from(u32::from(a.imm) & ((1u32 << w) - 1));
            len += w;
            writes.retain(|&(r, _)| r != a.dst.index());
            writes.push((a.dst.index(), u32::from(a.imm)));
            if writes.len() > 2 || len > 32 {
                return None;
            }
            i += 2;
        } else if a.op == Opcode::EmitB && i + 1 == acts.len() && !banned(a.src) {
            let mut ws = [(0u8, 0u32); 2];
            for (slot, &w) in ws.iter_mut().zip(&writes) {
                *slot = w;
            }
            return Some(BitEmitShape {
                code: code as u32,
                len: len as u8,
                writes: ws,
                nwrites: writes.len() as u8,
                dyn_byte: Some((a.src.index(), a.imm)),
            });
        } else {
            return None;
        }
    }
    if len == 0 {
        return None;
    }
    let mut ws = [(0u8, 0u32); 2];
    for (slot, &w) in ws.iter_mut().zip(&writes) {
        *slot = w;
    }
    Some(BitEmitShape {
        code: code as u32,
        len: len as u8,
        writes: ws,
        nwrites: writes.len() as u8,
        dyn_byte: None,
    })
}

/// A non-trivial taken transition: enough to re-enter the interpreter's
/// `take()` with exactly the bookkeeping the dispatch would have done.
#[derive(Debug, Clone)]
pub(crate) struct GeneralEntry {
    /// The decoded transition to take.
    pub(crate) t: TransitionWord,
    /// True when this entry sits behind a signature miss (fallback
    /// taken): one extra cycle, one extra counted read, one
    /// fallback-miss count.
    pub(crate) miss: bool,
    /// Precomputed successor state index (valid while the window base
    /// register still matches the compile-time value), or `u32::MAX`
    /// when the transition halts.
    pub(crate) next: u32,
    /// The transition's action block, resolved and decoded at compile
    /// time. Valid while the lane's attach bases still hold the
    /// image-init values (checked at dispatch) and the code span is
    /// pristine (monitored inside the cached run). `None` when the
    /// block cannot be specialized — dynamic-walk ops
    /// (`SkipIfZ`/`SkipIfNz`), an undecodable word, or a walk off the
    /// predecoded span — in which case the interpreter's decode-on-read
    /// `take()` runs instead.
    pub(crate) block: Option<CachedBlock>,
    /// Present when the whole transition collapses to one fused
    /// emit-span the burst loop can run in place — without syncing the
    /// stream cursor or tearing the segment down (see [`InlineFused`]).
    pub(crate) inline: Option<InlineFused>,
}

/// A general entry whose action block is exactly one fused
/// [`EmitSpan`] and whose successor re-enters the burst loop: the
/// block reads nothing the burst defers (stream cursor, the `R13`
/// symbol latch, cycle counters) and writes nothing the specialization
/// depends on (window/attach bases, the code span, symbol width), so
/// the segment loop runs it inline between trivial bytes. The attach
/// bases are still checked at dispatch, like every cached block.
#[derive(Debug, Clone)]
pub(crate) struct InlineFused {
    /// The fused prefix (here: the whole block).
    pub(crate) f: EmitSpan,
    /// Successor state index — statically a burstable consuming state.
    pub(crate) next: usize,
}

/// A compile-time-resolved action block (see [`GeneralEntry::block`]).
#[derive(Debug, Clone)]
pub(crate) struct CachedBlock {
    /// Flat word address the block lives at (origin 0).
    pub(crate) flat: u32,
    /// The decoded actions, through the `last` marker inclusive.
    pub(crate) acts: Box<[Action]>,
    /// True when no action in the block can write local memory
    /// (`StoreW`/`StoreB`/`BumpW`/`LoopCpy`), so the pristine-code flag
    /// cannot drop mid-block and the per-action re-validation is dead.
    pub(crate) pure_code: bool,
    /// Fused span-emit prefix when the block opens with the
    /// `InIdx; Sub; LoopIn; EmitB; InIdx` idiom (see [`EmitSpan`]).
    pub(crate) fused: Option<EmitSpan>,
}

/// A pass-through state's fallback word, pre-resolved at compile time.
#[derive(Debug, Clone)]
pub(crate) enum PassPlan {
    /// Fallback slot outside the verbatim image: deoptimize before
    /// charging anything.
    Deopt,
    /// Zero fallback word: `NoTransition` after the dispatch charge.
    NoTransition,
    /// `CHAIN_CONTINUE_SIGNATURE` outside NFA mode: typed fault.
    FaultChain,
    /// A signature that is neither a refill count, the fallback marker,
    /// nor the chain marker: typed fault carrying the signature.
    FaultBadSig(u8),
    /// Take the transition; `refill` bits are put back first when
    /// `Some` (with the stream-underflow check), `None` for the plain
    /// `FALLBACK_SIGNATURE` form.
    Take {
        /// The decoded fallback transition.
        t: TransitionWord,
        /// Bits to put back before taking (refill transition).
        refill: Option<u8>,
        /// Precomputed successor state index, or `u32::MAX`.
        next: u32,
    },
}

/// One compiled dispatch state.
#[derive(Debug, Clone)]
pub(crate) struct StateInfo {
    /// Flat base address of the state's slot block (origin 0).
    pub(crate) base: u32,
    /// How the state sources its dispatch value.
    pub(crate) kind: ExecKind,
    /// True when the state's dense row contains at least one trivial
    /// (packed hit/miss) entry, i.e. entering the burst loop here can
    /// actually make progress. Action-per-symbol states (every arc
    /// carries an action block) skip straight to single-step dispatch
    /// instead of paying the burst setup for an immediate exit.
    pub(crate) burstable: bool,
    /// For `Pass` states: the precompiled fallback plan.
    pub(crate) pass: Option<PassPlan>,
}

/// A program specialized for tier-2 execution: per-state dense dispatch
/// tables plus side tables, produced once at load time by
/// [`CompiledProgram::compile`] and shared read-only by every lane of
/// the run.
#[derive(Debug)]
pub(crate) struct CompiledProgram {
    pub(crate) states: Vec<StateInfo>,
    /// One packed 256-entry row per state, indexed directly by the
    /// dispatch value (rows keep the hot lookup at a single
    /// row-bounds check — the byte index into a fixed-size array needs
    /// none).
    pub(crate) dense: Vec<[u32; 256]>,
    pub(crate) general: Vec<GeneralEntry>,
    /// Per-state bit-burst dispatch rows (parallel to `states`):
    /// indexes into `bitemits`, [`BITEMIT_NONE`] for unfused values.
    /// `None` for states the bit-burst loop never enters (non-consume
    /// kinds, or rows with nothing it could run).
    pub(crate) bit_tables: Vec<Option<Box<[u16; 256]>>>,
    pub(crate) bitemits: Vec<BitEmit>,
    /// `(flat base, kind code)` → state index, for re-resolving the
    /// current state after an action block moved the lane somewhere a
    /// precomputed successor hint does not cover.
    index: HashMap<(u32, u8), u32>,
    /// The window base register value the tables were specialized
    /// against; a lane whose `wbase` diverges (a `SetBase` action ran)
    /// must deoptimize.
    pub(crate) wbase: u32,
    /// Image-init attach base the cached action blocks were resolved
    /// against; a lane whose `abase` diverges runs blocks through the
    /// interpreter's `take()` instead.
    pub(crate) abase: u32,
    /// Image-init attach scale, same caveat as `abase`.
    pub(crate) ascale: u8,
}

/// Stable small integer for an [`ExecKind`] (index-map key).
pub(crate) fn kind_code(k: ExecKind) -> u8 {
    match k {
        ExecKind::Consume => 0,
        ExecKind::Flagged => 1,
        ExecKind::Pass => 2,
        ExecKind::Halt => 3,
    }
}

/// Is this taken transition trivial — no attached actions and a
/// consuming successor — so the whole dispatch can be one packed table
/// word? (The exact condition of the interpreter's tight loop.)
fn is_trivial(t: &TransitionWord) -> bool {
    t.attach() == 0 && t.kind() == ExecKind::Consume
}

/// Resolves and decodes `t`'s action block against the image-init
/// attach bases. The walk mirrors `run_action_block`'s addressing
/// (strictly linear, `last` terminates) and bails to `None` — meaning
/// "run this block decode-on-read" — on anything it cannot prove
/// static: skip ops make the walk data-dependent, a `None` table slot
/// is an undecodable word the runtime must fault on itself, and a walk
/// off the predecoded span would read live memory.
fn cache_block(
    decoded: &DecodedProgram,
    t: &TransitionWord,
    abase: u32,
    ascale: u8,
    try_fuse: bool,
) -> Option<CachedBlock> {
    let flat = t.action_addr(abase, ascale)?;
    let table = decoded.actions();
    let mut block = Vec::new();
    let mut addr = flat as usize;
    loop {
        if block.len() >= BLOCK_CAP {
            return None;
        }
        let &(_, a) = table.get(addr)?;
        let a = a?;
        if matches!(a.op, Opcode::SkipIfZ | Opcode::SkipIfNz) {
            return None;
        }
        let last = a.last;
        block.push(a);
        if last {
            let pure_code = !block.iter().any(|a| {
                matches!(
                    a.op,
                    Opcode::StoreW | Opcode::StoreB | Opcode::BumpW | Opcode::LoopCpy
                )
            });
            let fused = if try_fuse {
                EmitSpan::recognize(&block)
            } else {
                None
            };
            return Some(CachedBlock {
                flat,
                acts: block.into_boxed_slice(),
                pure_code,
                fused,
            });
        }
        addr += 1;
    }
}

/// Decides [`GeneralEntry::inline`] eligibility (see [`InlineFused`]).
fn inline_fused(ge: &GeneralEntry, states: &[StateInfo]) -> Option<InlineFused> {
    let cb = ge.block.as_ref()?;
    let f = cb.fused.as_ref()?;
    if cb.acts.len() != EMIT_SPAN_LEN || f.touches_r13() {
        return None;
    }
    let next = usize::try_from(ge.next)
        .ok()
        .filter(|&i| i < states.len())?;
    let si = &states[next];
    (si.kind == ExecKind::Consume && si.burstable).then(|| InlineFused { f: f.clone(), next })
}

/// Tries to fuse one general dispatch into a [`BitEmit`]: the encoder
/// shape (the arc's own cached block matches `recognize_bitemit` and
/// lands in a consuming state) or the decoder shape (an action-less
/// arc into a pass state whose precompiled plan refill-putbacks and
/// takes a single-`EmitB` block back to a consuming state). `None`
/// leaves the dispatch to the dense-table machinery.
fn bitemit_entry(
    ge: &GeneralEntry,
    states: &[StateInfo],
    decoded: &DecodedProgram,
    abase: u32,
    ascale: u8,
) -> Option<BitEmit> {
    let next_consume = |i: u32| {
        usize::try_from(i)
            .ok()
            .filter(|&i| i < states.len() && states[i].kind == ExecKind::Consume)
    };
    if let Some(cb) = &ge.block {
        // Encoder shape. A span-fused block has its own inline path.
        if cb.fused.is_some() {
            return None;
        }
        let next = next_consume(ge.next)?;
        let sh = recognize_bitemit(&cb.acts)?;
        return Some(BitEmit {
            code: sh.code,
            len: sh.len,
            miss: ge.miss,
            dyn_byte: sh.dyn_byte,
            pass_mid: None,
            refill: 0,
            writes: sh.writes,
            nwrites: sh.nwrites,
            nacts: cb.acts.len() as u8,
            next: next as u32,
        });
    }
    // Decoder shape: hop through a pass state.
    if ge.t.attach() != 0 || ge.t.kind() != ExecKind::Pass {
        return None;
    }
    let pi = usize::try_from(ge.next)
        .ok()
        .filter(|&i| i < states.len())?;
    let ps = &states[pi];
    if ps.kind != ExecKind::Pass {
        return None;
    }
    let Some(PassPlan::Take {
        t: t2,
        refill,
        next: n2,
    }) = &ps.pass
    else {
        return None;
    };
    if t2.kind() != ExecKind::Consume {
        return None;
    }
    let next = next_consume(*n2)?;
    let cb2 = cache_block(decoded, t2, abase, ascale, false)?;
    let [a] = &cb2.acts[..] else {
        return None;
    };
    if a.op != Opcode::EmitB || a.src == udp_isa::Reg::R13 || a.src == udp_isa::Reg::R15 {
        return None;
    }
    Some(BitEmit {
        code: 0,
        len: 0,
        miss: ge.miss,
        dyn_byte: Some((a.src.index(), a.imm)),
        pass_mid: Some(ps.base),
        refill: refill.unwrap_or(0),
        writes: [(0, 0); 2],
        nwrites: 0,
        nacts: 1,
        next: next as u32,
    })
}

impl CompiledProgram {
    /// Specializes `image` (with its predecoded view) for tier-2
    /// execution at window origin 0 — the layout every pooled lane
    /// runs at. Returns a [`Decline`] when the program cannot (or
    /// should not) be specialized — symbol width beyond the 8-bit
    /// dense-table coverage, a degenerate state explosion, or nothing
    /// either burst loop could run; the caller then just interprets.
    pub(crate) fn compile(image: &ProgramImage, decoded: &DecodedProgram) -> Result<Self, Decline> {
        if !image.executable {
            return Err(Decline::NotExecutable);
        }
        if image.init.symbol_bits > 8 {
            return Err(Decline::WideSymbols);
        }
        let span = image.words.len().min(decoded.transitions().len());
        let wbase = image.init.wbase;
        let (abase, ascale) = (image.init.abase, image.init.ascale);
        // The verifier's certificate counts reachable blocks matching
        // the EmitSpan shape; when it proves there are none, skip the
        // per-block recognizer entirely — its preconditions were
        // already discharged statically. Same gate for the bit-emit
        // (action-per-symbol) recognizer.
        let try_fuse = image.cert.as_ref().is_none_or(|c| c.fused_span_blocks > 0);
        let try_bitemit = image
            .cert
            .as_ref()
            .is_none_or(|c| c.fused_bitemit_blocks > 0);

        // Pass 1: discover the reachable (base, kind) state set.
        let mut index: HashMap<(u32, u8), u32> = HashMap::new();
        let mut states: Vec<StateInfo> = Vec::new();
        let mut queue: Vec<usize> = Vec::new();
        let intern = |states: &mut Vec<StateInfo>,
                      queue: &mut Vec<usize>,
                      index: &mut HashMap<(u32, u8), u32>,
                      base: u32,
                      kind: ExecKind|
         -> u32 {
            *index.entry((base, kind_code(kind))).or_insert_with(|| {
                let idx = states.len() as u32;
                states.push(StateInfo {
                    base,
                    kind,
                    burstable: false,
                    pass: None,
                });
                queue.push(idx as usize);
                idx
            })
        };
        intern(
            &mut states,
            &mut queue,
            &mut index,
            image.entry_base,
            image.entry_kind,
        );
        let mut head = 0usize;
        while head < queue.len() {
            if states.len() > MAX_STATES {
                return Err(Decline::StateExplosion);
            }
            let st = queue[head];
            head += 1;
            let (base, kind) = (states[st].base, states[st].kind);
            let succ = |states: &mut Vec<StateInfo>,
                        queue: &mut Vec<usize>,
                        index: &mut HashMap<(u32, u8), u32>,
                        t: &TransitionWord| {
                if t.kind() != ExecKind::Halt {
                    intern(
                        states,
                        queue,
                        index,
                        wbase.wrapping_add(u32::from(t.target())),
                        t.kind(),
                    );
                }
            };
            match kind {
                ExecKind::Halt => {}
                ExecKind::Pass => {
                    if let Some(t) = pass_transition(image, decoded, span, base) {
                        succ(&mut states, &mut queue, &mut index, &t);
                    }
                }
                ExecKind::Consume | ExecKind::Flagged => {
                    for s in 0u32..256 {
                        let (hit_t, fb_t) = slot_transitions(image, decoded, span, base, s);
                        if let Some(t) = hit_t {
                            succ(&mut states, &mut queue, &mut index, &t);
                        } else if let Some(t) = fb_t {
                            succ(&mut states, &mut queue, &mut index, &t);
                        }
                    }
                }
            }
        }

        // Pass 2: every state index is now known; fill the tables.
        let n = states.len();
        let mut dense = vec![[EXIT_DEOPT; 256]; n];
        let mut general: Vec<GeneralEntry> = Vec::new();
        let resolve = |t: &TransitionWord| -> u32 {
            if t.kind() == ExecKind::Halt {
                return u32::MAX;
            }
            let key = (
                wbase.wrapping_add(u32::from(t.target())),
                kind_code(t.kind()),
            );
            index.get(&key).copied().unwrap_or(u32::MAX)
        };
        for st in 0..n {
            let (base, kind) = (states[st].base, states[st].kind);
            match kind {
                ExecKind::Halt => {}
                ExecKind::Pass => {
                    states[st].pass = Some(pass_plan(image, decoded, span, base, &resolve));
                }
                ExecKind::Consume | ExecKind::Flagged => {
                    // Every signature miss of a state takes the same
                    // fallback word, so its general entry is built once
                    // and shared by all the state's missing symbols.
                    let mut fallback_entry = None;
                    for s in 0u32..256 {
                        let (hit_t, fb_t) = slot_transitions(image, decoded, span, base, s);
                        let entry = match (hit_t, fb_t) {
                            (Some(t), _) => {
                                let next = resolve(&t);
                                if is_trivial(&t) && next != u32::MAX {
                                    TAG_HIT | next
                                } else {
                                    let g = general.len() as u32;
                                    let block = cache_block(decoded, &t, abase, ascale, try_fuse);
                                    general.push(GeneralEntry {
                                        t,
                                        miss: false,
                                        next,
                                        block,
                                        inline: None,
                                    });
                                    TAG_GENERAL | g
                                }
                            }
                            (None, Some(t)) => {
                                let next = resolve(&t);
                                if is_trivial(&t) && next != u32::MAX {
                                    TAG_MISS | next
                                } else {
                                    let g = *fallback_entry.get_or_insert_with(|| {
                                        let block =
                                            cache_block(decoded, &t, abase, ascale, try_fuse);
                                        general.push(GeneralEntry {
                                            t,
                                            miss: true,
                                            next,
                                            block,
                                            inline: None,
                                        });
                                        general.len() as u32 - 1
                                    });
                                    TAG_GENERAL | g
                                }
                            }
                            (None, None) => {
                                // Distinguish "absent fallback word"
                                // (NoTransition) from "slot outside the
                                // verbatim image" (deopt).
                                let slot = u64::from(base) + u64::from(s);
                                let fb = u64::from(base) + u64::from(udp_isa::FALLBACK_SLOT);
                                if slot < span as u64 && fb < span as u64 {
                                    EXIT_NO_TRANSITION
                                } else {
                                    EXIT_DEOPT
                                }
                            }
                        };
                        if (general.len() as u32) > PAYLOAD_MASK {
                            return Err(Decline::TableOverflow);
                        }
                        dense[st][s as usize] = entry;
                    }
                    states[st].burstable = dense[st].iter().any(|&e| e < TAG_GENERAL);
                }
            }
        }

        // Pass 3: mark the general entries the burst loop can run fully
        // inline — whole block one fused emit-span, no `R13` traffic,
        // successor a burstable consuming state (so the segment
        // continues over the same slice with the sync still deferred).
        for ge in &mut general {
            ge.inline = inline_fused(ge, &states);
        }

        // Pass 4: bit-burst rows. Every consuming state gets a parallel
        // 256-entry row of fused dispatches: trivial hits/misses carry
        // over as-is (so mixed states keep bursting), and general
        // dispatches matching the action-per-symbol emit idiom fold to
        // one [`BitEmit`] each. The row is the sub-byte/misaligned twin
        // of the dense byte-burst — it is what makes action-per-symbol
        // kernels (Huffman encode/decode, bit-packing) compile at all.
        // Equal records are stored once and shared by every row position
        // that dispatches to them: a trivial record is determined by its
        // successor and miss flag, a fused one by the general entry it
        // fuses (a state's misses all share one). `None` = not built yet;
        // `Some(BITEMIT_NONE)` = that general entry does not fuse.
        let mut bit_tables: Vec<Option<Box<[u16; 256]>>> = vec![None; n];
        let mut bitemits: Vec<BitEmit> = Vec::new();
        let mut trivial_at: Vec<[Option<u16>; 2]> = vec![[None; 2]; n];
        let mut general_at: Vec<Option<u16>> = vec![None; general.len()];
        let mut any_bitfused = false;
        for st in 0..n {
            if states[st].kind != ExecKind::Consume {
                continue;
            }
            let mut row = Box::new([BITEMIT_NONE; 256]);
            let mut populated = false;
            for s in 0..256usize {
                let e = dense[st][s];
                let payload = (e & PAYLOAD_MASK) as usize;
                let at = if e < TAG_GENERAL {
                    &mut trivial_at[payload][usize::from(e >= TAG_MISS)]
                } else if e < TAG_EXIT && try_bitemit {
                    &mut general_at[payload]
                } else {
                    continue;
                };
                let i = match *at {
                    Some(i) => i,
                    None => {
                        let be = if e < TAG_GENERAL {
                            // Trivial hit/miss: 1 (+1 miss) cycle, same reads.
                            Some(BitEmit {
                                code: 0,
                                len: 0,
                                miss: e >= TAG_MISS,
                                dyn_byte: None,
                                pass_mid: None,
                                refill: 0,
                                writes: [(0, 0); 2],
                                nwrites: 0,
                                nacts: 0,
                                next: payload as u32,
                            })
                        } else {
                            bitemit_entry(&general[payload], &states, decoded, abase, ascale)
                        };
                        let i = match be {
                            None => BITEMIT_NONE,
                            Some(_) if bitemits.len() >= usize::from(BITEMIT_NONE) => break,
                            Some(be) => {
                                any_bitfused |= be.len > 0 || be.dyn_byte.is_some();
                                bitemits.push(be);
                                (bitemits.len() - 1) as u16
                            }
                        };
                        *at = Some(i);
                        i
                    }
                };
                if i != BITEMIT_NONE {
                    row[s] = i;
                    populated = true;
                }
            }
            if populated {
                bit_tables[st] = Some(row);
            }
        }

        // A program with no trivial arcs anywhere *and* no fusable
        // action-per-symbol arcs has nothing either burst loop can
        // specialize: measured, the table indirection only adds
        // overhead over the interpreter's own dispatch. Decline, so
        // selection stays a pure speed knob.
        if !states.iter().any(|s| s.burstable) && !any_bitfused {
            return Err(Decline::NoFusableArcs);
        }

        Ok(CompiledProgram {
            states,
            dense,
            general,
            bit_tables,
            bitemits,
            index,
            wbase,
            abase,
            ascale,
        })
    }

    /// Re-resolves the lane's current `(base, kind)` to a compiled
    /// state index, if one exists.
    pub(crate) fn lookup(&self, base: u32, kind: ExecKind) -> Option<u32> {
        self.index.get(&(base, kind_code(kind))).copied()
    }
}

/// The decoded transitions governing dispatch value `s` at a
/// consuming/flagged state `base`, from the verbatim image:
/// `(signature hit, fallback on miss)`. Either side is `None` when it
/// does not apply *or* cannot be resolved from the image (caller
/// disambiguates via the span).
fn slot_transitions(
    image: &ProgramImage,
    decoded: &DecodedProgram,
    span: usize,
    base: u32,
    s: u32,
) -> (Option<TransitionWord>, Option<TransitionWord>) {
    let slot = u64::from(base) + u64::from(s);
    if slot >= span as u64 {
        return (None, None);
    }
    let raw = image.words[slot as usize];
    if raw != 0 && (raw >> 24) as u8 == (s & 0xFF) as u8 {
        let t = decoded
            .transition(slot as usize, raw)
            .unwrap_or_else(|| TransitionWord::decode(raw));
        return (Some(t), None);
    }
    // Signature miss: the fallback slot decides.
    let fb_slot = u64::from(base) + u64::from(udp_isa::FALLBACK_SLOT);
    if fb_slot >= span as u64 {
        return (None, None);
    }
    let fb = image.words[fb_slot as usize];
    if fb == 0 {
        return (None, None);
    }
    let t = decoded
        .transition(fb_slot as usize, fb)
        .unwrap_or_else(|| TransitionWord::decode(fb));
    (None, Some(t))
}

/// The fallback transition a pass state takes, if resolvable from the
/// verbatim image.
fn pass_transition(
    image: &ProgramImage,
    decoded: &DecodedProgram,
    span: usize,
    base: u32,
) -> Option<TransitionWord> {
    let fb_slot = u64::from(base) + u64::from(udp_isa::FALLBACK_SLOT);
    if fb_slot >= span as u64 {
        return None;
    }
    let raw = image.words[fb_slot as usize];
    if raw == 0 {
        return None;
    }
    Some(
        decoded
            .transition(fb_slot as usize, raw)
            .unwrap_or_else(|| TransitionWord::decode(raw)),
    )
}

/// Precompiles a pass state's fallback word into the runtime plan,
/// replicating the interpreter's signature semantics exactly.
fn pass_plan(
    image: &ProgramImage,
    decoded: &DecodedProgram,
    span: usize,
    base: u32,
    resolve: &dyn Fn(&TransitionWord) -> u32,
) -> PassPlan {
    let fb_slot = u64::from(base) + u64::from(udp_isa::FALLBACK_SLOT);
    if fb_slot >= span as u64 {
        return PassPlan::Deopt;
    }
    let raw = image.words[fb_slot as usize];
    if raw == 0 {
        return PassPlan::NoTransition;
    }
    let t = decoded
        .transition(fb_slot as usize, raw)
        .unwrap_or_else(|| TransitionWord::decode(raw));
    match t.signature() {
        CHAIN_CONTINUE_SIGNATURE => PassPlan::FaultChain,
        FALLBACK_SIGNATURE => {
            let next = resolve(&t);
            PassPlan::Take {
                t,
                refill: None,
                next,
            }
        }
        refill if refill <= 8 => {
            let next = resolve(&t);
            PassPlan::Take {
                t,
                refill: Some(refill),
                next,
            }
        }
        other => PassPlan::FaultBadSig(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{Lane, LaneConfig};
    use crate::memory::LocalMemory;
    use crate::stream::{BitStream, OutputSink};
    use std::sync::Arc;
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::{Action, Opcode};
    use udp_isa::Reg;

    /// Two-state scanner: `a` flips between states emitting `!`/`?`,
    /// anything else self-loops trivially (no actions) — so the dense
    /// tables carry both TAG_GENERAL (the emitting arcs) and trivial
    /// TAG_MISS fallbacks the burst loop can chew through.
    fn scanner() -> udp_asm::ProgramImage {
        let mut b = ProgramBuilder::new();
        let s0 = b.add_consuming_state();
        let s1 = b.add_consuming_state();
        b.set_entry(s0);
        b.labeled_arc(
            s0,
            b'a' as u16,
            Target::State(s1),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'!' as u16)],
        );
        b.fallback_arc(s0, Target::State(s0), vec![]);
        b.labeled_arc(
            s1,
            b'a' as u16,
            Target::State(s0),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'?' as u16)],
        );
        b.fallback_arc(s1, Target::State(s1), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    /// The compiler must actually engage on bread-and-butter DFA-shaped
    /// programs — this is the non-vacuity anchor for the differential
    /// suites (a silent `None` would make them pass trivially).
    #[test]
    fn scanner_compiles_with_trivial_and_general_entries() {
        let image = scanner();
        let decoded = image.predecode();
        let cp = CompiledProgram::compile(&image, &decoded).expect("scanner must specialize");
        assert_eq!(cp.states.len(), 2, "both consuming states reachable");
        let entry = cp.lookup(image.entry_base, image.entry_kind).unwrap() as usize;
        // The 'a' arc carries an action: general entry.
        let a = cp.dense[entry][b'a' as usize];
        assert_eq!(a & !PAYLOAD_MASK, TAG_GENERAL);
        assert!(!cp.general[(a & PAYLOAD_MASK) as usize].miss);
        // Any other byte misses to the trivial self-loop fallback.
        let b = cp.dense[entry][b'b' as usize];
        assert_eq!(b & !PAYLOAD_MASK, TAG_MISS);
        assert_eq!(b & PAYLOAD_MASK, entry as u32);
    }

    #[test]
    fn equal_side_table_entries_are_stored_once() {
        // Every byte but `a` misses to a fallback arc with an action.
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, b'a' as u16, Target::State(s), vec![]);
        b.fallback_arc(
            s,
            Target::State(s),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'.' as u16)],
        );
        let image = b.assemble(&LayoutOptions::default()).unwrap();
        let decoded = image.predecode();
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        let entry = cp.lookup(image.entry_base, image.entry_kind).unwrap() as usize;
        let miss = cp.dense[entry][b'b' as usize];
        assert_eq!(miss & !PAYLOAD_MASK, TAG_GENERAL);
        assert!((0..256)
            .filter(|&s| s != usize::from(b'a'))
            .all(|s| cp.dense[entry][s] == miss));
        assert_eq!(cp.general.len(), 1, "the 255 misses share one entry");
        // One trivial hit record and one fused miss record.
        assert_eq!(cp.bitemits.len(), 2);
    }

    /// A scanner whose delimiter arc carries the `EmitSpan` idiom
    /// (`InIdx; Sub; LoopIn; EmitB; InIdx`) — the csv translator's hot
    /// block, reduced to one state.
    fn span_scanner() -> udp_asm::ProgramImage {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let (r_start, r_len, r_tmp) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.labeled_arc(
            s,
            b',' as u16,
            Target::State(s),
            vec![
                Action::imm(Opcode::InIdx, r_tmp, Reg::R0, 0u16.wrapping_sub(1)),
                Action::reg(Opcode::Sub, r_len, r_tmp, r_start),
                Action::reg(Opcode::LoopIn, Reg::R0, r_start, r_len),
                Action::imm(Opcode::EmitB, Reg::R0, Reg::new(12), u16::from(b'|')),
                Action::imm(Opcode::InIdx, r_start, Reg::R0, 0),
            ],
        );
        b.fallback_arc(s, Target::State(s), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    /// The verifier's `fused_span_blocks` count and the compiler's own
    /// recognizer must agree: every block the compiler fuses is one the
    /// certificate counted (the cert mirrors `EmitSpan::recognize`), and
    /// a certified count of zero disables recognition without losing
    /// any fusion.
    #[test]
    fn cert_span_count_is_consistent_with_fusion() {
        let image = span_scanner();
        let report = udp_verify::verify_image(&image, &udp_verify::VerifyOptions::default());
        let cert = report.cert.expect("cost pass must run on a clean image");
        assert!(cert.fused_span_blocks > 0, "{}", cert.summary());

        let decoded = image.predecode();
        let count_fused = |cp: &CompiledProgram| {
            cp.general
                .iter()
                .filter_map(|g| g.block.as_ref())
                .filter(|b| b.fused.is_some())
                .map(|b| b.flat)
                .collect::<std::collections::BTreeSet<u32>>()
                .len() as u32
        };
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        let fused = count_fused(&cp);
        assert!(fused > 0, "span idiom must fuse");
        assert!(
            fused <= cert.fused_span_blocks,
            "compiler fused {fused} blocks but cert counted {}",
            cert.fused_span_blocks
        );

        // A cert claiming zero span blocks turns the recognizer off.
        let mut gated = image.clone();
        gated.cert = Some(udp_asm::ResourceCert {
            fused_span_blocks: 0,
            ..cert.clone()
        });
        let cp0 = CompiledProgram::compile(&gated, &decoded).expect("must specialize");
        assert_eq!(count_fused(&cp0), 0);

        // And the true cert attached leaves fusion identical.
        let mut certified = image.clone();
        certified.cert = Some(cert);
        let cp1 = CompiledProgram::compile(&certified, &decoded).expect("must specialize");
        assert_eq!(count_fused(&cp1), fused);
    }

    /// Direct exec-level differential: `run_compiled` vs `Lane::run` on
    /// the same program and input, comparing the full reports (the
    /// burst loop, general entries, and EOF exit all engage here).
    #[test]
    fn run_compiled_matches_interpreter_report_exactly() {
        let image = scanner();
        let decoded = Arc::new(image.predecode());
        let cp = CompiledProgram::compile(&image, &decoded).expect("scanner must specialize");
        let cfg = LaneConfig::default();
        let input: Vec<u8> = b"xxaxa__aaa".repeat(97);

        let run = |compiled: bool| {
            let mut mem = LocalMemory::with_words(8192);
            mem.set_bank_tracking(false);
            mem.load_words(0, &image.words);
            mem.reset_counters();
            let mut lane = Lane::with_decoded(&image, 0, Arc::clone(&decoded));
            lane.mark_code_clean();
            let mut stream = BitStream::new(&input);
            let mut out = OutputSink::new();
            if compiled {
                run_compiled(&cp, &mut lane, &mut mem, &mut stream, &mut out, &cfg)
            } else {
                lane.run(&mut mem, &mut stream, &mut out, &cfg)
            }
        };
        let reference = run(false);
        let fast = run(true);
        assert!(!reference.output.is_empty());
        assert_eq!(reference, fast);
    }

    /// A chaos fault injected mid-burst must fire at the same cycle
    /// with the same typed fault on both paths.
    #[test]
    fn chaos_fault_fires_identically_mid_burst() {
        let image = scanner();
        let decoded = Arc::new(image.predecode());
        let cp = CompiledProgram::compile(&image, &decoded).unwrap();
        let cfg = LaneConfig {
            chaos_fault_at: Some(37),
            ..LaneConfig::default()
        };
        let input = vec![b'x'; 4096];
        let run = |compiled: bool| {
            let mut mem = LocalMemory::with_words(8192);
            mem.set_bank_tracking(false);
            mem.load_words(0, &image.words);
            mem.reset_counters();
            let mut lane = Lane::with_decoded(&image, 0, Arc::clone(&decoded));
            lane.mark_code_clean();
            let mut stream = BitStream::new(&input);
            let mut out = OutputSink::new();
            if compiled {
                run_compiled(&cp, &mut lane, &mut mem, &mut stream, &mut out, &cfg)
            } else {
                lane.run(&mut mem, &mut stream, &mut out, &cfg)
            }
        };
        let reference = run(false);
        let fast = run(true);
        assert!(matches!(
            reference.status,
            crate::lane::LaneStatus::Fault(crate::error::FaultKind::ChaosInjected { .. })
        ));
        assert_eq!(reference, fast);
    }

    /// Huffman-encoder-shaped program: every printable arc carries the
    /// `MovI r1; EmitBits r1` idiom (one code per symbol, varying
    /// widths, one symbol split across two pairs), fallback self-loops
    /// trivially. The bit-burst loop's encoder territory.
    fn bit_encoder() -> udp_asm::ProgramImage {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let r1 = Reg::new(1);
        for (i, sym) in (b'a'..=b'p').enumerate() {
            let mut acts = vec![
                Action::imm(Opcode::MovI, r1, Reg::R0, 0x15 ^ i as u16),
                Action::imm2(Opcode::EmitBits, Reg::R0, r1, 3 + (i as u8 % 7), 0),
            ];
            if sym == b'c' {
                // Long-code split: two pairs, 15 + 4 bits.
                acts = vec![
                    Action::imm(Opcode::MovI, r1, Reg::R0, 0x5a5a),
                    Action::imm2(Opcode::EmitBits, Reg::R0, r1, 15, 0),
                    Action::imm(Opcode::MovI, r1, Reg::R0, 0x9),
                    Action::imm2(Opcode::EmitBits, Reg::R0, r1, 4, 0),
                ];
            }
            b.labeled_arc(s, u16::from(sym), Target::State(s), acts);
        }
        b.fallback_arc(s, Target::State(s), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    /// A 2-bit-symbol decoder in the refill idiom: codes `0` (1 bit),
    /// `10`, `11`; over-consumed bits are put back by refill pass
    /// states whose single-`EmitB` blocks emit the decoded byte. The
    /// sub-byte widths and putbacks keep the cursor misaligned — the
    /// bit-burst loop's decoder territory.
    fn bit_decoder() -> udp_asm::ProgramImage {
        let mut b = ProgramBuilder::new();
        b.set_symbol_bits(2);
        let root = b.add_consuming_state();
        b.set_entry(root);
        let emit = |sym: u8| Action::imm(Opcode::EmitB, Reg::R0, Reg::new(12), u16::from(sym));
        let leaf = |b: &mut ProgramBuilder, sym: u8, refill: u8| {
            b.add_pass_state(
                refill,
                udp_asm::Arc {
                    target: Target::State(root),
                    actions: vec![emit(sym)],
                },
            )
        };
        let z = leaf(&mut b, b'z', 1);
        let y = leaf(&mut b, b'y', 0);
        let x = leaf(&mut b, b'x', 0);
        b.labeled_arc(root, 0b00, Target::State(z), vec![]);
        b.labeled_arc(root, 0b01, Target::State(z), vec![]);
        b.labeled_arc(root, 0b10, Target::State(y), vec![]);
        b.labeled_arc(root, 0b11, Target::State(x), vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    /// Full-report differential between `run_compiled` and `Lane::run`
    /// on `image` over `input`, requiring non-empty output (so the
    /// fused paths demonstrably ran).
    fn assert_backends_match(image: &udp_asm::ProgramImage, input: &[u8], cfg: &LaneConfig) {
        let decoded = Arc::new(image.predecode());
        let cp = CompiledProgram::compile(image, &decoded).expect("must specialize");
        let run = |compiled: bool| {
            let mut mem = LocalMemory::with_words(8192);
            mem.set_bank_tracking(false);
            mem.load_words(0, &image.words);
            mem.reset_counters();
            let mut lane = Lane::with_decoded(image, 0, Arc::clone(&decoded));
            lane.mark_code_clean();
            let mut stream = BitStream::new(input);
            let mut out = OutputSink::new();
            if compiled {
                run_compiled(&cp, &mut lane, &mut mem, &mut stream, &mut out, cfg)
            } else {
                lane.run(&mut mem, &mut stream, &mut out, cfg)
            }
        };
        let reference = run(false);
        let fast = run(true);
        assert!(!reference.output.is_empty());
        assert_eq!(reference, fast);
    }

    /// The encoder shape must fuse into bit-table entries (non-vacuity
    /// for the bit-burst loop) and reproduce the interpreter's report
    /// bit-for-bit, including under a mid-run cycle cap.
    #[test]
    fn bitemit_encoder_fuses_and_matches_interpreter() {
        let image = bit_encoder();
        let decoded = image.predecode();
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        let entry = cp.lookup(image.entry_base, image.entry_kind).unwrap() as usize;
        let tbl = cp.bit_tables[entry].as_ref().expect("bit row must exist");
        let fused = (0..256)
            .filter(|&s| tbl[s] != BITEMIT_NONE && cp.bitemits[usize::from(tbl[s])].len > 0)
            .count();
        assert_eq!(fused, 16, "every coded symbol must fuse");

        let input: Vec<u8> = b"abcdefghijklmnop__ppcaa".repeat(211);
        assert_backends_match(&image, &input, &LaneConfig::default());
        // A tight budget trips the folded cap mid-burst.
        assert_backends_match(
            &image,
            &input,
            &LaneConfig {
                max_cycles: 701,
                cycles_per_byte: 1,
                min_cycle_budget: 1,
                ..LaneConfig::default()
            },
        );
        // Chaos fault lands at the same cycle mid-burst.
        assert_backends_match(
            &image,
            &input,
            &LaneConfig {
                chaos_fault_at: Some(443),
                ..LaneConfig::default()
            },
        );
    }

    /// The decoder (refill) shape must fuse — `pass_mid` entries with a
    /// dynamic byte — and reproduce the interpreter bit-for-bit across
    /// sub-byte dispatch, putbacks, and the mid-shape cap re-check.
    #[test]
    fn bitemit_decoder_fuses_and_matches_interpreter() {
        let image = bit_decoder();
        let decoded = image.predecode();
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        assert!(
            cp.bitemits
                .iter()
                .any(|e| e.pass_mid.is_some() && e.dyn_byte.is_some()),
            "decoder shape must fuse through the pass state"
        );

        // Pseudo-random bits wander the whole table; the trailing
        // zeros decode as runs of 'z'.
        let mut input: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        input.extend_from_slice(&[0; 8]);
        assert_backends_match(&image, &input, &LaneConfig::default());
        for cap in [700, 701, 702, 703] {
            // Sweep the cap across the decoder shape's charge sequence
            // so it trips both before and between its two dispatches.
            assert_backends_match(
                &image,
                &input,
                &LaneConfig {
                    max_cycles: cap,
                    cycles_per_byte: 1,
                    min_cycle_budget: 1,
                    ..LaneConfig::default()
                },
            );
        }
        assert_backends_match(
            &image,
            &input,
            &LaneConfig {
                chaos_fault_at: Some(997),
                ..LaneConfig::default()
            },
        );
    }

    /// The verifier's `fused_bitemit_blocks` count and the compiler's
    /// bit-emit recognizer must agree, mirroring the span-count
    /// consistency contract: a certified count of zero disables the
    /// recognizer without losing fusion elsewhere, and the true cert
    /// changes nothing.
    #[test]
    fn cert_bitemit_count_is_consistent_with_fusion() {
        let image = bit_encoder();
        let report = udp_verify::verify_image(&image, &udp_verify::VerifyOptions::default());
        let cert = report.cert.expect("cost pass must run on a clean image");
        assert!(cert.fused_bitemit_blocks > 0, "{}", cert.summary());

        let decoded = image.predecode();
        let count_bitfused = |cp: &CompiledProgram| {
            cp.bitemits
                .iter()
                .filter(|e| e.len > 0 || e.dyn_byte.is_some())
                .count()
        };
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        let fused = count_bitfused(&cp);
        assert!(fused > 0, "bit-emit idiom must fuse");

        // A cert claiming zero bit-emit blocks turns the recognizer off.
        let mut gated = image.clone();
        gated.cert = Some(udp_asm::ResourceCert {
            fused_bitemit_blocks: 0,
            ..cert.clone()
        });
        let cp0 = CompiledProgram::compile(&gated, &decoded).expect("must specialize");
        assert_eq!(count_bitfused(&cp0), 0);

        // And the true cert attached leaves fusion identical.
        let mut certified = image.clone();
        certified.cert = Some(cert);
        let cp1 = CompiledProgram::compile(&certified, &decoded).expect("must specialize");
        assert_eq!(count_bitfused(&cp1), fused);
    }

    /// Symbol widths beyond the dense-table coverage must decline to
    /// specialize rather than mis-run.
    #[test]
    fn wide_symbols_fall_back_to_the_interpreter() {
        let image = scanner();
        let mut wide = image.clone();
        wide.init.symbol_bits = 12;
        assert_eq!(
            CompiledProgram::compile(&wide, &wide.predecode()).err(),
            Some(Decline::WideSymbols)
        );
    }
}
