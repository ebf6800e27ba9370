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

use std::collections::HashMap;
use udp_asm::idiom::EmitSpan;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_asm::{DecodedProgram, ProgramImage};
use udp_isa::action::{Action, Opcode};
use udp_isa::transition::{ExecKind, TransitionWord, FALLBACK_SIGNATURE};
use udp_isa::{Word, BLOCK_CAP};

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

/// Why [`CompiledProgram::compile`] refused to specialize a program;
/// the program then runs on the interpreter. The stable reason strings
/// surface through [`crate::compiled_decline_reason`] (the
/// `compiled_declined` column of `hostperf --json`, perfbench's
/// `compiled.declined` count), and `compilers/tests/decline_snapshot.rs`
/// pins them per corpus program, so a lost fusion names its program.
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
    /// The bit-burst loop would be torn down too often to pay for
    /// itself: more than [`MAX_BREAK_SHARE`] of the dispatches in a
    /// uniform walk of the tables run in it without a fused record
    /// (`BumpW; ReadBits` histogram leaves, `SetSym`/`SetSymT` Huffman
    /// strides).
    Unprofitable,
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
            Decline::Unprofitable => "unprofitable",
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

/// Most output bits one record may emit: the bit-burst loop drains its
/// 64-bit accumulator to under a byte before a record that could
/// overflow it, so a record's worst case must fit in the rest.
const MAX_RECORD_BITS: u32 = 64 - 7;

/// One pre-resolved action of a fused block: register indices, the
/// extended immediate and the emit width are fixed at lowering, so the
/// bit-burst loop runs it without decoding an [`Action`] (DESIGN.md
/// §2.6.4). Reads of `R13` see the dispatched symbol: the loop writes
/// it into the latch before a record's ops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedOp {
    /// Constant output bits, MSB-first: folded `MovI rd; EmitBits rd`
    /// pairs.
    Bits {
        /// The bits, right-aligned.
        code: u64,
        /// How many (at most [`MAX_RECORD_BITS`]).
        len: u8,
    },
    /// `EmitBits`: the low `w` bits of `regs[src]`.
    EmitBits {
        /// Source register.
        src: u8,
        /// Width, already clamped to 1..=16.
        w: u8,
    },
    /// `EmitB`: pad the output to a byte, then append `regs[src] + imm`.
    EmitB {
        /// Source register.
        src: u8,
        /// Zero-extended immediate.
        imm: u32,
    },
    /// `EmitW`: pad the output to a byte, then append the four
    /// little-endian bytes of `regs[src]`.
    EmitW {
        /// Source register.
        src: u8,
    },
    /// `MovI`: `regs[dst] = v`.
    Set {
        /// Destination register.
        dst: u8,
        /// Zero-extended immediate.
        v: u32,
    },
    /// `LoadW` / `LoadB` from `regs[src] + off` (one counted read).
    Load {
        /// `LoadB` when set.
        byte: bool,
        /// Destination register.
        dst: u8,
        /// Address register.
        src: u8,
        /// Sign-extended byte offset.
        off: u32,
    },
    /// `Accept`: set the lane's accept flag.
    Accept(bool),
    /// Every other register op, run by [`Opcode::eval`].
    Alu {
        /// The opcode.
        op: Opcode,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
        /// Reference register (Reg format).
        rref: u8,
        /// The raw immediate field.
        imm: u16,
        /// The 4-bit immediate (Imm2 format).
        imm1: u8,
    },
}

/// A fusable action block lowered into a slice of [`CompiledProgram::ops`],
/// with its charges summed once from [`Opcode::charge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lowered {
    /// Start of the block's ops in the shared pool.
    pub(crate) at: u32,
    /// Number of ops (the peephole may leave fewer than actions).
    pub(crate) len: u16,
    /// Worst-case output bits of one run of the block.
    pub(crate) out_bits: u8,
    /// Issue cycles of the block.
    pub(crate) issue: u16,
    /// Actions in the block: each is one counted code read and one
    /// `actions_run`.
    pub(crate) nacts: u16,
}

impl Lowered {
    /// The empty block of a trivial arc.
    const NONE: Lowered = Lowered {
        at: 0,
        len: 0,
        out_bits: 0,
        issue: 0,
        nacts: 0,
    };
}

/// Lowers `acts` into pre-resolved ops appended to `pool`. `None` when
/// an action is not [`Action::fusable`], or when the block could emit
/// more than [`MAX_RECORD_BITS`].
///
/// Peephole: `MovI rd, imm; EmitBits rd, w` emits a constant, so it
/// becomes the register write plus constant bits, and adjacent constant
/// bits merge (register writes commute with them). A `MovI` write that
/// a later `MovI` of the same register overwrites with only constant
/// bits between is dropped.
fn lower_block(acts: &[Action], pool: &mut Vec<FusedOp>) -> Option<Lowered> {
    if !acts.iter().all(Action::fusable) || acts.len() > usize::from(u16::MAX) {
        return None;
    }
    let mut ops: Vec<FusedOp> = Vec::new();
    // Worst-case output bits, and whether the output is known to sit
    // on a byte boundary (then a byte emit needs no pad).
    let (mut bits, mut aligned) = (0u32, false);
    let mut i = 0;
    while i < acts.len() {
        let a = &acts[i];
        i += 1;
        let (dst, src, rref) = (a.dst.index(), a.src.index(), a.rref.index());
        let imm = u32::from(a.imm);
        let op = match a.op {
            Opcode::Nop => continue,
            Opcode::MovI => {
                let folded = acts
                    .get(i)
                    .filter(|e| e.op == Opcode::EmitBits && e.src == a.dst);
                if let Some(e) = folded {
                    i += 1;
                    let w = e.imm1.clamp(1, 16);
                    push_set(&mut ops, dst, imm);
                    push_bits(&mut ops, u64::from(imm & ((1 << w) - 1)), w);
                    bits += u32::from(w);
                    aligned &= w.is_multiple_of(8);
                    continue;
                }
                push_set(&mut ops, dst, imm);
                continue;
            }
            Opcode::EmitBits => {
                let w = a.imm1.clamp(1, 16);
                bits += u32::from(w);
                aligned &= w.is_multiple_of(8);
                FusedOp::EmitBits { src, w }
            }
            Opcode::EmitB | Opcode::EmitW => {
                let pad = if aligned { 0 } else { 7 };
                bits += pad + 8 * a.op.charge().out_bytes(0) as u32;
                aligned = true;
                if a.op == Opcode::EmitB {
                    FusedOp::EmitB { src, imm }
                } else {
                    FusedOp::EmitW { src }
                }
            }
            Opcode::LoadW | Opcode::LoadB => FusedOp::Load {
                byte: a.op == Opcode::LoadB,
                dst,
                src,
                off: a.op.imm_value(a.imm),
            },
            Opcode::Accept => FusedOp::Accept(a.imm != 0),
            op => FusedOp::Alu {
                op,
                dst,
                src,
                rref,
                imm: a.imm,
                imm1: a.imm1,
            },
        };
        ops.push(op);
    }
    if bits > MAX_RECORD_BITS {
        return None;
    }
    let at = u32::try_from(pool.len()).ok()?;
    let len = ops.len() as u16;
    pool.extend(ops);
    let issue: u64 = acts.iter().map(|a| u64::from(a.op.charge().issue)).sum();
    Some(Lowered {
        at,
        len,
        out_bits: bits as u8,
        issue: issue as u16,
        nacts: acts.len() as u16,
    })
}

/// Appends `regs[dst] = v`, dropping an earlier write of `dst` that
/// only constant bits separate from this one.
fn push_set(ops: &mut Vec<FusedOp>, dst: u8, v: u32) {
    let tail = ops
        .iter()
        .rposition(|o| !matches!(o, FusedOp::Bits { .. } | FusedOp::Set { .. }))
        .map_or(0, |p| p + 1);
    if let Some(p) = ops[tail..]
        .iter()
        .position(|o| matches!(o, FusedOp::Set { dst: d, .. } if *d == dst))
    {
        ops.remove(tail + p);
    }
    ops.push(FusedOp::Set { dst, v });
}

/// Appends constant bits, merging them into the last constant-bits op
/// when only register writes separate the two.
fn push_bits(ops: &mut Vec<FusedOp>, code: u64, len: u8) {
    let last = ops
        .iter_mut()
        .rev()
        .find(|o| !matches!(o, FusedOp::Set { .. }));
    if let Some(FusedOp::Bits { code: c, len: l }) = last {
        if u32::from(*l) + u32::from(len) <= MAX_RECORD_BITS {
            *c = (*c << len) | code;
            *l += len;
            return;
        }
    }
    ops.push(FusedOp::Bits { code, len });
}

/// One fused action-per-symbol dispatch — a bit-table entry the
/// "bit-burst" inner loop (DESIGN.md §2.6.4) runs without leaving its
/// locals. Three shapes:
///
/// * **trivial**: a signature hit or fallback miss with no actions,
///   into a consuming state, so a mixed state keeps bursting;
/// * **action**: a consume arc whose cached block lowers
///   ([`lower_block`]) and lands in a consuming state;
/// * **decoder**: an action-less consume arc into a pass state whose
///   plan putback-refills and takes a lowered block back to a consuming
///   state (the Huffman `SsRef` leaf→emit→root walk).
///
/// Per-symbol charges replicate the interpreter exactly, including the
/// folded-cap re-check *between* the consume dispatch and the pass
/// step of the decoder shape (`pass_mid`).
#[derive(Debug, Clone)]
pub(crate) struct BitEmit {
    /// This entry sits behind a signature miss: one surcharge cycle
    /// and read, one fallback-miss count.
    pub(crate) miss: bool,
    /// Decoder shape: flat base of the intermediate pass state. The
    /// interpreter re-checks the folded cap between the consume
    /// dispatch and the pass step, so the burst must too — and on a
    /// trip, park the lane *at* the pass state.
    pub(crate) pass_mid: Option<u32>,
    /// Bits put back by the pass plan's refill signature (decoder
    /// shape; 0 otherwise).
    pub(crate) refill: u8,
    /// The lowered action block ([`Lowered::NONE`] for a trivial arc).
    pub(crate) block: Lowered,
    /// Compiled successor — statically a consuming state.
    pub(crate) next: u32,
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
    /// True when no action in the block can write local memory (per the
    /// ISA charge table), so the pristine-code flag cannot drop mid-block
    /// and the per-action re-validation is dead.
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
    /// The lowered ops of every fused block, one shared pool the
    /// records' [`Lowered`] ranges index.
    pub(crate) ops: Vec<FusedOp>,
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
/// attach bases. The walk follows `run_action_block`'s addressing
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
            let pure_code = !block.iter().any(|a| a.op.charge().writes_mem);
            let fused = EmitSpan::recognize(&block);
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
    if cb.acts.len() != EmitSpan::LEN || f.touches_r13() {
        return None;
    }
    let next = usize::try_from(ge.next)
        .ok()
        .filter(|&i| i < states.len())?;
    let si = &states[next];
    (si.kind == ExecKind::Consume && si.burstable).then(|| InlineFused { f: f.clone(), next })
}

/// Tries to fuse one general dispatch into a [`BitEmit`]: the action
/// shape (the arc's own cached block lowers and lands in a consuming
/// state) or the decoder shape (an action-less arc into a pass state
/// whose precompiled plan refill-putbacks and takes a lowered block
/// back to a consuming state). `lower` lowers a cached block once per
/// block address. `None` leaves the dispatch to the dense-table
/// machinery.
fn bitemit_entry(
    ge: &GeneralEntry,
    states: &[StateInfo],
    decoded: &DecodedProgram,
    abase: u32,
    ascale: u8,
    lower: &mut dyn FnMut(&CachedBlock) -> Option<Lowered>,
) -> Option<BitEmit> {
    let next_consume = |i: u32| {
        usize::try_from(i)
            .ok()
            .filter(|&i| i < states.len() && states[i].kind == ExecKind::Consume)
    };
    if let Some(cb) = &ge.block {
        let next = next_consume(ge.next)?;
        return Some(BitEmit {
            miss: ge.miss,
            pass_mid: None,
            refill: 0,
            block: lower(cb)?,
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
    let cb2 = cache_block(decoded, t2, abase, ascale)?;
    Some(BitEmit {
        miss: ge.miss,
        pass_mid: Some(ps.base),
        refill: refill.unwrap_or(0),
        block: lower(&cb2)?,
        next: next as u32,
    })
}

/// Most dispatches per hundred that may end a bit burst before the
/// backend declines a program as [`Decline::Unprofitable`] (see
/// [`BurstWalk::break_share`]).
const MAX_BREAK_SHARE: f64 = 0.10;

/// One live dispatch of the profitability walk: `(fused, consuming
/// successor, successor width)`.
type LiveArc = (bool, Option<usize>, u8);

/// The compiled tables, walked to estimate how often the bit-burst
/// loop would be torn down (DESIGN.md §2.6.4).
struct BurstWalk<'a> {
    states: &'a [StateInfo],
    dense: &'a [[u32; 256]],
    general: &'a [GeneralEntry],
    bit_tables: &'a [Option<Box<[u16; 256]>>],
    bitemits: &'a [BitEmit],
    /// The program starts at 8-bit symbols, so a state with a trivial
    /// arc runs the byte-burst loop, not the bit-burst loop.
    wide: bool,
}

impl BurstWalk<'_> {
    /// The share of dispatches that end a bit burst, when every live
    /// dispatch value of a state is equally likely. A dispatch ends the
    /// burst when it runs in the bit-burst loop and has no fused
    /// record: the loop syncs every deferred counter, the dispatch goes
    /// through the general machinery, and the next dispatch sets the
    /// loop up again. The byte-burst loop re-enters after a general
    /// dispatch without that setup, and a state with no bit row
    /// single-steps without entering either loop, so their dispatches
    /// never count.
    ///
    /// The walk tracks the symbol width each state runs at (the entry
    /// width, changed by a `SetSym`/`SetSymT` in a taken block), so a
    /// state's live values are `0..2^width`. It averages the shares of
    /// 64 steps of probability mass started at the entry state; mass
    /// that leaves the consuming states starts over at the entry.
    fn break_share(&self, entry_bits: u8) -> f64 {
        let n = self.states.len();
        // Each reached state's live dispatches, at the width the first
        // arc reaching it leaves (breadth-first from the entry).
        let mut arcs: Vec<Option<Vec<LiveArc>>> = vec![None; n];
        let mut width = vec![0u8; n];
        width[0] = entry_bits;
        let mut order = vec![0usize];
        let mut head = 0;
        while head < order.len() {
            let st = order[head];
            head += 1;
            let live = self.arcs(st, width[st]);
            for &(_, next, w) in &live {
                if let Some(i) = next {
                    if width[i] == 0 {
                        width[i] = w;
                        order.push(i);
                    }
                }
            }
            arcs[st] = Some(live);
        }
        let (mut breaks, mut total) = (0.0, 0.0);
        let mut mass = vec![0.0f64; n];
        mass[0] = 1.0;
        for _ in 0..64 {
            let mut next_mass = vec![0.0f64; n];
            for st in 0..n {
                let live = arcs[st].as_deref().unwrap_or(&[]);
                if mass[st] == 0.0 {
                    continue;
                }
                if live.is_empty() {
                    next_mass[0] += mass[st];
                    continue;
                }
                let p = mass[st] / live.len() as f64;
                let bit_run =
                    self.bit_tables[st].is_some() && (!self.wide || !self.states[st].burstable);
                for &(fused, next, _) in live {
                    total += p;
                    if bit_run && !fused {
                        breaks += p;
                    }
                    next_mass[next.unwrap_or(0)] += p;
                }
            }
            mass = next_mass;
        }
        if total > 0.0 {
            breaks / total
        } else {
            0.0
        }
    }

    /// The live dispatches of consuming state `st` at symbol width `w`:
    /// one [`LiveArc`] per value that does not exit.
    fn arcs(&self, st: usize, w: u8) -> Vec<LiveArc> {
        if self.states[st].kind != ExecKind::Consume || w == 0 {
            return Vec::new();
        }
        let row = self.bit_tables[st].as_deref();
        (0..1usize << w.min(8))
            .filter_map(|s| {
                let e = self.dense[st][s];
                let fused = row.is_some_and(|r| r[s] != BITEMIT_NONE);
                let payload = (e & PAYLOAD_MASK) as usize;
                if e < TAG_GENERAL {
                    return Some((true, Some(payload), w));
                }
                if e >= TAG_EXIT {
                    return None;
                }
                let ge = &self.general[payload];
                let next = if fused {
                    row.map(|r| self.bitemits[usize::from(r[s])].next as usize)
                } else {
                    self.consume_of(ge.next)
                };
                let w2 = ge
                    .block
                    .as_ref()
                    .and_then(|cb| {
                        cb.acts
                            .iter()
                            .rev()
                            .find(|a| matches!(a.op, Opcode::SetSym | Opcode::SetSymT))
                    })
                    .map_or(w, |a| (a.imm as u8).clamp(1, 8));
                Some((fused, next, w2))
            })
            .collect()
    }

    /// The consuming state compiled state `i` leads to: itself, or the
    /// successor of a pass state that takes its fallback word.
    fn consume_of(&self, i: u32) -> Option<usize> {
        let st = self.states.get(i as usize)?;
        match (&st.kind, &st.pass) {
            (ExecKind::Consume, _) => Some(i as usize),
            (ExecKind::Pass, Some(PassPlan::Take { next, .. })) => self
                .states
                .get(*next as usize)
                .filter(|s| s.kind == ExecKind::Consume)
                .map(|_| *next as usize),
            _ => None,
        }
    }
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
        // The table was built from `image.words`, so it is read as the
        // verbatim image.
        let table = decoded.transitions();
        let wbase = image.init.wbase;
        let (abase, ascale) = (image.init.abase, image.init.ascale);

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
                        t: &TransitionWord|
             -> u32 {
                if t.kind() == ExecKind::Halt {
                    return u32::MAX;
                }
                intern(
                    states,
                    queue,
                    index,
                    wbase.wrapping_add(u32::from(t.target())),
                    t.kind(),
                )
            };
            match kind {
                ExecKind::Halt => {}
                ExecKind::Pass => {
                    // Interning a successor gives its final index, so
                    // the plan is complete the moment it is built.
                    let plan = pass_plan(table, base, &mut |t| {
                        succ(&mut states, &mut queue, &mut index, t)
                    });
                    states[st].pass = Some(plan);
                }
                ExecKind::Consume | ExecKind::Flagged => {
                    for s in 0u32..256 {
                        let (hit_t, fb_t) = slot_transitions(table, base, s);
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
                ExecKind::Halt | ExecKind::Pass => {}
                ExecKind::Consume | ExecKind::Flagged => {
                    // Every signature miss of a state takes the same
                    // fallback word, so its general entry is built once
                    // and shared by all the state's missing symbols.
                    let mut fallback_entry = None;
                    for s in 0u32..256 {
                        let (hit_t, fb_t) = slot_transitions(table, base, s);
                        let entry = match (hit_t, fb_t) {
                            (Some(t), _) => {
                                let next = resolve(&t);
                                if is_trivial(&t) && next != u32::MAX {
                                    TAG_HIT | next
                                } else {
                                    let g = general.len() as u32;
                                    let block = cache_block(decoded, &t, abase, ascale);
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
                                        let block = cache_block(decoded, &t, abase, ascale);
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
                                let fb = udp_isa::FALLBACK_SLOT;
                                if table_word(table, base, s).is_some()
                                    && table_word(table, base, fb).is_some()
                                {
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
        // dispatches whose block lowers become one [`BitEmit`] each.
        // The row is the sub-byte/misaligned twin of the dense
        // byte-burst — it is what makes action-per-symbol kernels
        // (Huffman, bit-packing, dictionary hashing) compile at all.
        // Equal records are stored once and shared by every row position
        // that dispatches to them: a trivial record is determined by its
        // successor and miss flag, a fused one by the general entry it
        // fuses (a state's misses all share one). `None` = not built yet;
        // `Some(BITEMIT_NONE)` = that general entry does not fuse.
        let mut bit_tables: Vec<Option<Box<[u16; 256]>>> = vec![None; n];
        let mut bitemits: Vec<BitEmit> = Vec::new();
        let mut ops: Vec<FusedOp> = Vec::new();
        // Each action block is lowered once, keyed by its address.
        let mut lowered: HashMap<u32, Option<Lowered>> = HashMap::new();
        let mut lower = |cb: &CachedBlock| {
            *lowered
                .entry(cb.flat)
                .or_insert_with(|| lower_block(&cb.acts, &mut ops))
        };
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
                } else if e < TAG_EXIT {
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
                                miss: e >= TAG_MISS,
                                pass_mid: None,
                                refill: 0,
                                block: Lowered::NONE,
                                next: payload as u32,
                            })
                        } else {
                            bitemit_entry(
                                &general[payload],
                                &states,
                                decoded,
                                abase,
                                ascale,
                                &mut lower,
                            )
                        };
                        let i = match be {
                            None => BITEMIT_NONE,
                            Some(_) if bitemits.len() >= usize::from(BITEMIT_NONE) => break,
                            Some(be) => {
                                any_bitfused |= e >= TAG_GENERAL;
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
        let walk = BurstWalk {
            states: &states,
            dense: &dense,
            general: &general,
            bit_tables: &bit_tables,
            bitemits: &bitemits,
            wide: image.init.symbol_bits == 8,
        };
        if walk.break_share(image.init.symbol_bits) > MAX_BREAK_SHARE {
            return Err(Decline::Unprofitable);
        }

        Ok(CompiledProgram {
            states,
            dense,
            general,
            bit_tables,
            bitemits,
            ops,
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
/// consuming/flagged state `base`, from the verbatim image's `table`:
/// `(signature hit, fallback on miss)`. Either side is `None` when it
/// does not apply *or* cannot be resolved from the image (caller
/// disambiguates via [`table_word`]).
fn slot_transitions(
    table: &[(Word, TransitionWord)],
    base: u32,
    s: u32,
) -> (Option<TransitionWord>, Option<TransitionWord>) {
    let Some((raw, t)) = table_word(table, base, s) else {
        return (None, None);
    };
    if raw != 0 && (raw >> 24) as u8 == (s & 0xFF) as u8 {
        return (Some(t), None);
    }
    // Signature miss: the fallback slot decides.
    match table_word(table, base, udp_isa::FALLBACK_SLOT) {
        Some((fb, t)) if fb != 0 => (None, Some(t)),
        _ => (None, None),
    }
}

/// The `(raw word, transition view)` at `base + off`, if the verbatim
/// image's `table` holds that address.
fn table_word(
    table: &[(Word, TransitionWord)],
    base: u32,
    off: u32,
) -> Option<(Word, TransitionWord)> {
    let at = usize::try_from(u64::from(base) + u64::from(off)).ok()?;
    table.get(at).copied()
}

/// Precompiles a pass state's fallback word, read from the verbatim
/// image's `table`, into the runtime plan, replicating the
/// interpreter's signature semantics exactly. `resolve` gives the
/// successor's state index (`u32::MAX` for none); it is called for
/// every present fallback word, faulting signatures included.
fn pass_plan(
    table: &[(Word, TransitionWord)],
    base: u32,
    resolve: &mut dyn FnMut(&TransitionWord) -> u32,
) -> PassPlan {
    let Some((raw, t)) = table_word(table, base, udp_isa::FALLBACK_SLOT) else {
        return PassPlan::Deopt;
    };
    if raw == 0 {
        return PassPlan::NoTransition;
    }
    let next = resolve(&t);
    match t.signature() {
        CHAIN_CONTINUE_SIGNATURE => PassPlan::FaultChain,
        FALLBACK_SIGNATURE => PassPlan::Take {
            t,
            refill: None,
            next,
        },
        refill if refill <= 8 => PassPlan::Take {
            t,
            refill: Some(refill),
            next,
        },
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

    /// The span idiom fuses whether or not the image carries a
    /// certificate: the compiler runs the shared recognizer on every
    /// cached block, and the verifier (which amortizes the same idiom)
    /// still certifies the image.
    #[test]
    fn cert_span_count_is_consistent_with_fusion() {
        let image = span_scanner();
        let report = udp_verify::verify_image(&image, &udp_verify::VerifyOptions::default());
        let cert = report.cert.expect("cost pass must run on a clean image");
        assert!(cert.is_complete(), "{}", cert.summary());

        let decoded = image.predecode();
        let count_fused = |cp: &CompiledProgram| {
            cp.general
                .iter()
                .filter_map(|g| g.block.as_ref())
                .filter(|b| b.fused.is_some())
                .map(|b| b.flat)
                .collect::<std::collections::BTreeSet<u32>>()
                .len()
        };
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        let fused = count_fused(&cp);
        assert!(fused > 0, "span idiom must fuse");

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
            .filter(|&s| tbl[s] != BITEMIT_NONE && cp.bitemits[usize::from(tbl[s])].block.len > 0)
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
                .any(|e| e.pass_mid.is_some() && e.block.len > 0),
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

    /// Action blocks lower whether or not the image carries a
    /// certificate, like the span idiom above.
    #[test]
    fn cert_bitemit_count_is_consistent_with_fusion() {
        let image = bit_encoder();
        let report = udp_verify::verify_image(&image, &udp_verify::VerifyOptions::default());
        let cert = report.cert.expect("cost pass must run on a clean image");

        let decoded = image.predecode();
        let count_bitfused =
            |cp: &CompiledProgram| cp.bitemits.iter().filter(|e| e.block.len > 0).count();
        let cp = CompiledProgram::compile(&image, &decoded).expect("must specialize");
        let fused = count_bitfused(&cp);
        assert!(fused > 0, "the encoder blocks must lower");

        let mut certified = image.clone();
        certified.cert = Some(cert);
        let cp1 = CompiledProgram::compile(&certified, &decoded).expect("must specialize");
        assert_eq!(count_bitfused(&cp1), fused);
    }

    /// One consuming state at `bits`-bit symbols whose every dispatch
    /// value runs `block` and loops back.
    fn per_symbol(bits: u8, block: &[Action]) -> udp_asm::ProgramImage {
        let mut b = ProgramBuilder::new();
        b.set_symbol_bits(bits);
        let s = b.add_consuming_state();
        b.set_entry(s);
        for sym in 0..1u16 << bits {
            b.labeled_arc(s, sym, Target::State(s), block.to_vec());
        }
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    /// Fused records whose lowered block has ops.
    fn fused_records(cp: &CompiledProgram) -> usize {
        cp.bitemits.iter().filter(|e| e.block.len > 0).count()
    }

    /// Runs `image` over `input` on both paths with `regs` preset and
    /// asserts the full reports equal and the program's blocks fused;
    /// returns the interpreter's report.
    fn diff_fused(
        image: &udp_asm::ProgramImage,
        input: &[u8],
        cfg: &LaneConfig,
        regs: &[(u8, u32)],
    ) -> crate::lane::LaneReport {
        let decoded = Arc::new(image.predecode());
        let cp = CompiledProgram::compile(image, &decoded).expect("must specialize");
        assert!(fused_records(&cp) > 0, "no block lowered");
        let run = |compiled: bool| {
            let mut mem = LocalMemory::with_words(8192);
            mem.set_bank_tracking(false);
            mem.load_words(0, &image.words);
            mem.reset_counters();
            let mut lane = Lane::with_decoded(image, 0, Arc::clone(&decoded));
            lane.mark_code_clean();
            for &(r, v) in regs {
                lane.preset_reg(Reg::new(r), v);
            }
            let mut stream = BitStream::new(input);
            let mut out = OutputSink::new();
            if compiled {
                run_compiled(&cp, &mut lane, &mut mem, &mut stream, &mut out, cfg)
            } else {
                lane.run(&mut mem, &mut stream, &mut out, cfg)
            }
        };
        let reference = run(false);
        assert_eq!(reference, run(true));
        reference
    }

    fn noise(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    /// `R13` reads lower to the dispatched symbol: `EmitB`, `EmitBits`
    /// and `FnvB` of the symbol, at sub-byte, odd and whole-byte widths.
    #[test]
    fn r13_sourced_blocks_fuse_at_every_width() {
        let (r1, r13) = (Reg::new(1), Reg::R13);
        let input = noise(777);
        for bits in [1u8, 3, 4, 7, 8] {
            let blocks = [
                vec![Action::imm(Opcode::EmitB, Reg::R0, r13, 5)],
                vec![Action::imm2(Opcode::EmitBits, Reg::R0, r13, bits, 0)],
                vec![Action::imm(Opcode::FnvB, r1, r13, 0)],
            ];
            for block in &blocks {
                let rep = diff_fused(
                    &per_symbol(bits, block),
                    &input,
                    &LaneConfig::default(),
                    &[(1, 0x811C_9DC5)],
                );
                let moved = !rep.output.is_empty() || rep.regs[1] != 0x811C_9DC5;
                assert!(moved, "{bits}-bit {:?} did nothing", block[0].op);
            }
        }
    }

    /// A multi-op block where a destination is its own source, a
    /// register is written and then read in the same block, and byte,
    /// word and bit emits interleave with a folded constant.
    fn aliasing_block() -> Vec<Action> {
        let (r1, r2, r4) = (Reg::new(1), Reg::new(2), Reg::new(4));
        vec![
            Action::imm(Opcode::AddI, r1, r1, 0xFFFD),
            Action::reg(Opcode::Xor, r2, r1, Reg::R13),
            Action::imm(Opcode::EmitB, Reg::R0, r2, 0),
            Action::imm(Opcode::EmitW, Reg::R0, r1, 0),
            Action::reg(Opcode::Mul, r1, r1, r2),
            Action::imm2(Opcode::EmitBits, Reg::R0, r1, 5, 0),
            Action::imm(Opcode::MovI, r4, Reg::R0, 9),
            Action::imm2(Opcode::EmitBits, Reg::R0, r4, 4, 0),
        ]
    }

    #[test]
    fn aliasing_multi_op_block_matches_interpreter() {
        let block = aliasing_block();
        for bits in [3u8, 8] {
            let image = per_symbol(bits, &block);
            let rep = diff_fused(&image, &noise(1500), &LaneConfig::default(), &[(1, 7)]);
            assert!(rep.output.len() > 1000);
            // The cycle cap swept across one block's charge: it trips
            // before the dispatch on every offset.
            let per_symbol_cycles = 1 + block.len() as u64;
            for cap in 600..600 + per_symbol_cycles + 1 {
                let cfg = LaneConfig {
                    max_cycles: cap,
                    cycles_per_byte: 1,
                    min_cycle_budget: 1,
                    ..LaneConfig::default()
                };
                diff_fused(&image, &noise(1500), &cfg, &[(1, 7)]);
            }
            // A chaos fault lands mid-burst at the same cycle.
            let cfg = LaneConfig {
                chaos_fault_at: Some(1234),
                ..LaneConfig::default()
            };
            let rep = diff_fused(&image, &noise(1500), &cfg, &[(1, 7)]);
            assert!(matches!(
                rep.status,
                crate::lane::LaneStatus::Fault(crate::error::FaultKind::ChaosInjected { .. })
            ));
        }
    }

    /// Every opcode the ISA table calls fusable lowers, and its lowered
    /// op computes what the interpreter computes, on registers that
    /// drift through many values over the run.
    #[test]
    fn every_fusable_opcode_lowers_and_matches_interpreter() {
        let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
        let mut lowered = 0;
        for &op in Opcode::ALL {
            let a = match op.format() {
                udp_isa::ActionFormat::Imm => Action::imm(op, r3, r1, 0x8005),
                udp_isa::ActionFormat::Imm2 => Action::imm2(op, r3, r1, 5, 0x9),
                udp_isa::ActionFormat::Reg => Action::reg(op, r3, r2, r1),
            };
            if !a.fusable() {
                continue;
            }
            assert!(lower_block(&[a], &mut Vec::new()).is_some(), "{op}");
            // Feed the symbol and the result back into the operands so
            // every register takes many values.
            // Two word emits could overflow one record's output bits.
            let show = if op == Opcode::EmitW {
                Opcode::EmitB
            } else {
                Opcode::EmitW
            };
            let block = [
                Action::reg(Opcode::Add, r1, r1, Reg::R13),
                Action::reg(Opcode::Xor, r2, r2, r3),
                a,
                Action::imm(show, Reg::R0, r3, 0),
            ];
            let regs = [(1, 0x1234_5678), (2, 3), (3, 0xFFFF_FFF0)];
            diff_fused(
                &per_symbol(8, &block),
                &noise(600),
                &LaneConfig::default(),
                &regs,
            );
            lowered += 1;
        }
        assert!(lowered >= 40, "only {lowered} opcodes lower");
    }

    /// The encoder idiom's constant `MovI; EmitBits` pairs fold into one
    /// constant-bits op, an overwritten `MovI` write is dropped, and a
    /// dynamic `EmitB` stays an op of its own.
    #[test]
    fn lowering_folds_constant_emits_and_keeps_dynamic_emits() {
        let r1 = Reg::new(1);
        let pairs = vec![
            Action::imm(Opcode::MovI, r1, Reg::R0, 0b101),
            Action::imm2(Opcode::EmitBits, Reg::R0, r1, 3, 0),
            Action::imm(Opcode::MovI, r1, Reg::R0, 0b1),
            Action::imm2(Opcode::EmitBits, Reg::R0, r1, 2, 0),
            Action::imm(Opcode::EmitB, Reg::R0, Reg::new(12), 7),
        ];
        let mut pool = Vec::new();
        let l = lower_block(&pairs, &mut pool).expect("fusable");
        assert_eq!(
            pool,
            [
                FusedOp::Bits {
                    code: 0b10101,
                    len: 5
                },
                FusedOp::Set { dst: 1, v: 1 },
                FusedOp::EmitB { src: 12, imm: 7 },
            ]
        );
        assert_eq!((l.issue, l.nacts, l.out_bits), (5, 5, 5 + 7 + 8));
        // A block that could overflow the accumulator does not lower.
        let wide = [Action::imm(Opcode::EmitW, Reg::R0, r1, 0); 2];
        assert!(lower_block(&wide, &mut pool).is_none());
        // Nor does one that writes the symbol latch or reads the cursor.
        let r13 = [Action::imm(Opcode::MovI, Reg::R13, Reg::R0, 1)];
        assert!(lower_block(&r13, &mut pool).is_none());
        let r15 = [Action::imm(Opcode::EmitB, Reg::R0, Reg::R15, 0)];
        assert!(lower_block(&r15, &mut pool).is_none());
    }

    /// A `SetABase` that runs before the burst retargets every scaled
    /// attach: the bit-burst loop must not run the blocks it resolved
    /// against the image's attach base, on either side of the move.
    #[test]
    fn set_abase_before_the_burst_keeps_blocks_exact() {
        let build = |abase: u16| {
            let mut b = ProgramBuilder::new();
            let first = b.add_consuming_state();
            let s = b.add_consuming_state();
            b.set_entry(first);
            b.fallback_arc(
                first,
                Target::State(s),
                vec![Action::imm(Opcode::SetABase, Reg::R0, Reg::R0, abase)],
            );
            // Enough distinct two-action blocks to spill past the
            // direct attach range into scaled attach slots.
            for sym in 0..=255u16 {
                let block = vec![
                    Action::imm(Opcode::EmitB, Reg::R0, Reg::R13, sym),
                    Action::imm(Opcode::EmitB, Reg::R0, Reg::new(12), sym ^ 0x55),
                ];
                b.labeled_arc(s, sym, Target::State(s), block);
            }
            b.assemble(&LayoutOptions::default()).unwrap()
        };
        let probe = build(0);
        let slot = 1u16 << probe.init.ascale;
        let input = noise(900);
        for abase in [probe.init.abase as u16, probe.init.abase as u16 + slot] {
            let image = build(abase);
            assert_eq!(
                (image.init.abase, image.init.ascale),
                (probe.init.abase, probe.init.ascale)
            );
            diff_fused(&image, &input, &LaneConfig::default(), &[]);
        }
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
