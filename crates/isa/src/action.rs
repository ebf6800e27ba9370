//! Action words: the general-computation half of the UDP ISA.
//!
//! Actions are chained in blocks; the `last` bit ends a block (paper
//! Figure 6). Three 32-bit formats balance immediate width against register
//! operand count:
//!
//! ```text
//! ImmAction  : opcode(7) | last(1) | dst(4) | src(4) | imm(16)
//! Imm2Action : opcode(7) | last(1) | dst(4) | src(4) | imm1(4) | imm2(12)
//! RegAction  : opcode(7) | last(1) | dst(4) | ref(4) | src(4) | unused(12)
//! ```
//!
//! The format of an action is implied by its opcode: opcodes `0x00..=0x3F`
//! are Imm-format, `0x40..=0x5F` Imm2-format, `0x60..=0x7F` Reg-format.
//!
//! The opcode set realizes the paper's "50 actions including arithmetic,
//! logical, loop-comparing, configuration and memory operations", plus the
//! customized actions of §3.2.5: `Hash`, `LoopCmp` (stream compare),
//! `LoopCpy` (block copy), and histogram/emit support.

use crate::reg::Reg;
use crate::Word;
use std::fmt;

/// The three machine formats for action words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionFormat {
    /// `dst`, `src`, 16-bit immediate.
    Imm,
    /// `dst`, `src`, 4-bit + 12-bit immediates.
    Imm2,
    /// `dst`, `ref`, `src` registers.
    Reg,
}

macro_rules! opcodes {
    ($( $(#[$meta:meta])* $name:ident = $code:expr => $fmt:ident ),+ $(,)?) => {
        /// Action opcodes (7 bits). The numeric range determines the
        /// [`ActionFormat`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Opcode {
            $( $(#[$meta])* $name = $code ),+
        }

        impl Opcode {
            /// Every defined opcode, in encoding order.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name),+ ];

            /// Decodes a 7-bit opcode field.
            pub fn from_code(code: u8) -> Option<Opcode> {
                match code {
                    $( $code => Some(Opcode::$name), )+
                    _ => None,
                }
            }

            /// The machine format this opcode uses.
            pub fn format(self) -> ActionFormat {
                match self {
                    $( Opcode::$name => ActionFormat::$fmt, )+
                }
            }
        }
    };
}

opcodes! {
    // ---- Imm format (0x00..=0x3F): dst, src, imm16 ----
    /// No operation.
    Nop = 0x00 => Imm,
    /// `dst = imm` (zero-extended).
    MovI = 0x01 => Imm,
    /// `dst = (dst & 0xFFFF) | (imm << 16)` — load the high half.
    MovIH = 0x02 => Imm,
    /// `dst = src + imm` (imm sign-extended).
    AddI = 0x03 => Imm,
    /// `dst = src - imm` (imm sign-extended).
    SubI = 0x04 => Imm,
    /// `dst = src & imm` (imm zero-extended).
    AndI = 0x05 => Imm,
    /// `dst = src | imm`.
    OrI = 0x06 => Imm,
    /// `dst = src ^ imm`.
    XorI = 0x07 => Imm,
    /// `dst = src << (imm & 31)`.
    ShlI = 0x08 => Imm,
    /// `dst = src >> (imm & 31)` (logical).
    ShrI = 0x09 => Imm,
    /// `dst = (src as i32) >> (imm & 31)` (arithmetic).
    SarI = 0x0A => Imm,
    /// `dst = mem32[src + imm]` (byte address, word-aligned access).
    LoadW = 0x0B => Imm,
    /// `mem32[dst + imm] = src` (note: `dst` is the address base).
    StoreW = 0x0C => Imm,
    /// `dst = mem8[src + imm]` (zero-extended).
    LoadB = 0x0D => Imm,
    /// `mem8[dst + imm] = src & 0xFF`.
    StoreB = 0x0E => Imm,
    /// Set the symbol-size register to `imm` bits (1–8, or 32).
    SetSym = 0x0F => Imm,
    /// Hardware-folded symbol-size update used by SsT-mode programs;
    /// zero cycle cost (models per-transition dispatch width).
    SetSymT = 0x10 => Imm,
    /// Set the lane's window base register to `src + imm` words
    /// (restricted addressing, paper §3.2.4).
    SetBase = 0x11 => Imm,
    /// Set the action-base register (scaled-offset attach addressing).
    SetABase = 0x12 => Imm,
    /// Set the action-scale register (scaled-offset attach addressing).
    SetAScale = 0x13 => Imm,
    /// `dst = (src == imm) ? 1 : 0`.
    SEqI = 0x14 => Imm,
    /// `dst = ((src as i32) < imm) ? 1 : 0`.
    SLtI = 0x15 => Imm,
    /// `dst = (src < imm as u32) ? 1 : 0` (unsigned).
    SLtUI = 0x16 => Imm,
    /// Consume `imm` bits from the stream into `dst` (MSB-first).
    ReadBits = 0x17 => Imm,
    /// `dst = mem32[imm + src*4] += 1` — histogram bin bump (read-modify-
    /// write, 2 cycles).
    BumpW = 0x18 => Imm,
    /// Emit `(src + imm) & 0xFF` to the lane output stream.
    EmitB = 0x19 => Imm,
    /// Emit the 4 bytes of `src` (little-endian) to the lane output stream.
    EmitW = 0x1A => Imm,
    /// Skip `src + imm` bytes of input stream.
    SkipB = 0x1B => Imm,
    /// Put `imm` bits back into the stream (action-level refill).
    RefillI = 0x1C => Imm,
    /// Record a match report `(pattern = imm, position = stream byte index)`.
    Report = 0x1D => Imm,
    /// Set the lane accept flag to `imm != 0`.
    Accept = 0x1E => Imm,
    /// Halt the lane with code `imm`.
    Halt = 0x1F => Imm,
    /// `dst = crc32_step(dst, src & 0xFF)` — one byte folded into a running
    /// CRC-32 (Castagnoli polynomial).
    Crc = 0x20 => Imm,
    /// `dst = hash(src) & ((1 << imm) - 1)` — multiplicative hash truncated
    /// to `imm` bits (paper §3.2.5 customized hash action; 1 cycle).
    Hash = 0x21 => Imm,
    /// `dst = (dst ^ src) * 0x01000193` — one FNV-1a step folding a
    /// symbol into a running hash (the "fast hashes of the input
    /// symbol" action of §3.2.5; 1 cycle).
    FnvB = 0x28 => Imm,
    /// `dst = stream byte index + imm` (alias of reading R15).
    InIdx = 0x22 => Imm,
    /// `dst = number of leading zeros of src` (imm unused).
    Clz = 0x23 => Imm,
    /// `dst = popcount(src)` (imm unused).
    Popcnt = 0x24 => Imm,
    /// `dst = output byte count + imm` — output stream cursor.
    OutIdx = 0x25 => Imm,
    /// Peek `imm` bits from the stream into `dst` without consuming.
    PeekBits = 0x26 => Imm,
    /// `dst = (stream exhausted) ? 1 : 0` (imm unused).
    AtEof = 0x27 => Imm,

    // ---- Imm2 format (0x40..=0x5F): dst, src, imm1(4), imm2(12) ----
    /// Emit the low `imm1` bits of `src` to the bit-packed output
    /// (MSB-first); `imm2` unused.
    EmitBits = 0x40 => Imm2,
    /// `dst = (src >> imm1) & ((1 << imm2-bit-count...) )` — extract
    /// field: shift right by `imm1`, mask to `imm2 & 0x1F` bits.
    Extract = 0x41 => Imm2,
    /// `dst = (src << imm1) | (dst & ((1 << imm1) - 1))`... deposit:
    /// shift `src` left by `imm1` and OR into `dst`.
    Deposit = 0x42 => Imm2,
    /// Conditional skip: if `src == 0`, skip the next `imm1` actions in
    /// this block (bounded micro-predication inside an action block).
    SkipIfZ = 0x43 => Imm2,
    /// Conditional skip: if `src != 0`, skip the next `imm1` actions.
    SkipIfNz = 0x44 => Imm2,

    // ---- Reg format (0x60..=0x7F): dst, ref, src ----
    /// `dst = src`.
    Mov = 0x60 => Reg,
    /// `dst = ref + src`.
    Add = 0x61 => Reg,
    /// `dst = ref - src`.
    Sub = 0x62 => Reg,
    /// `dst = ref & src`.
    And = 0x63 => Reg,
    /// `dst = ref | src`.
    Or = 0x64 => Reg,
    /// `dst = ref ^ src`.
    Xor = 0x65 => Reg,
    /// `dst = ref << (src & 31)`.
    Shl = 0x66 => Reg,
    /// `dst = ref >> (src & 31)` (logical).
    Shr = 0x67 => Reg,
    /// `dst = ref * src` (wrapping).
    Mul = 0x68 => Reg,
    /// `dst = min(ref, src)` (unsigned).
    Min = 0x69 => Reg,
    /// `dst = max(ref, src)` (unsigned).
    Max = 0x6A => Reg,
    /// `dst = (ref == src) ? 1 : 0`.
    SEq = 0x6B => Reg,
    /// `dst = ((ref as i32) < (src as i32)) ? 1 : 0`.
    SLt = 0x6C => Reg,
    /// `dst = (ref < src) ? 1 : 0` (unsigned).
    SLtU = 0x6D => Reg,
    /// `dst = if ref != 0 { src } else { dst }` — conditional move.
    Sel = 0x6E => Reg,
    /// `dst = length of the common byte prefix of mem[ref..] and
    /// mem[src..]`, capped by `R14` (the loop-limit register). The paper's
    /// customized *loop-compare* action; costs `1 + ceil(len/8)` cycles.
    LoopCmp = 0x6F => Reg,
    /// Copy `src` bytes from `mem[ref..]` to `mem[dst..]`; `dst`/`ref` are
    /// byte addresses held in the named registers. The paper's customized
    /// *loop-copy* action; costs `1 + ceil(n/8)` cycles. Overlapping
    /// forward copies replicate (RLE-style), as decompressors require.
    LoopCpy = 0x70 => Reg,
    /// Copy `src` bytes from `mem[ref..]` to the lane output stream.
    LoopOut = 0x71 => Reg,
    /// Copy `src` bytes from the *output history* starting `ref` bytes
    /// back from the current output cursor, to the output stream
    /// (overlap-replicating) — the decompression copy primitive.
    LoopBack = 0x72 => Reg,
    /// Copy `src` bytes from the input window at byte offset `ref` to the
    /// output stream (non-consuming; the cursor is available in R15).
    LoopIn = 0x73 => Reg,
    /// `dst = one input byte at stream offset `ref + src`` without
    /// consuming (random access into the stream window).
    PeekAt = 0x74 => Reg,
    /// `dst = ref - src` saturating at 0 (unsigned).
    SubSat = 0x75 => Reg,
    /// `dst = hash(ref ^ (src * 0x9E3779B9))` — two-operand hash combine.
    Hash2 = 0x76 => Reg,
    /// `dst = length of the common byte prefix of mem[ref..] (window-
    /// relative) and the input window at offset src`, capped by `R14` —
    /// the memory-vs-stream compare used by dictionary probing.
    LoopCmpM = 0x77 => Reg,
    /// `dst = 4 little-endian bytes of the input window at offset
    /// `ref + src`` (non-consuming) — the word-granular stream-buffer
    /// read behind the compression hash (symbol sizes "1–8, 32 bits").
    PeekW = 0x78 => Reg,
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Architectural cap on a bulk loop action's length in bytes: `LoopCpy`,
/// `LoopOut`, `LoopBack` and `LoopIn` fault beyond it, and the compare
/// loops clamp their `R14` limit to it.
pub const LOOP_CAP: u32 = 1 << 26;

/// Architectural cap on one transition's action-block length in words;
/// a block still running after this many fetches faults.
pub const BLOCK_CAP: usize = 4096;

/// Output bytes one issue of an action can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutBytes {
    /// At most this many bytes (`EmitBits` can complete two bytes of
    /// the bit-packed stream).
    Upto(u8),
    /// Exactly the loop length `n`.
    Loop,
}

/// How one action is charged: the single description of the paper's
/// action costs (§3.2.5) that the lane interpreter, the compiled
/// backend and the static cost model all read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// Cycles charged at issue: 0 for the hardware-folded `SetSymT`, 2
    /// for the read-modify-write `BumpW`, 1 otherwise.
    pub issue: u8,
    /// A bulk loop: its `n` bytes move 8 per cycle, adding `ceil(n/8)`
    /// cycles after issue.
    pub bulk: bool,
    /// Most output bytes one issue produces.
    pub out: OutBytes,
    /// The action may write local memory.
    pub writes_mem: bool,
}

impl Charge {
    /// Cycles the bulk datapath adds for an `n`-byte loop (0 for
    /// non-loop actions).
    #[inline]
    pub const fn bulk_cycles(self, n: u32) -> u64 {
        if self.bulk {
            n.div_ceil(8) as u64
        } else {
            0
        }
    }

    /// Most output bytes of one issue moving `n` loop bytes.
    #[inline]
    pub const fn out_bytes(self, n: u64) -> u64 {
        match self.out {
            OutBytes::Upto(b) => b as u64,
            OutBytes::Loop => n,
        }
    }
}

impl Opcode {
    /// The charging rules of this opcode.
    #[inline]
    pub const fn charge(self) -> Charge {
        use Opcode::*;
        Charge {
            issue: match self {
                SetSymT => 0,
                BumpW => 2,
                _ => 1,
            },
            bulk: matches!(
                self,
                LoopCmp | LoopCmpM | LoopCpy | LoopOut | LoopBack | LoopIn
            ),
            out: match self {
                EmitB => OutBytes::Upto(1),
                EmitW => OutBytes::Upto(4),
                EmitBits => OutBytes::Upto(2),
                LoopOut | LoopBack | LoopIn => OutBytes::Loop,
                _ => OutBytes::Upto(0),
            },
            writes_mem: matches!(self, StoreW | StoreB | BumpW | LoopCpy),
        }
    }
}

/// What one action may observe or disturb beyond the register file and
/// its output bytes: the facts a backend that keeps the stream cursor,
/// the output and the lane status in locals across many dispatches
/// needs to know before it runs the action in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effects {
    /// The action reads the input stream — its cursor (`R15`, `InIdx`,
    /// `Report`, `AtEof`) or its bytes (`PeekAt`, `PeekW`, the stream
    /// loops) — or moves the cursor (`ReadBits`, `SkipB`, `RefillI`).
    pub stream: bool,
    /// The action reads the output length (`OutIdx`, and `LoopBack`'s
    /// distance check).
    pub out_len: bool,
    /// The action can end the lane: halt, fault (a bad symbol width, a
    /// refill underflow, a loop-length check) or exhaust the input.
    pub can_end: bool,
    /// The action rewrites a base register, the symbol width, or the
    /// walk of its own action block (`Set*`, `SkipIf*`).
    pub control: bool,
}

impl Opcode {
    /// What this opcode may observe or disturb (see [`Effects`]).
    #[inline]
    pub const fn effects(self) -> Effects {
        use Opcode::*;
        Effects {
            stream: matches!(
                self,
                InIdx
                    | ReadBits
                    | PeekBits
                    | SkipB
                    | RefillI
                    | Report
                    | AtEof
                    | PeekAt
                    | PeekW
                    | LoopCmp
                    | LoopCmpM
                    | LoopIn
            ),
            out_len: matches!(self, OutIdx | LoopBack),
            can_end: matches!(
                self,
                Halt | SetSym
                    | SetSymT
                    | ReadBits
                    | RefillI
                    | LoopCpy
                    | LoopOut
                    | LoopBack
                    | LoopIn
            ),
            control: matches!(
                self,
                SetSym | SetSymT | SetBase | SetABase | SetAScale | SkipIfZ | SkipIfNz
            ),
        }
    }
}

impl Action {
    /// True when this action can run inside a dispatch loop that defers
    /// the stream cursor, the lane status, the output accumulator and
    /// the `R13` symbol latch: it has none of the [`Effects`], writes no
    /// memory, has a fixed issue cost (no bulk loop), names `R15` in no
    /// operand field, and does not name `R13` as its destination.
    pub fn fusable(&self) -> bool {
        let e = self.op.effects();
        let c = self.op.charge();
        let touches_r15 = [self.dst, self.rref, self.src].contains(&Reg::R15);
        !(e.stream || e.out_len || e.can_end || e.control || c.writes_mem || c.bulk || touches_r15)
            && self.dst != Reg::R13
    }
}

/// Summed issue cycles of an action sequence.
pub const fn issue_cycles(ops: &[Opcode]) -> u64 {
    let mut sum = 0;
    let mut i = 0;
    while i < ops.len() {
        sum += ops[i].charge().issue as u64;
        i += 1;
    }
    sum
}

/// A decoded action word.
///
/// Field meaning depends on [`Opcode::format`]; unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Action {
    /// The operation.
    pub op: Opcode,
    /// Terminates the action block when set.
    pub last: bool,
    /// Destination register.
    pub dst: Reg,
    /// Reference register (Reg format only).
    pub rref: Reg,
    /// Source register.
    pub src: Reg,
    /// Immediate: 16 bits (Imm), or 12 bits in `imm2` position (Imm2).
    pub imm: u16,
    /// Secondary 4-bit immediate (Imm2 format only).
    pub imm1: u8,
}

impl Action {
    /// Builds an Imm-format action.
    pub fn imm(op: Opcode, dst: Reg, src: Reg, imm: u16) -> Self {
        debug_assert_eq!(op.format(), ActionFormat::Imm, "{op} is not Imm-format");
        Action {
            op,
            last: false,
            dst,
            rref: Reg::R0,
            src,
            imm,
            imm1: 0,
        }
    }

    /// Builds an Imm2-format action.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `imm1` exceeds 4 bits or `imm2` exceeds 12 bits.
    pub fn imm2(op: Opcode, dst: Reg, src: Reg, imm1: u8, imm2: u16) -> Self {
        debug_assert_eq!(op.format(), ActionFormat::Imm2, "{op} is not Imm2-format");
        debug_assert!(imm1 <= 0xF, "imm1 {imm1} exceeds 4 bits");
        debug_assert!(imm2 <= 0xFFF, "imm2 {imm2} exceeds 12 bits");
        Action {
            op,
            last: false,
            dst,
            rref: Reg::R0,
            src,
            imm: imm2,
            imm1,
        }
    }

    /// Builds a Reg-format action.
    pub fn reg(op: Opcode, dst: Reg, rref: Reg, src: Reg) -> Self {
        debug_assert_eq!(op.format(), ActionFormat::Reg, "{op} is not Reg-format");
        Action {
            op,
            last: false,
            dst,
            rref,
            src,
            imm: 0,
            imm1: 0,
        }
    }

    /// Returns a copy with the `last` (end-of-block) bit set.
    pub fn ending(mut self) -> Self {
        self.last = true;
        self
    }

    /// Packs into the 32-bit machine encoding.
    pub fn encode(&self) -> Word {
        let base = (u32::from(self.op as u8) << 25)
            | (u32::from(self.last) << 24)
            | (u32::from(self.dst.index()) << 20);
        match self.op.format() {
            ActionFormat::Imm => base | (u32::from(self.src.index()) << 16) | u32::from(self.imm),
            ActionFormat::Imm2 => {
                base | (u32::from(self.src.index()) << 16)
                    | (u32::from(self.imm1) << 12)
                    | u32::from(self.imm & 0xFFF)
            }
            ActionFormat::Reg => {
                base | (u32::from(self.rref.index()) << 16) | (u32::from(self.src.index()) << 12)
            }
        }
    }

    /// Unpacks from the 32-bit machine encoding.
    ///
    /// Returns `None` for undefined opcodes.
    pub fn decode(raw: Word) -> Option<Self> {
        let op = Opcode::from_code((raw >> 25) as u8)?;
        let last = (raw >> 24) & 1 == 1;
        let dst = Reg::new(((raw >> 20) & 0xF) as u8);
        Some(match op.format() {
            ActionFormat::Imm => Action {
                op,
                last,
                dst,
                rref: Reg::R0,
                src: Reg::new(((raw >> 16) & 0xF) as u8),
                imm: (raw & 0xFFFF) as u16,
                imm1: 0,
            },
            ActionFormat::Imm2 => Action {
                op,
                last,
                dst,
                rref: Reg::R0,
                src: Reg::new(((raw >> 16) & 0xF) as u8),
                imm: (raw & 0xFFF) as u16,
                imm1: ((raw >> 12) & 0xF) as u8,
            },
            ActionFormat::Reg => Action {
                op,
                last,
                dst,
                rref: Reg::new(((raw >> 16) & 0xF) as u8),
                src: Reg::new(((raw >> 12) & 0xF) as u8),
                imm: 0,
                imm1: 0,
            },
        })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op.format() {
            ActionFormat::Imm => {
                write!(f, "{} {}, {}, #{}", self.op, self.dst, self.src, self.imm)?
            }
            ActionFormat::Imm2 => write!(
                f,
                "{} {}, {}, #{}, #{}",
                self.op, self.dst, self.src, self.imm1, self.imm
            )?,
            ActionFormat::Reg => {
                write!(f, "{} {}, {}, {}", self.op, self.dst, self.rref, self.src)?
            }
        }
        if self.last {
            write!(f, " !")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn opcode_count_is_about_fifty() {
        // The paper says "50 actions"; our reconstruction is a modest
        // superset (extra emit/stream plumbing standing in for the DLT
        // engine interface).
        assert!(
            Opcode::ALL.len() >= 45 && Opcode::ALL.len() <= 80,
            "expected ~50 opcodes, found {}",
            Opcode::ALL.len()
        );
    }

    #[test]
    fn formats_follow_opcode_ranges() {
        for &op in Opcode::ALL {
            let code = op as u8;
            let expect = if code < 0x40 {
                ActionFormat::Imm
            } else if code < 0x60 {
                ActionFormat::Imm2
            } else {
                ActionFormat::Reg
            };
            assert_eq!(op.format(), expect, "{op}");
        }
    }

    #[test]
    fn charge_table_follows_the_paper_costs() {
        use Opcode::*;
        let loops = [LoopCmp, LoopCmpM, LoopCpy, LoopOut, LoopBack, LoopIn];
        for &op in Opcode::ALL {
            let c = op.charge();
            let issue = match op {
                SetSymT => 0,
                BumpW => 2,
                _ => 1,
            };
            assert_eq!(c.issue, issue, "{op}");
            assert_eq!(c.bulk, loops.contains(&op), "{op}");
            assert_eq!(c.bulk_cycles(17), if c.bulk { 3 } else { 0 }, "{op}");
        }
        assert_eq!(EmitW.charge().out_bytes(9), 4);
        assert_eq!(LoopBack.charge().out_bytes(9), 9);
        assert_eq!(LoopCpy.charge().out_bytes(9), 0);
        assert!(LoopCpy.charge().writes_mem && !LoopOut.charge().writes_mem);
        assert_eq!(issue_cycles(&[SetSymT, BumpW, EmitB]), 3);
    }

    #[test]
    fn imm_round_trip() {
        let a = Action::imm(Opcode::AddI, Reg::new(3), Reg::new(7), 0xBEEF).ending();
        assert_eq!(Action::decode(a.encode()), Some(a));
    }

    #[test]
    fn imm2_round_trip() {
        let a = Action::imm2(Opcode::EmitBits, Reg::new(1), Reg::new(2), 0xA, 0x123);
        assert_eq!(Action::decode(a.encode()), Some(a));
    }

    #[test]
    fn reg_round_trip() {
        let a = Action::reg(Opcode::LoopCmp, Reg::new(4), Reg::new(5), Reg::new(6)).ending();
        assert_eq!(Action::decode(a.encode()), Some(a));
    }

    #[test]
    fn undefined_opcode_decodes_to_none() {
        assert_eq!(Action::decode(0x7F << 25), None);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Action::reg(Opcode::Add, Reg::new(1), Reg::new(2), Reg::new(3));
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    fn arb_opcode() -> impl Strategy<Value = Opcode> {
        (0..Opcode::ALL.len()).prop_map(|i| Opcode::ALL[i])
    }

    proptest! {
        #[test]
        fn prop_any_action_round_trips(
            op in arb_opcode(), last in proptest::bool::ANY,
            d in 0u8..16, r in 0u8..16, s in 0u8..16,
            imm in 0u16..=0xFFFF, imm1 in 0u8..=0xF,
        ) {
            let mut a = match op.format() {
                ActionFormat::Imm => Action::imm(op, Reg::new(d), Reg::new(s), imm),
                ActionFormat::Imm2 => Action::imm2(op, Reg::new(d), Reg::new(s), imm1, imm & 0xFFF),
                ActionFormat::Reg => Action::reg(op, Reg::new(d), Reg::new(r), Reg::new(s)),
            };
            a.last = last;
            prop_assert_eq!(Action::decode(a.encode()), Some(a));
        }

        #[test]
        fn prop_decode_is_total(raw in 0u32..=u32::MAX) {
            // Decode totality: every 32-bit word either decodes to an
            // action whose re-encoding is a decode fixpoint, or is
            // rejected as an undefined opcode — never a panic. This is
            // what lets a lane treat corrupted action words (fault
            // injection, bad images) as LaneStatus::Fault data.
            match Action::decode(raw) {
                Some(a) => prop_assert_eq!(Action::decode(a.encode()), Some(a)),
                None => prop_assert!(Opcode::from_code((raw >> 25) as u8).is_none()),
            }
        }
    }
}
