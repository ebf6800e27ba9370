//! Action-block idioms the compiled backend fuses into superops
//! (DESIGN.md §2.6.3–4). One recognizer per idiom: the simulator's
//! compiled backend fuses what these match, and the verifier's span
//! amortization builds on the same match.

use udp_isa::action::{issue_cycles, Action, Opcode};
use udp_isa::Reg;

/// The `InIdx; Sub; LoopIn; EmitB; InIdx` action-block prefix — the
/// span-emit idiom every field/record boundary of the scanner-style
/// kernels runs (copy the input bytes since the last mark to the
/// output, append a separator, re-mark). Holds the register numbers and
/// immediates so a backend can run the whole prefix as one
/// straight-line routine.
///
/// None of the five ops moves the stream cursor or writes memory, so
/// the input index read by the leading `InIdx` still holds for the
/// trailing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitSpan {
    /// `InIdx` destination (the span-end mark).
    pub d0: u8,
    /// Sign-extended immediate of the leading `InIdx`.
    pub off0: u32,
    /// `Sub` destination (the span length).
    pub d1: u8,
    /// `Sub` reference register (minuend).
    pub r1: u8,
    /// `Sub` source register (subtrahend).
    pub s1: u8,
    /// `LoopIn` reference register (input start index).
    pub r2: u8,
    /// `LoopIn` source register (length).
    pub s2: u8,
    /// `EmitB` source register.
    pub s3: u8,
    /// `EmitB` immediate.
    pub imm3: u32,
    /// Trailing `InIdx` destination (the new mark).
    pub d4: u8,
    /// Sign-extended immediate of the trailing `InIdx`.
    pub off4: u32,
}

impl EmitSpan {
    /// The idiom's opcodes, in program order.
    pub const OPS: [Opcode; 5] = [
        Opcode::InIdx,
        Opcode::Sub,
        Opcode::LoopIn,
        Opcode::EmitB,
        Opcode::InIdx,
    ];
    /// Length of the prefix in actions.
    pub const LEN: usize = Self::OPS.len();
    /// Issue cycles of the whole prefix; the `LoopIn` bulk charge comes
    /// on top.
    pub const ISSUE_CYCLES: u64 = issue_cycles(&Self::OPS);
    /// Issue cycles of the three actions that ran when the `LoopIn`
    /// length check faults.
    pub const FAULT_CYCLES: u64 = issue_cycles(Self::OPS.split_at(3).0);

    /// Matches the idiom against a block's first five actions. Declines
    /// when any consulted register is `R15` (the live input index), so a
    /// fused routine can read the plain register file.
    pub fn recognize(block: &[Action]) -> Option<EmitSpan> {
        let [a0, a1, a2, a3, a4] = block.get(..Self::LEN)? else {
            return None;
        };
        let ops = [a0.op, a1.op, a2.op, a3.op, a4.op];
        let regs = [
            a0.dst, a1.dst, a1.rref, a1.src, a2.rref, a2.src, a3.src, a4.dst,
        ];
        if ops != Self::OPS || regs.contains(&Reg::R15) {
            return None;
        }
        let sx = |imm: u16| i32::from(imm as i16) as u32;
        Some(EmitSpan {
            d0: a0.dst.index(),
            off0: sx(a0.imm),
            d1: a1.dst.index(),
            r1: a1.rref.index(),
            s1: a1.src.index(),
            r2: a2.rref.index(),
            s2: a2.src.index(),
            s3: a3.src.index(),
            imm3: u32::from(a3.imm),
            d4: a4.dst.index(),
            off4: sx(a4.imm),
        })
    }

    /// True when any consulted register is `R13` — the dispatch-symbol
    /// latch, which a burst loop may defer syncing, so an in-burst fused
    /// run must not read or clobber it.
    pub fn touches_r13(&self) -> bool {
        [
            self.d0, self.d1, self.r1, self.s1, self.r2, self.s2, self.s3, self.d4,
        ]
        .contains(&13)
    }
}

/// What [`recognize_bitemit`] extracts from a fusable block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitEmitShape {
    /// Constant output bits (MSB-first), folded from the `MovI`/`EmitBits`
    /// pairs.
    pub code: u32,
    /// Number of bits in `code`; 0 when the block is a lone `EmitB`.
    pub len: u8,
    /// Final register writes of the block (≤ 2 distinct registers).
    pub writes: [(u8, u32); 2],
    /// Valid entries of `writes`.
    pub nwrites: u8,
    /// Trailing dynamic `EmitB src, imm`, as `(src, imm)`.
    pub dyn_byte: Option<(u8, u16)>,
}

/// Recognizes the action-per-symbol emit idiom: a sequence of ≤ 2
/// `MovI rd, imm; EmitBits rd, w` constant pairs (folded into one
/// ≤ 32-bit code, ≤ 2 distinct destination registers), optionally
/// ending in a single `EmitB src, imm` (kept dynamic — it reads `src`
/// live). A lone `EmitB` matches too (the refill decoder's emit block).
/// Any register the block touches must be neither `R13` (a burst may
/// defer the symbol latch) nor `R15` (reads the stream cursor).
pub fn recognize_bitemit(acts: &[Action]) -> Option<BitEmitShape> {
    let mut code: u64 = 0;
    let mut len: u32 = 0;
    let mut writes: Vec<(u8, u32)> = Vec::new();
    let mut dyn_byte = None;
    let mut i = 0;
    let banned = |r: Reg| r == Reg::R13 || r == Reg::R15;
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
            dyn_byte = Some((a.src.index(), a.imm));
            break;
        } else {
            return None;
        }
    }
    if len == 0 && dyn_byte.is_none() {
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
        dyn_byte,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_block() -> Vec<Action> {
        let (mark, len, end) = (Reg::new(1), Reg::new(2), Reg::new(3));
        vec![
            Action::imm(Opcode::InIdx, end, Reg::R0, 0xFFFF),
            Action::reg(Opcode::Sub, len, end, mark),
            Action::reg(Opcode::LoopIn, Reg::R0, mark, len),
            Action::imm(Opcode::EmitB, Reg::R0, Reg::new(12), u16::from(b'|')),
            Action::imm(Opcode::InIdx, mark, Reg::R0, 0),
        ]
    }

    #[test]
    fn span_charges_come_from_the_charge_table() {
        assert_eq!(EmitSpan::ISSUE_CYCLES, 5);
        assert_eq!(EmitSpan::FAULT_CYCLES, 3);
    }

    #[test]
    fn span_matches_the_prefix_and_refuses_r15() {
        let block = span_block();
        let f = EmitSpan::recognize(&block).expect("idiom");
        assert_eq!((f.d0, f.off0, f.s1, f.d4, f.off4), (3, u32::MAX, 1, 1, 0));
        assert!(!f.touches_r13());
        assert!(EmitSpan::recognize(&block[..4]).is_none());
        let mut r15 = block.clone();
        r15[1].src = Reg::R15;
        assert!(EmitSpan::recognize(&r15).is_none());
        let mut swapped = block;
        swapped.swap(3, 4);
        assert!(EmitSpan::recognize(&swapped).is_none());
    }

    #[test]
    fn bitemit_folds_pairs_and_keeps_a_trailing_emit_dynamic() {
        let r1 = Reg::new(1);
        let pairs = vec![
            Action::imm(Opcode::MovI, r1, Reg::R0, 0b101),
            Action::imm2(Opcode::EmitBits, Reg::R0, r1, 3, 0),
            Action::imm(Opcode::MovI, r1, Reg::R0, 0b1),
            Action::imm2(Opcode::EmitBits, Reg::R0, r1, 2, 0),
        ];
        let sh = recognize_bitemit(&pairs).expect("pairs");
        assert_eq!((sh.code, sh.len, sh.nwrites), (0b10101, 5, 1));
        assert_eq!(sh.writes[0], (1, 1));
        assert_eq!(sh.dyn_byte, None);

        let emit = Action::imm(Opcode::EmitB, Reg::R0, Reg::new(12), 7);
        let mut tailed = pairs.clone();
        tailed.push(emit);
        assert_eq!(recognize_bitemit(&tailed).unwrap().dyn_byte, Some((12, 7)));
        let lone = recognize_bitemit(&[emit]).expect("lone EmitB");
        assert_eq!((lone.len, lone.dyn_byte), (0, Some((12, 7))));

        assert!(recognize_bitemit(&[]).is_none());
        let mut banned = pairs;
        banned[0].dst = Reg::R13;
        banned[1].src = Reg::R13;
        assert!(recognize_bitemit(&banned).is_none());
    }
}
