//! The action-block idiom the compiled backend fuses into a superop
//! (DESIGN.md §2.6.3). The simulator's compiled backend fuses what
//! [`EmitSpan::recognize`] matches, and the verifier's span
//! amortization builds on the same match. Action-per-symbol blocks
//! need no recognizer: the compiled backend lowers any block of
//! [`udp_isa::Action::fusable`] actions (§2.6.4).

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
        Some(EmitSpan {
            d0: a0.dst.index(),
            off0: a0.op.imm_value(a0.imm),
            d1: a1.dst.index(),
            r1: a1.rref.index(),
            s1: a1.src.index(),
            r2: a2.rref.index(),
            s2: a2.src.index(),
            s3: a3.src.index(),
            imm3: u32::from(a3.imm),
            d4: a4.dst.index(),
            off4: a4.op.imm_value(a4.imm),
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
}
