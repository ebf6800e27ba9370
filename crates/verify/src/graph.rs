//! Decoded transition/action graph: the shared substrate every check
//! pass walks.
//!
//! [`ProgramGraph::decode`] mirrors the lane's dispatch semantics
//! (`udp-sim`'s `Lane`) without executing anything: for each recorded
//! state base it collects the labeled words (`base + symbol` whose
//! signature matches the offset), the fallback/epsilon chain starting at
//! `base + 256`, and each arc's attached action block, then resolves
//! every arc to a *flat* (window-relative) target address by applying
//! the same `wbase + target` arithmetic the engine uses — including the
//! assembler-injected `SetBase` segment switches.

use std::collections::HashMap;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_asm::ProgramImage;
use udp_isa::action::{Action, ActionFormat, Opcode};
use udp_isa::transition::{ExecKind, TransitionWord};
use udp_isa::{BLOCK_CAP, FALLBACK_SLOT};

/// Upper bound on an epsilon/fork chain walk.
const CHAIN_CAP: u32 = 256;

/// Which slot of its owning state an arc was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Labeled word at `base + symbol`.
    Labeled(u8),
    /// The terminating word of the fallback chain (`base + 256 + k`).
    Fallback,
    /// A continuing (`0xFE`-signature) word of an epsilon fork chain.
    Chain(u32),
}

/// A decoded action block attached to one transition word.
#[derive(Debug, Clone, Default)]
pub struct ActionBlock {
    /// Flat word address of the first action.
    pub start: u32,
    /// Decoded actions with their word addresses, in execution order.
    pub actions: Vec<(u32, Action)>,
    /// Address of the first word that failed [`Action::decode`], if any.
    pub undecodable: Option<u32>,
    /// True when no `last` bit was found before running off the image
    /// (or past [`BLOCK_CAP`] words).
    pub unterminated: bool,
}

/// One transition word, decoded and resolved.
#[derive(Debug, Clone)]
pub struct ArcInfo {
    /// Flat word address of the transition word.
    pub addr: u32,
    /// Index of the owning state in [`ProgramGraph::states`].
    pub state: usize,
    /// Slot the word occupies in its owner.
    pub slot: Slot,
    /// The decoded word.
    pub word: TransitionWord,
    /// The attached action block, when `attach != 0`.
    pub block: Option<ActionBlock>,
    /// Immediate of the last *unconditional* `SetBase` in the block.
    pub set_base: Option<u16>,
    /// True when a `SetBase` sits under a `SkipIfZ`/`SkipIfNz` shadow, so
    /// the flat target cannot be resolved statically.
    pub set_base_ambiguous: bool,
    /// Resolved flat target address (`None` for `Halt` arcs or when
    /// `set_base_ambiguous`).
    pub flat_target: Option<u32>,
    /// True when taking this arc may consume stream bytes through its
    /// action block (`ReadBits` / `SkipB`).
    pub may_consume: bool,
    /// True when the block contains a `Halt` action.
    pub may_halt: bool,
}

/// One placed state and its outgoing arcs.
#[derive(Debug, Clone)]
pub struct StateInfo {
    /// Base word address.
    pub base: u32,
    /// Indices into [`ProgramGraph::arcs`].
    pub arcs: Vec<usize>,
    /// Number of words in the fallback chain (0 = empty fallback slot;
    /// 1 = plain fallback/pass; >1 = epsilon fork chain).
    pub chain_len: u32,
    /// True when the chain hit `CHAIN_CAP` without a terminator.
    pub chain_unterminated: bool,
    /// True when the state owns at least one labeled word.
    pub has_labeled: bool,
}

/// Who owns a claimed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Transition word of the state at this index.
    Transition(usize),
    /// Member of some (possibly shared) action block.
    ActionWord,
}

/// The decoded program graph plus the word-ownership map.
#[derive(Debug, Clone)]
pub struct ProgramGraph {
    /// All placed states, in `state_bases` order.
    pub states: Vec<StateInfo>,
    /// All decoded arcs.
    pub arcs: Vec<ArcInfo>,
    /// `base -> state index` (first occurrence wins on duplicates).
    pub base_index: HashMap<u32, usize>,
    /// `flat addr -> owner` for every word the program references.
    pub claims: HashMap<u32, Claim>,
    /// Addresses claimed twice incompatibly, with both owners.
    pub collisions: Vec<(u32, Claim, Claim)>,
}

impl ProgramGraph {
    /// Decodes an image into its graph form. Total: malformed words are
    /// recorded (undecodable blocks, unterminated chains), never skipped
    /// silently and never a panic.
    pub fn decode(image: &ProgramImage) -> ProgramGraph {
        let words = &image.words;
        let mut g = ProgramGraph {
            states: Vec::with_capacity(image.state_bases.len()),
            arcs: Vec::new(),
            base_index: HashMap::new(),
            claims: HashMap::new(),
            collisions: Vec::new(),
        };

        for (si, &base) in image.state_bases.iter().enumerate() {
            g.base_index.entry(base).or_insert(si);
            let mut st = StateInfo {
                base,
                arcs: Vec::new(),
                chain_len: 0,
                chain_unterminated: false,
                has_labeled: false,
            };

            // Labeled words: base + symbol, signature must echo the offset.
            for off in 0..FALLBACK_SLOT {
                let addr = base + off;
                let Some(&raw) = words.get(addr as usize) else {
                    break;
                };
                if raw == 0 {
                    continue;
                }
                let t = TransitionWord::decode(raw);
                if t.signature() != off as u8 {
                    continue; // foreign word interleaved here
                }
                st.has_labeled = true;
                let ai = g.push_arc(image, si, addr, Slot::Labeled(off as u8), t);
                st.arcs.push(ai);
            }

            // Fallback / epsilon-fork chain: base + 256, continuing while
            // the signature reads CHAIN_CONTINUE (0xFE).
            for k in 0..CHAIN_CAP {
                let addr = base + FALLBACK_SLOT + k;
                let raw = words.get(addr as usize).copied().unwrap_or(0);
                if raw == 0 {
                    break;
                }
                let t = TransitionWord::decode(raw);
                let cont = t.signature() == CHAIN_CONTINUE_SIGNATURE;
                let slot = if cont { Slot::Chain(k) } else { Slot::Fallback };
                let ai = g.push_arc(image, si, addr, slot, t);
                st.arcs.push(ai);
                st.chain_len = k + 1;
                if !cont {
                    break;
                }
                if k + 1 == CHAIN_CAP {
                    st.chain_unterminated = true;
                }
            }

            g.states.push(st);
        }
        g
    }

    /// Decodes one transition word, claims it, walks its action block,
    /// and resolves its flat target.
    fn push_arc(
        &mut self,
        image: &ProgramImage,
        state: usize,
        addr: u32,
        slot: Slot,
        word: TransitionWord,
    ) -> usize {
        self.claim(addr, Claim::Transition(state));

        let block = match word.attach_mode() {
            _ if word.attach() == 0 => None,
            udp_isa::AttachMode::Direct => Some(u32::from(word.attach())),
            udp_isa::AttachMode::Scaled => {
                Some(image.init.abase + (u32::from(word.attach()) << (image.init.ascale & 31)))
            }
        }
        .map(|start| self.walk_block(image, start));

        let (set_base, set_base_ambiguous, may_consume, may_halt) = block
            .as_ref()
            .map(summarize_block)
            .unwrap_or((None, false, false, false));

        let base = image.state_bases[state];
        let flat_target = if word.kind() == ExecKind::Halt || set_base_ambiguous {
            None
        } else {
            let wbase = set_base.map_or(base & !0xFFF, u32::from);
            Some(wbase + u32::from(word.target()))
        };

        self.arcs.push(ArcInfo {
            addr,
            state,
            slot,
            word,
            block,
            set_base,
            set_base_ambiguous,
            flat_target,
            may_consume,
            may_halt,
        });
        self.arcs.len() - 1
    }

    /// Walks an action block exactly as the lane interpreter would,
    /// claiming each word.
    fn walk_block(&mut self, image: &ProgramImage, start: u32) -> ActionBlock {
        let mut block = ActionBlock {
            start,
            ..ActionBlock::default()
        };
        for addr in start..start.saturating_add(BLOCK_CAP as u32) {
            let Some(&raw) = image.words.get(addr as usize) else {
                // Off the image: the lane would chew zero words (Nop,
                // no last bit) until its runaway cap faults.
                block.unterminated = true;
                return block;
            };
            let Some(a) = Action::decode(raw) else {
                block.undecodable = Some(addr);
                return block;
            };
            self.claim(addr, Claim::ActionWord);
            block.actions.push((addr, a));
            if a.last {
                return block;
            }
        }
        block.unterminated = true;
        block
    }

    fn claim(&mut self, addr: u32, claim: Claim) {
        match self.claims.get(&addr) {
            None => {
                self.claims.insert(addr, claim);
            }
            Some(&prev) => {
                // Shared action blocks are interned by the assembler, so
                // two arcs claiming the same action word is legitimate;
                // anything else is a collision.
                let compatible =
                    prev == claim || (prev == Claim::ActionWord && claim == Claim::ActionWord);
                if !compatible {
                    self.collisions.push((addr, prev, claim));
                }
            }
        }
    }
}

/// `(set_base, ambiguous, may_consume, may_halt)` for one block,
/// tracking `SkipIfZ`/`SkipIfNz` predication shadows.
fn summarize_block(block: &ActionBlock) -> (Option<u16>, bool, bool, bool) {
    let mut set_base = None;
    let mut ambiguous = false;
    let mut may_consume = false;
    let mut may_halt = false;
    let mut shadow = 0u8;
    for &(_, a) in &block.actions {
        let conditional = shadow > 0;
        shadow = shadow.saturating_sub(1);
        match a.op {
            Opcode::SetBase if conditional => ambiguous = true,
            Opcode::SetBase => {
                set_base = Some(a.imm);
                ambiguous = false;
            }
            Opcode::ReadBits | Opcode::SkipB => may_consume = true,
            Opcode::Halt => may_halt = true,
            Opcode::SkipIfZ | Opcode::SkipIfNz => shadow = a.imm1,
            _ => {}
        }
    }
    (set_base, ambiguous, may_consume, may_halt)
}

/// Registers an action reads (beyond the architectural zero default),
/// matching the lane interpreter's `exec` semantics. `SetBase` ignores
/// its `src`; `StoreW`/`StoreB` read `dst` as the address base;
/// `LoopCmp`/`LoopCmpM` additionally read the `R14` limit convention.
pub fn action_reads(a: &Action) -> Vec<udp_isa::Reg> {
    use Opcode::*;
    let mut reads = Vec::new();
    match a.op.format() {
        ActionFormat::Imm => match a.op {
            AddI | SubI | AndI | OrI | XorI | ShlI | ShrI | SarI | LoadW | LoadB | SEqI | SLtI
            | SLtUI | BumpW | EmitB | EmitW | SkipB | Hash | Clz | Popcnt | SetABase => {
                reads.push(a.src)
            }
            StoreW | StoreB | Crc | FnvB => {
                reads.push(a.dst);
                reads.push(a.src);
            }
            MovIH => reads.push(a.dst),
            Nop | MovI | SetSym | SetSymT | SetBase | SetAScale | ReadBits | RefillI | Report
            | Accept | Halt | InIdx | OutIdx | PeekBits | AtEof => {}
            _ => {}
        },
        ActionFormat::Imm2 => match a.op {
            EmitBits | Extract | SkipIfZ | SkipIfNz => reads.push(a.src),
            Deposit => {
                reads.push(a.dst);
                reads.push(a.src);
            }
            _ => {}
        },
        ActionFormat::Reg => {
            match a.op {
                Mov => reads.push(a.src),
                Sel | LoopCpy => {
                    reads.push(a.dst);
                    reads.push(a.rref);
                    reads.push(a.src);
                }
                _ => {
                    reads.push(a.rref);
                    reads.push(a.src);
                }
            }
            if matches!(a.op, LoopCmp | LoopCmpM) {
                reads.push(udp_isa::Reg::R14);
            }
        }
    }
    reads
}

/// The register an action writes, if any.
pub fn action_write(a: &Action) -> Option<udp_isa::Reg> {
    use Opcode::*;
    match a.op {
        // Imm format.
        MovI | MovIH | AddI | SubI | AndI | OrI | XorI | ShlI | ShrI | SarI | LoadW | LoadB
        | SEqI | SLtI | SLtUI | ReadBits | BumpW | Crc | Hash | FnvB | InIdx | Clz | Popcnt
        | OutIdx | PeekBits | AtEof => Some(a.dst),
        // Imm2 format.
        Extract | Deposit => Some(a.dst),
        // Reg format.
        Mov | Add | Sub | And | Or | Xor | Shl | Shr | Mul | Min | Max | SEq | SLt | SLtU | Sel
        | LoopCmp | LoopCmpM | PeekAt | PeekW | SubSat | Hash2 => Some(a.dst),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::Reg;

    fn two_state() -> ProgramImage {
        let mut b = ProgramBuilder::new();
        let a = b.add_consuming_state();
        let z = b.add_consuming_state();
        b.set_entry(a);
        b.labeled_arc(
            a,
            b'x' as u16,
            Target::State(z),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, 1)],
        );
        b.fallback_arc(a, Target::State(a), vec![]);
        b.labeled_arc(z, b'y' as u16, Target::State(a), vec![]);
        b.fallback_arc(z, Target::Halt, vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    #[test]
    fn decode_finds_states_arcs_and_blocks() {
        let img = two_state();
        let g = ProgramGraph::decode(&img);
        assert_eq!(g.states.len(), 2);
        assert_eq!(g.arcs.len(), 4);
        assert!(g.collisions.is_empty());
        let with_block = g.arcs.iter().filter(|a| a.block.is_some()).count();
        assert_eq!(with_block, 1);
        let blk = g
            .arcs
            .iter()
            .find_map(|a| a.block.as_ref())
            .expect("one block");
        assert!(!blk.unterminated);
        assert_eq!(blk.undecodable, None);
        assert_eq!(blk.actions.len(), 1);
    }

    #[test]
    fn flat_targets_resolve_to_state_bases() {
        let img = two_state();
        let g = ProgramGraph::decode(&img);
        for arc in &g.arcs {
            if arc.word.kind() == ExecKind::Halt {
                assert_eq!(arc.flat_target, None);
            } else {
                let t = arc.flat_target.expect("resolved");
                assert!(
                    g.base_index.contains_key(&t),
                    "target {t:#x} not a state base"
                );
            }
        }
    }

    #[test]
    fn set_base_overrides_segment() {
        // A raw arc word whose block carries SetBase #0x1000 must resolve
        // into segment 1 even though its owner sits in segment 0.
        let mut img = two_state();
        // Append a private block: SetBase then last-Nop.
        let start = img.words.len() as u32;
        img.words
            .push(Action::imm(Opcode::SetBase, Reg::R0, Reg::R0, 0x1000).encode());
        img.words.push(
            Action::imm(Opcode::Nop, Reg::R0, Reg::R0, 0)
                .ending()
                .encode(),
        );
        // Scaled attach is 1-based: attach 1 at ascale 0 resolves to
        // abase + 1, so park abase one word before the block.
        img.init.abase = start - 1;
        img.init.ascale = 0;
        let base = img.state_bases[0];
        let sym = 0x21u32; // '!' — unused slot in the sample
        let w = TransitionWord::new(
            sym as u8,
            0x123,
            ExecKind::Consume,
            udp_isa::AttachMode::Scaled,
            1,
        );
        img.words[(base + sym) as usize] = w.encode();
        let g = ProgramGraph::decode(&img);
        let arc = g
            .arcs
            .iter()
            .find(|a| a.addr == base + sym)
            .expect("injected arc");
        assert_eq!(arc.set_base, Some(0x1000));
        assert_eq!(arc.flat_target, Some(0x1123));
    }

    #[test]
    fn reads_and_writes_match_exec_semantics() {
        let st = Action::imm(Opcode::StoreW, Reg::new(2), Reg::new(3), 8);
        assert_eq!(action_reads(&st), vec![Reg::new(2), Reg::new(3)]);
        assert_eq!(action_write(&st), None);

        let sb = Action::imm(Opcode::SetBase, Reg::R0, Reg::new(9), 0);
        assert!(action_reads(&sb).is_empty(), "SetBase ignores src");

        let lc = Action::reg(Opcode::LoopCmp, Reg::new(1), Reg::new(2), Reg::new(3));
        assert!(action_reads(&lc).contains(&Reg::R14));
        assert_eq!(action_write(&lc), Some(Reg::new(1)));

        let mv = Action::imm(Opcode::MovI, Reg::new(5), Reg::R0, 7);
        assert!(action_reads(&mv).is_empty());
        assert_eq!(action_write(&mv), Some(Reg::new(5)));
    }
}
