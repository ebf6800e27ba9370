//! Interval abstract interpretation over the decoded program graph
//! (DESIGN.md §9.1).
//!
//! Each placed state gets an abstract register environment — one
//! unsigned interval per scalar register — describing every value the
//! register can hold *at dispatch time* in any run that starts from the
//! architectural reset state (`regs = [0; 16]`, no host register
//! staging). A worklist fixpoint mirrors the reachability walk: an
//! arc's transfer function latches the dispatch symbol into `R13`
//! exactly as the lane does, threads the environment through the arc's
//! action block (weak updates under `SkipIfZ`/`SkipIfNz` shadows, since
//! a shadowed write may or may not land), and joins the result into the
//! target state. Widening caps the number of joins per state so the
//! fixpoint terminates on cyclic graphs.
//!
//! The cost analysis (`crate::cost`) consumes these environments to
//! bound loop-action trip counts (`LoopCmp`'s `R14` limit, the bulk
//! loops' `src` length operand); anything the domain cannot bound
//! surfaces there as a [`crate::Check::CostUnbounded`] finding.

use crate::checks::ReachInfo;
use crate::graph::{ActionBlock, ArcInfo, ProgramGraph, Slot};
use std::collections::VecDeque;
use udp_asm::ProgramImage;
use udp_isa::action::{Action, ActionFormat, Opcode};
use udp_isa::transition::ExecKind;
use udp_isa::{Reg, LOOP_CAP};

/// Joins (that changed the target) a state absorbs before further joins
/// widen straight to the extremes instead of creeping one bound at a
/// time. Small: precision past a few round trips is never load-bearing
/// for the cost bounds, and widening early keeps the fixpoint cheap.
const WIDEN_AFTER: u32 = 8;

/// An unsigned 32-bit interval `[lo, hi]` (inclusive, `lo <= hi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u32,
    /// Largest possible value.
    pub hi: u32,
}

impl Interval {
    /// The full range — "no information".
    pub const TOP: Interval = Interval {
        lo: 0,
        hi: u32::MAX,
    };

    /// A single known value.
    pub fn exact(v: u32) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// An explicit range (callers guarantee `lo <= hi`).
    pub fn of(lo: u32, hi: u32) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// `[0, 2^bits - 1]` — the value range of a `bits`-wide field.
    pub fn of_bits(bits: u32) -> Interval {
        if bits >= 32 {
            Interval::TOP
        } else {
            Interval {
                lo: 0,
                hi: (1u32 << bits) - 1,
            }
        }
    }

    /// Converts a signed 64-bit range, going to `TOP` when any part
    /// falls outside `u32` (i.e. the concrete op may wrap).
    fn from_i64(lo: i64, hi: i64) -> Interval {
        if lo < 0 || hi > i64::from(u32::MAX) || lo > hi {
            Interval::TOP
        } else {
            Interval {
                lo: lo as u32,
                hi: hi as u32,
            }
        }
    }

    /// True when nothing is known.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// True when the value is a single known constant.
    pub fn is_exact(self) -> bool {
        self.lo == self.hi
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Classic interval widening: any bound that moved jumps straight
    /// to its extreme.
    fn widen(self, newer: Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { 0 } else { self.lo },
            hi: if newer.hi > self.hi {
                u32::MAX
            } else {
                self.hi
            },
        }
    }
}

/// Smallest number of bits that can hold `x`.
fn bits_needed(x: u32) -> u32 {
    32 - x.leading_zeros()
}

/// One abstract register file: an interval per scalar register.
/// `R15` (the live stream index) is pinned to [`Interval::TOP`] — the
/// lane aliases it to the cursor on read and ignores writes.
pub type RegEnv = [Interval; 16];

/// The environment at architectural reset: every register zero, except
/// the `R15` stream-index alias which is the (unknown) cursor.
pub fn entry_env() -> RegEnv {
    let mut env = [Interval::exact(0); 16];
    env[15] = Interval::TOP;
    env
}

/// The fixpoint solution: an entry environment per placed state
/// (`None` for states the dispatch walk never reaches).
pub struct AbsInt {
    /// Per state (index as in [`ProgramGraph::states`]): the abstract
    /// register file *before* that state's dispatch.
    pub state_envs: Vec<Option<RegEnv>>,
}

impl AbsInt {
    /// The environment in force at the start of `arc`'s action block:
    /// the owning state's entry environment with the dispatch-symbol
    /// latch (`R13`) applied the way the lane's dispatch applies it.
    pub fn arc_block_entry(
        &self,
        graph: &ProgramGraph,
        reach: &ReachInfo,
        ai: usize,
    ) -> Option<RegEnv> {
        let arc = &graph.arcs[ai];
        let mut env = self.state_envs[arc.state]?;
        latch_symbol(&mut env, arc, reach.entered[arc.state]);
        Some(env)
    }

    /// The environment before each action of `arc`'s block (empty when
    /// the arc has no block). `None` when the owning state is
    /// unreached.
    pub fn arc_action_envs(
        &self,
        graph: &ProgramGraph,
        reach: &ReachInfo,
        ai: usize,
    ) -> Option<Vec<RegEnv>> {
        let env = self.arc_block_entry(graph, reach, ai)?;
        let arc = &graph.arcs[ai];
        Some(match &arc.block {
            Some(block) => block_action_envs(env, block).0,
            None => Vec::new(),
        })
    }
}

/// True when a state entered with `kind` reads its labeled slots.
fn symbol_entered(kind: Option<ExecKind>) -> bool {
    matches!(kind, Some(ExecKind::Consume | ExecKind::Flagged))
}

/// Applies the dispatch's `R13` symbol latch for one arc.
///
/// * Symbol-entered states (`Consume`/`Flagged`): a labeled hit pins
///   `R13` to the slot's symbol (the signature check guarantees the
///   dispatched value equals it); a signature miss latches whatever was
///   read, so the fallback path gets `[0, 255]` (symbols are at most 8
///   bits wide; a 32-bit `Consume` read that misses still masks the
///   *compared* byte but latches the full word — kept sound by `TOP`).
/// * `Pass` dispatch does not touch `R13`.
fn latch_symbol(env: &mut RegEnv, arc: &ArcInfo, entered: Option<ExecKind>) {
    if !symbol_entered(entered) {
        return;
    }
    match arc.slot {
        Slot::Labeled(sym) => env[13] = Interval::exact(u32::from(sym)),
        // The miss path latches the raw dispatched word; 8-bit symbol
        // reads stay within a byte but a 32-bit read does not.
        Slot::Fallback | Slot::Chain(_) => env[13] = Interval::TOP,
    }
}

/// Reads a register interval, honoring the `R15` stream-index alias.
fn rd(env: &RegEnv, r: Reg) -> Interval {
    if r == Reg::R15 {
        Interval::TOP
    } else {
        env[r.index() as usize]
    }
}

/// Writes a register interval; `conditional` writes join with the old
/// value (the action may be skipped), and `R15` writes are dropped as
/// the lane drops them.
fn wr(env: &mut RegEnv, r: Reg, v: Interval, conditional: bool) {
    if r == Reg::R15 {
        return;
    }
    let slot = &mut env[r.index() as usize];
    *slot = if conditional { slot.join(v) } else { v };
}

/// Threads `env` through one block, returning the environment *before*
/// each action plus whether the block's final action could be skipped
/// by a `SkipIfZ`/`SkipIfNz` shadow (in which case a static walk of the
/// recorded block diverges from the machine — the cost pass refuses to
/// certify such an arc).
pub(crate) fn block_action_envs(mut env: RegEnv, block: &ActionBlock) -> (Vec<RegEnv>, bool) {
    let mut envs = Vec::with_capacity(block.actions.len());
    let mut shadow = 0u8;
    // Once a skip itself sits under a shadow, the extent of *its*
    // shadow is unknown statically; everything after is conditional.
    let mut sticky = false;
    let mut last_conditional = false;
    for &(_, a) in &block.actions {
        envs.push(env);
        let conditional = sticky || shadow > 0;
        shadow = shadow.saturating_sub(1);
        if matches!(a.op, Opcode::SkipIfZ | Opcode::SkipIfNz) {
            if conditional {
                sticky = true;
            } else {
                shadow = a.imm1;
            }
        }
        if a.last {
            last_conditional = conditional;
        }
        transfer(&mut env, &a, conditional);
    }
    (envs, last_conditional)
}

/// Runs the worklist fixpoint over every reached state.
pub fn analyze(image: &ProgramImage, graph: &ProgramGraph, reach: &ReachInfo) -> AbsInt {
    let n = graph.states.len();
    let mut result = AbsInt {
        state_envs: vec![None; n],
    };
    let Some(&entry) = graph.base_index.get(&image.entry_base) else {
        return result;
    };
    let mut joins = vec![0u32; n];
    result.state_envs[entry] = Some(entry_env());
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; n];
    queue.push_back(entry);
    queued[entry] = true;

    while let Some(s) = queue.pop_front() {
        queued[s] = false;
        let Some(env) = result.state_envs[s] else {
            continue;
        };
        let follow_labeled = symbol_entered(reach.entered[s]);
        for &ai in &graph.states[s].arcs {
            if reach.phantom[ai] {
                continue;
            }
            let arc = &graph.arcs[ai];
            if matches!(arc.slot, Slot::Labeled(_)) && !follow_labeled {
                continue;
            }
            let Some(t) = arc.flat_target else { continue };
            let Some(&ti) = graph.base_index.get(&t) else {
                continue;
            };
            let mut out = env;
            latch_symbol(&mut out, arc, reach.entered[s]);
            if let Some(block) = &arc.block {
                out = block_exit_env(out, block);
            }
            let changed = match result.state_envs[ti] {
                None => {
                    result.state_envs[ti] = Some(out);
                    true
                }
                Some(old) => {
                    let joined = join_envs(&old, &out, joins[ti] >= WIDEN_AFTER);
                    if joined != old {
                        joins[ti] += 1;
                        result.state_envs[ti] = Some(joined);
                        true
                    } else {
                        false
                    }
                }
            };
            if changed && !queued[ti] {
                queued[ti] = true;
                queue.push_back(ti);
            }
        }
    }
    result
}

/// The environment after a whole block has run.
fn block_exit_env(mut env: RegEnv, block: &ActionBlock) -> RegEnv {
    let mut shadow = 0u8;
    let mut sticky = false;
    for &(_, a) in &block.actions {
        let conditional = sticky || shadow > 0;
        shadow = shadow.saturating_sub(1);
        if matches!(a.op, Opcode::SkipIfZ | Opcode::SkipIfNz) {
            if conditional {
                sticky = true;
            } else {
                shadow = a.imm1;
            }
        }
        transfer(&mut env, &a, conditional);
    }
    env
}

/// Per-register join (with widening after the join budget runs out).
fn join_envs(old: &RegEnv, new: &RegEnv, widen: bool) -> RegEnv {
    let mut out = *old;
    for (o, n) in out.iter_mut().zip(new.iter()) {
        let j = o.join(*n);
        *o = if widen { o.widen(j) } else { j };
    }
    out
}

/// The abstract transfer function for one action, mirroring the lane
/// interpreter's `exec` value semantics (`crates/sim/src/lane.rs`).
/// Ops with no register result (stores, emits, stream moves, config)
/// leave the environment unchanged — their *cost* is the cost pass's
/// business, not the value domain's.
pub(crate) fn transfer(env: &mut RegEnv, a: &Action, conditional: bool) {
    use Opcode::*;
    let imm = u32::from(a.imm);
    let simm = i64::from(a.imm as i16);
    let sv = rd(env, a.src);
    let dv = rd(env, a.dst);
    let rv = || {
        if a.op.format() == ActionFormat::Reg {
            rd(env, a.rref)
        } else {
            Interval::TOP
        }
    };
    let value = match a.op {
        MovI => Interval::exact(imm),
        MovIH => {
            if dv.is_exact() {
                Interval::exact((dv.lo & 0xFFFF) | (imm << 16))
            } else {
                Interval::of(imm << 16, (imm << 16) | 0xFFFF)
            }
        }
        AddI => Interval::from_i64(i64::from(sv.lo) + simm, i64::from(sv.hi) + simm),
        SubI => Interval::from_i64(i64::from(sv.lo) - simm, i64::from(sv.hi) - simm),
        AndI => {
            if sv.is_exact() {
                Interval::exact(sv.lo & imm)
            } else {
                Interval::of(0, sv.hi.min(imm))
            }
        }
        OrI => {
            if sv.is_exact() {
                Interval::exact(sv.lo | imm)
            } else {
                let b = bits_needed(sv.hi.max(imm));
                Interval::of(sv.lo.max(imm), Interval::of_bits(b).hi.max(sv.lo.max(imm)))
            }
        }
        XorI => {
            if sv.is_exact() {
                Interval::exact(sv.lo ^ imm)
            } else {
                Interval::of(0, Interval::of_bits(bits_needed(sv.hi.max(imm))).hi)
            }
        }
        ShlI => {
            let s = imm & 31;
            Interval::from_i64(i64::from(sv.lo) << s, i64::from(sv.hi) << s)
        }
        ShrI => {
            let s = imm & 31;
            Interval::of(sv.lo >> s, sv.hi >> s)
        }
        SarI => {
            if sv.hi < 0x8000_0000 {
                let s = imm & 31;
                Interval::of(sv.lo >> s, sv.hi >> s)
            } else {
                Interval::TOP
            }
        }
        LoadW | BumpW | Crc | FnvB | Hash2 | PeekW => Interval::TOP,
        LoadB | PeekAt => Interval::of(0, 255),
        SEqI | SLtI | SLtUI | SEq | SLt | SLtU | AtEof => Interval::of(0, 1),
        ReadBits | PeekBits => Interval::of_bits((imm & 31).max(1)),
        Hash => {
            if (1..32).contains(&a.imm) {
                Interval::of_bits(u32::from(a.imm))
            } else {
                Interval::TOP
            }
        }
        InIdx | OutIdx => Interval::TOP,
        Clz | Popcnt => Interval::of(0, 32),
        Extract => {
            let width = u32::from(a.imm & 0x1F).max(1);
            let mask = Interval::of_bits(width).hi;
            if sv.is_exact() {
                Interval::exact((sv.lo >> a.imm1) & mask)
            } else {
                Interval::of(0, mask.min(sv.hi >> a.imm1))
            }
        }
        Deposit => {
            let m = i64::from(Interval::of_bits(u32::from(a.imm1.max(1))).hi);
            Interval::from_i64(i64::from(dv.lo) << a.imm1, (i64::from(dv.hi) << a.imm1) | m)
        }
        Mov => sv,
        Add => {
            let r = rv();
            Interval::from_i64(
                i64::from(r.lo) + i64::from(sv.lo),
                i64::from(r.hi) + i64::from(sv.hi),
            )
        }
        Sub => {
            let r = rv();
            Interval::from_i64(
                i64::from(r.lo) - i64::from(sv.hi),
                i64::from(r.hi) - i64::from(sv.lo),
            )
        }
        And => Interval::of(0, rv().hi.min(sv.hi)),
        Or => {
            let r = rv();
            let b = bits_needed(r.hi.max(sv.hi));
            Interval::of(
                r.lo.max(sv.lo),
                Interval::of_bits(b).hi.max(r.lo.max(sv.lo)),
            )
        }
        Xor => Interval::of(0, Interval::of_bits(bits_needed(rv().hi.max(sv.hi))).hi),
        Shl => {
            let r = rv();
            if sv.is_exact() {
                let s = sv.lo & 31;
                Interval::from_i64(i64::from(r.lo) << s, i64::from(r.hi) << s)
            } else {
                Interval::TOP
            }
        }
        Shr => {
            let r = rv();
            if sv.is_exact() {
                let s = sv.lo & 31;
                Interval::of(r.lo >> s, r.hi >> s)
            } else {
                Interval::of(0, r.hi)
            }
        }
        Mul => {
            let r = rv();
            match (
                u64::from(r.lo).checked_mul(u64::from(sv.lo)),
                u64::from(r.hi).checked_mul(u64::from(sv.hi)),
            ) {
                (Some(lo), Some(hi)) if hi <= u64::from(u32::MAX) => {
                    Interval::of(lo as u32, hi as u32)
                }
                _ => Interval::TOP,
            }
        }
        Min => {
            let r = rv();
            Interval::of(r.lo.min(sv.lo), r.hi.min(sv.hi))
        }
        Max => {
            let r = rv();
            Interval::of(r.lo.max(sv.lo), r.hi.max(sv.hi))
        }
        SubSat => {
            let r = rv();
            Interval::of(r.lo.saturating_sub(sv.hi), r.hi.saturating_sub(sv.lo))
        }
        Sel => {
            // Conditional move: may keep the old value.
            wr(env, a.dst, sv, true);
            return;
        }
        LoopCmp | LoopCmpM => {
            // Prefix length, capped by R14 and the architectural cap.
            let limit = env[14].hi.min(LOOP_CAP);
            Interval::of(0, limit)
        }
        // No register result.
        Nop | SetSym | SetSymT | SetBase | SetABase | SetAScale | StoreW | StoreB | EmitB
        | EmitW | SkipB | RefillI | Report | Accept | Halt | EmitBits | SkipIfZ | SkipIfNz
        | LoopCpy | LoopOut | LoopBack | LoopIn => return,
    };
    wr(env, a.dst, value, conditional);
}

#[cfg(test)]
mod tests {
    use super::*;
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::Action;

    #[test]
    fn interval_algebra() {
        let a = Interval::of(2, 6);
        let b = Interval::of(4, 10);
        assert_eq!(a.join(b), Interval::of(2, 10));
        assert!(Interval::TOP.is_top());
        assert_eq!(Interval::of_bits(8), Interval::of(0, 255));
        assert_eq!(Interval::of_bits(32), Interval::TOP);
        assert_eq!(Interval::from_i64(-1, 5), Interval::TOP);
        assert_eq!(a.widen(Interval::of(1, 6)), Interval::of(0, 6));
        assert_eq!(a.widen(Interval::of(2, 7)), Interval::of(2, u32::MAX));
    }

    #[test]
    fn transfer_tracks_constants_and_ranges() {
        let mut env = entry_env();
        transfer(
            &mut env,
            &Action::imm(Opcode::MovI, Reg::new(1), Reg::R0, 40),
            false,
        );
        transfer(
            &mut env,
            &Action::imm(Opcode::AddI, Reg::new(2), Reg::new(1), 2),
            false,
        );
        assert_eq!(env[2], Interval::exact(42));
        transfer(
            &mut env,
            &Action::imm(Opcode::ReadBits, Reg::new(3), Reg::R0, 4),
            false,
        );
        assert_eq!(env[3], Interval::of(0, 15));
        // Conditional writes join with the old value.
        transfer(
            &mut env,
            &Action::imm(Opcode::MovI, Reg::new(2), Reg::R0, 7),
            true,
        );
        assert_eq!(env[2], Interval::of(7, 42));
        // R15 reads are the live cursor: unknown.
        transfer(
            &mut env,
            &Action::imm(Opcode::AddI, Reg::new(4), Reg::R15, 0),
            false,
        );
        assert!(env[4].is_top());
    }

    #[test]
    fn fixpoint_reaches_all_states_with_sound_envs() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        let t = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(
            s,
            b'a' as u16,
            Target::State(t),
            vec![Action::imm(Opcode::MovI, Reg::new(5), Reg::R0, 9)],
        );
        b.fallback_arc(s, Target::State(s), vec![]);
        b.labeled_arc(t, b'b' as u16, Target::State(s), vec![]);
        b.fallback_arc(t, Target::Halt, vec![]);
        let image = b.assemble(&LayoutOptions::default()).unwrap();
        let graph = ProgramGraph::decode(&image);
        let reach = crate::checks::compute_reach(&image, &graph);
        let ai = analyze(&image, &graph, &reach);
        for (si, env) in ai.state_envs.iter().enumerate() {
            assert!(env.is_some(), "state {si} unreached by absint");
        }
        // r5 is either 0 (never took the arc) or 9.
        let entry = graph.base_index[&image.entry_base];
        let env = ai.state_envs[entry].unwrap();
        assert_eq!(env[5], Interval::of(0, 9));
    }
}
