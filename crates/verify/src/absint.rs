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
use udp_isa::action::{Action, Opcode, ValueDomain};
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

    /// The values `lo..=hi` of a signed 64-bit computation taken modulo
    /// 2^32: exact when the range lies within one 2^32 window, else `TOP`.
    fn from_i64(lo: i64, hi: i64) -> Interval {
        let w = lo.div_euclid(1 << 32);
        if hi.div_euclid(1 << 32) != w {
            return Interval::TOP;
        }
        Interval {
            lo: (lo - (w << 32)) as u32,
            hi: (hi - (w << 32)) as u32,
        }
    }

    /// `f` of the two values when both are known, else `otherwise`.
    fn fold(self, rhs: Interval, f: impl Fn(u32, u32) -> u32, otherwise: Interval) -> Interval {
        if self.is_exact() && rhs.is_exact() {
            Interval::exact(f(self.lo, rhs.lo))
        } else {
            otherwise
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

/// `x` with every bit below its highest set bit set: the largest value
/// with no more bits than `x`.
fn smear(x: u32) -> u32 {
    u32::MAX.checked_shr(x.leading_zeros()).unwrap_or(0)
}

/// Interval semantics of the ISA's value operations: each result covers
/// the concrete ([`u32`]) result of every pair of members.
impl ValueDomain for Interval {
    fn exact(v: u32) -> Interval {
        Interval::exact(v)
    }

    fn add(self, rhs: Interval) -> Interval {
        let lo = i64::from(self.lo) + i64::from(rhs.lo);
        Interval::from_i64(lo, i64::from(self.hi) + i64::from(rhs.hi))
    }

    fn sub(self, rhs: Interval) -> Interval {
        let lo = i64::from(self.lo) - i64::from(rhs.hi);
        Interval::from_i64(lo, i64::from(self.hi) - i64::from(rhs.lo))
    }

    fn mul(self, rhs: Interval) -> Interval {
        // Products of `u32`s fit a `u64`; one 2^32 window keeps the order.
        let lo = u64::from(self.lo) * u64::from(rhs.lo);
        let hi = u64::from(self.hi) * u64::from(rhs.hi);
        if lo >> 32 == hi >> 32 {
            Interval::of(lo as u32, hi as u32)
        } else {
            Interval::TOP
        }
    }

    fn and(self, rhs: Interval) -> Interval {
        let hi = self.hi.min(rhs.hi);
        self.fold(rhs, <u32 as ValueDomain>::and, Interval::of(0, hi))
    }

    fn or(self, rhs: Interval) -> Interval {
        // `x | y <= a | smear(b)` for `x <= a`, `y <= b`, and symmetrically.
        let hi = (self.hi | smear(rhs.hi)).min(smear(self.hi) | rhs.hi);
        let range = Interval::of(self.lo.max(rhs.lo), hi);
        self.fold(rhs, <u32 as ValueDomain>::or, range)
    }

    fn xor(self, rhs: Interval) -> Interval {
        let hi = smear(self.hi.max(rhs.hi));
        self.fold(rhs, <u32 as ValueDomain>::xor, Interval::of(0, hi))
    }

    fn shl(self, rhs: Interval) -> Interval {
        if !rhs.is_exact() {
            return Interval::TOP;
        }
        let s = rhs.lo & 31;
        Interval::from_i64(i64::from(self.lo) << s, i64::from(self.hi) << s)
    }

    fn shr(self, rhs: Interval) -> Interval {
        if !rhs.is_exact() {
            return Interval::of(0, self.hi);
        }
        let s = rhs.lo & 31;
        Interval::of(self.lo >> s, self.hi >> s)
    }

    fn sar(self, rhs: Interval) -> Interval {
        // Logical and arithmetic shifts agree on values below 2^31.
        let range = if self.hi < 1 << 31 {
            self.shr(rhs)
        } else {
            Interval::TOP
        };
        self.fold(rhs, <u32 as ValueDomain>::sar, range)
    }

    fn umin(self, rhs: Interval) -> Interval {
        Interval::of(self.lo.min(rhs.lo), self.hi.min(rhs.hi))
    }

    fn umax(self, rhs: Interval) -> Interval {
        Interval::of(self.lo.max(rhs.lo), self.hi.max(rhs.hi))
    }

    fn sub_sat(self, rhs: Interval) -> Interval {
        Interval::of(
            self.lo.saturating_sub(rhs.hi),
            self.hi.saturating_sub(rhs.lo),
        )
    }

    fn select(self, then: Interval, other: Interval) -> Interval {
        if self.lo > 0 {
            then
        } else if self.hi == 0 {
            other
        } else {
            then.join(other)
        }
    }

    fn opaque(self, rhs: Interval, hi: u32, f: impl Fn(u32, u32) -> u32) -> Interval {
        self.fold(rhs, f, Interval::of(0, hi))
    }
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
pub(crate) fn rd(env: &RegEnv, r: Reg) -> Interval {
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
/// each action with whether a `SkipIfZ`/`SkipIfNz` shadow may skip the
/// action, plus whether the block's final action could be skipped (in
/// which case a static walk of the recorded block diverges from the
/// machine — the cost pass refuses to certify such an arc).
pub(crate) fn block_action_envs(env: RegEnv, block: &ActionBlock) -> (Vec<(RegEnv, bool)>, bool) {
    let mut envs = Vec::with_capacity(block.actions.len());
    let (_, last_conditional) =
        walk_block(env, block, |env, skippable| envs.push((*env, skippable)));
    (envs, last_conditional)
}

/// Threads `env` through one block, showing `before` the environment
/// ahead of each action and whether the action may be skipped; returns
/// the exit environment and whether the final action could be skipped.
fn walk_block(
    mut env: RegEnv,
    block: &ActionBlock,
    mut before: impl FnMut(&RegEnv, bool),
) -> (RegEnv, bool) {
    let mut shadow = 0u8;
    // Once a skip itself sits under a shadow, the extent of *its*
    // shadow is unknown statically; everything after is conditional.
    let mut sticky = false;
    let mut last_conditional = false;
    for &(_, a) in &block.actions {
        let conditional = sticky || shadow > 0;
        before(&env, conditional);
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
    (env, last_conditional)
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
                out = walk_block(out, block, |_, _| {}).0;
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

/// Per-register join (with widening after the join budget runs out).
fn join_envs(old: &RegEnv, new: &RegEnv, widen: bool) -> RegEnv {
    let mut out = *old;
    for (o, n) in out.iter_mut().zip(new.iter()) {
        let j = o.join(*n);
        *o = if widen { o.widen(j) } else { j };
    }
    out
}

/// The abstract transfer function for one action: [`Opcode::eval`] over
/// intervals for the register ops, and a fixed range for the ops whose
/// result comes from memory, the stream or the output cursor.
/// Ops that write no register leave the environment unchanged — their
/// *cost* is the cost pass's business, not the value domain's.
pub(crate) fn transfer(env: &mut RegEnv, a: &Action, conditional: bool) {
    use Opcode::*;
    if !a.op.writes_dst() {
        return;
    }
    let value = match a.op {
        LoadW | BumpW | PeekW | InIdx | OutIdx => Interval::TOP,
        LoadB | PeekAt => Interval::of(0, 255),
        AtEof => Interval::of(0, 1),
        ReadBits | PeekBits => Interval::of_bits(u32::from(a.imm & 31).max(1)),
        // Prefix length, capped by R14 and the architectural cap.
        LoopCmp | LoopCmpM => Interval::of(0, env[14].hi.min(LOOP_CAP)),
        op => op.eval(
            rd(env, a.dst),
            rd(env, a.src),
            rd(env, a.rref),
            a.imm,
            a.imm1,
        ),
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
