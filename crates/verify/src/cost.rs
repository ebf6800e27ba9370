//! Static resource certification (DESIGN.md §9.1).
//!
//! Derives a [`ResourceCert`] for a verified image: worst-case cycles
//! and output bytes per consumed input byte, plus additive bases, such
//! that for every run from the architectural reset state (no host
//! register staging) over an `n`-byte chunk,
//!
//! ```text
//! cycles       <= base_cycles       + max_cycles_per_byte   * n
//! output bytes <= base_output_bytes + max_output_expansion  * n
//! ```
//!
//! — including runs that end in a fault, exhaustion, or a cycle-budget
//! stop, because the bound is established edge-by-edge, not only for
//! complete scans.
//!
//! ## Model
//!
//! Every followed arc of the dispatch graph becomes an *edge* carrying
//! three numbers derived from the ISA charge table
//! ([`Opcode::charge`]), the same rules the lane interpreter charges:
//!
//! * `cost` — an upper bound on cycles for the dispatch plus the
//!   attached action block (loop actions bounded through the interval
//!   domain of [`crate::absint`]);
//! * `gain` — a lower bound on *net stream bits consumed* when the edge
//!   completes (symbol reads and unconditional `ReadBits` count
//!   positive; `RefillI` and pass-refill signatures count negative;
//!   shadowed reads count zero);
//! * `out`  — an upper bound on output bytes emitted.
//!
//! Since net consumption over a whole run is at most `8n` bits, a
//! certificate `cycles/byte <= λ` follows from the absence of any
//! dispatch cycle with `8·cost − λ·gain > 0`; the minimal integer `λ`
//! is found by binary search over a Bellman–Ford longest-path /
//! positive-cycle test, and the additive base falls out of the longest
//! acyclic path at that `λ` (plus a slack term for the one final,
//! partially-executed edge). Cycles that can spin without consuming
//! (`gain <= 0`, `cost > 0`) are reported as
//! [`Check::CostUnbounded`](crate::Check::CostUnbounded) blockers
//! instead.
//!
//! ## Span amortization
//!
//! The scanner kernels' hot block starts with the [`EmitSpan`] idiom
//! (`InIdx; Sub; LoopIn; EmitB; InIdx` — copy everything since the last
//! mark, emit a separator, re-mark). Its `LoopIn` length is unbounded
//! per-visit, but the mark-register discipline (every write to the mark
//! is an `InIdx` with a small offset spread) makes consecutive spans
//! telescope: their summed length is at most the input length plus a
//! constant. Such sites are charged a constant per visit, and the
//! certificate absorbs the telescoped total as `+1` cycle/byte and
//! `+1` output byte/byte per distinct mark register.

use crate::absint::{block_action_envs, rd, AbsInt, Interval, RegEnv};
use crate::checks::ReachInfo;
use crate::graph::{action_write, ProgramGraph, Slot};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use udp_asm::idiom::EmitSpan;
use udp_asm::layout::CHAIN_CONTINUE_SIGNATURE;
use udp_asm::{CostBlocker, CostMetric, ProgramImage, ResourceCert};
use udp_isa::action::{Action, Opcode, OutBytes};
use udp_isa::transition::{ExecKind, FALLBACK_SIGNATURE};
use udp_isa::LOOP_CAP;

/// Maximum spread (max − min) of `InIdx` offsets written to a span
/// mark register before amortization is refused. Offsets are tiny in
/// practice (−1, 0, +1); the spread is charged per write, so it must
/// stay small for the charge to stay small.
const MAX_MARK_SPREAD: i64 = 64;

/// One dispatch edge with its cost/gain/output attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Edge {
    from: usize,
    /// Target state index; `None` for terminal edges (halt, guaranteed
    /// fault).
    to: Option<usize>,
    cost: u64,
    gain: i64,
    out: u64,
}

/// A recognized amortizable span site: arc + mark register + offsets.
struct SpanSite {
    arc: usize,
    mark: u8,
    off0: i64,
    off4: i64,
}

fn symbol_entered(kind: Option<ExecKind>) -> bool {
    matches!(kind, Some(ExecKind::Consume | ExecKind::Flagged))
}

/// True when `arc` (by slot rules) is actually followed at runtime.
fn followed(graph: &ProgramGraph, reach: &ReachInfo, ai: usize) -> bool {
    let arc = &graph.arcs[ai];
    if reach.phantom[ai] || !reach.reached[arc.state] {
        return false;
    }
    let entered = reach.entered[arc.state];
    match arc.slot {
        Slot::Labeled(_) => symbol_entered(entered),
        // Only the word *at* the fallback slot is ever fetched; deeper
        // chain words exist for the NFA assembler mode only.
        Slot::Fallback => !matches!(entered, Some(ExecKind::Halt) | None),
        Slot::Chain(k) => k == 0 && !matches!(entered, Some(ExecKind::Halt) | None),
    }
}

/// Recognizes an *amortizable* span prefix: the [`EmitSpan`] idiom the
/// compiled backend fuses, plus the dataflow equalities that make the
/// telescoping argument go through — the copied length is
/// `(idx + off0) − mark` and the mark is rewritten to `idx + off4` on
/// every visit.
fn span_site(ai: usize, actions: &[(u32, Action)]) -> Option<SpanSite> {
    let prefix = actions.get(..EmitSpan::LEN)?;
    let prefix: [Action; EmitSpan::LEN] = std::array::from_fn(|i| prefix[i].1);
    let f = EmitSpan::recognize(&prefix)?;
    let mark = f.s1;
    // R13 is implicitly rewritten by every dispatch; R15 already
    // excluded by the recognizer.
    if f.r1 != f.d0 || f.s2 != f.d1 || f.d4 != mark || mark == 13 {
        return None;
    }
    Some(SpanSite {
        arc: ai,
        mark,
        off0: i64::from(f.off0 as i32),
        off4: i64::from(f.off4 as i32),
    })
}

/// Collected per-mark-register amortization facts.
struct MarkInfo {
    /// Spread (max − min) over every `InIdx` offset written to the
    /// register anywhere reachable, including the span sites' own.
    spread: i64,
}

/// Builds the amortized-mark table: a mark register qualifies when at
/// least one span site uses it and *every* reachable write to it is an
/// `InIdx` whose offsets stay within [`MAX_MARK_SPREAD`].
fn amortized_marks(
    graph: &ProgramGraph,
    reach: &ReachInfo,
    sites: &[SpanSite],
) -> BTreeMap<u8, MarkInfo> {
    let candidates: BTreeSet<u8> = sites.iter().map(|s| s.mark).collect();
    let mut offsets: BTreeMap<u8, (i64, i64)> = BTreeMap::new();
    let mut disqualified: BTreeSet<u8> = BTreeSet::new();
    for ai in 0..graph.arcs.len() {
        if !followed(graph, reach, ai) {
            continue;
        }
        let Some(block) = &graph.arcs[ai].block else {
            continue;
        };
        for &(_, a) in &block.actions {
            let Some(w) = action_write(&a) else { continue };
            if !candidates.contains(&w.index()) {
                continue;
            }
            if a.op == Opcode::InIdx {
                let off = i64::from(a.op.imm_value(a.imm) as i32);
                let e = offsets.entry(w.index()).or_insert((off, off));
                e.0 = e.0.min(off);
                e.1 = e.1.max(off);
            } else {
                disqualified.insert(w.index());
            }
        }
    }
    let mut out = BTreeMap::new();
    for site in sites {
        if disqualified.contains(&site.mark) {
            continue;
        }
        let (lo, hi) = offsets.get(&site.mark).copied().unwrap_or((0, 0));
        let lo = lo.min(site.off0).min(site.off4).min(0);
        let hi = hi.max(site.off0).max(site.off4).max(0);
        if hi - lo <= MAX_MARK_SPREAD {
            out.insert(site.mark, MarkInfo { spread: hi - lo });
        }
    }
    out
}

/// Result of one ratio solve.
enum Ratio {
    /// `(λ*, additive base numerator in eighth-cycles)`.
    Bounded { per: u64, base8: i128 },
    /// A reachable cycle whose weight stays positive at every `λ` —
    /// the program can spin without consuming. Carries a state base
    /// address on the offending cycle when one was identified.
    Unbounded { culprit: Option<u32> },
}

/// Longest-path / positive-cycle test at a fixed `λ` over `8·metric −
/// λ·gain` weights. Returns the maximum path weight from the entry
/// (including terminal-edge extensions), or `Err(culprit)` when a
/// positive cycle is reachable.
fn feasible(
    n_states: usize,
    entry: usize,
    edges: &[Edge],
    metric: impl Fn(&Edge) -> u64,
    lambda: i128,
    state_base: &[u32],
) -> Result<i128, Option<u32>> {
    let w = |e: &Edge| 8 * i128::from(metric(e)) - lambda * i128::from(e.gain);
    let mut dist: Vec<Option<i128>> = vec![None; n_states];
    dist[entry] = Some(0);
    let mut culprit = None;
    for pass in 0..=n_states {
        let mut changed = false;
        for e in edges {
            let Some(v) = e.to else { continue };
            let Some(du) = dist[e.from] else { continue };
            let nd = du + w(e);
            if dist[v].is_none_or(|dv| nd > dv) {
                dist[v] = Some(nd);
                changed = true;
                culprit = state_base.get(v).copied();
            }
        }
        if !changed {
            break;
        }
        if pass == n_states {
            return Err(culprit);
        }
    }
    let mut d: i128 = 0;
    for du in dist.iter().flatten() {
        d = d.max(*du);
    }
    for e in edges {
        if e.to.is_none() {
            if let Some(du) = dist[e.from] {
                d = d.max(du + w(e));
            }
        }
    }
    Ok(d)
}

/// Finds the minimal integer `λ` with no positive cycle, by binary
/// search (monotone on the feasible side: every edge's `cost >= 0`, so
/// a cycle that is infeasible at some `λ` has `gain <= 0` and stays
/// infeasible at every larger `λ`; feasibility at `λ_hi` therefore
/// implies all cycles have positive gain and larger `λ` only helps).
fn solve_ratio(
    n_states: usize,
    entry: usize,
    edges: &[Edge],
    metric: impl Fn(&Edge) -> u64 + Copy,
    state_base: &[u32],
) -> Ratio {
    let total: u64 = edges.iter().map(metric).sum();
    let hi = 8u128.saturating_mul(u128::from(total)).saturating_add(8) as i128;
    if let Err(culprit) = feasible(n_states, entry, edges, metric, hi, state_base) {
        return Ratio::Unbounded { culprit };
    }
    let (mut lo, mut hi) = (0i128, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match feasible(n_states, entry, edges, metric, mid, state_base) {
            Ok(_) => hi = mid,
            Err(_) => lo = mid + 1,
        }
    }
    match feasible(n_states, entry, edges, metric, lo, state_base) {
        Ok(base8) => Ratio::Bounded {
            per: lo as u64,
            base8,
        },
        Err(culprit) => Ratio::Unbounded { culprit },
    }
}

/// Collects per-arc cost/gain/out plus blockers, then solves both
/// ratios and assembles the certificate.
pub(crate) fn certify(
    image: &ProgramImage,
    graph: &ProgramGraph,
    reach: &ReachInfo,
    absint: &AbsInt,
) -> ResourceCert {
    let mut cert = ResourceCert::default();
    let mut blockers: Vec<CostBlocker> = Vec::new();
    let mut block = |metric: CostMetric, addr: Option<u32>, reason: &str| {
        blockers.push(CostBlocker {
            metric,
            addr,
            reason: reason.to_string(),
        });
    };

    let Some(&entry) = graph.base_index.get(&image.entry_base) else {
        block(CostMetric::Cycles, None, "entry base is not a placed state");
        cert.unbounded = blockers;
        return cert;
    };

    // Guaranteed bits per Consume dispatch: the smallest symbol width
    // any reachable execution can be running with.
    let mut sym_lo = u64::from(image.init.symbol_bits);
    for ai in 0..graph.arcs.len() {
        if !followed(graph, reach, ai) {
            continue;
        }
        if let Some(b) = &graph.arcs[ai].block {
            for &(_, a) in &b.actions {
                if matches!(a.op, Opcode::SetSym | Opcode::SetSymT) && (1..=8).contains(&a.imm) {
                    sym_lo = sym_lo.min(u64::from(a.imm));
                }
            }
        }
    }

    // Span amortization prep.
    let sites: Vec<SpanSite> = (0..graph.arcs.len())
        .filter(|&ai| followed(graph, reach, ai))
        .filter_map(|ai| span_site(ai, &graph.arcs[ai].block.as_ref()?.actions))
        .collect();
    let marks = amortized_marks(graph, reach, &sites);
    let amortized_arcs: HashSet<usize> = sites
        .iter()
        .filter(|s| marks.contains_key(&s.mark))
        .map(|s| s.arc)
        .collect();

    let span_bytes = (image.stats.span_words as u64) * 4;

    // Build the edge list.
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_nest = 0u32;
    for (ai, arc) in graph.arcs.iter().enumerate() {
        if !followed(graph, reach, ai) {
            continue;
        }
        let entered = reach.entered[arc.state];
        // Dispatch cost/gain; `terminal` marks edges the lane cannot
        // continue past (the block, if any, never runs on those).
        let consume_gain = if entered == Some(ExecKind::Consume) {
            sym_lo as i64
        } else {
            0
        };
        let (mut cost, mut gain, dispatch_terminal) = match entered {
            Some(ExecKind::Consume | ExecKind::Flagged) => match arc.slot {
                Slot::Labeled(_) => (1u64, consume_gain, false),
                Slot::Fallback | Slot::Chain(_) => (2, consume_gain, false),
            },
            Some(ExecKind::Pass) => {
                let sig = arc.word.signature();
                if matches!(arc.slot, Slot::Chain(_)) || sig == CHAIN_CONTINUE_SIGNATURE {
                    // Epsilon fork outside NFA mode: immediate fault.
                    (1, 0, true)
                } else if sig == FALLBACK_SIGNATURE {
                    (1, 0, false)
                } else if sig <= 8 {
                    (1, -i64::from(sig), false)
                } else {
                    // Bad pass signature: immediate fault.
                    (1, 0, true)
                }
            }
            _ => continue,
        };
        let mut out = 0u64;

        if arc.set_base_ambiguous && arc.word.kind() != ExecKind::Halt {
            block(
                CostMetric::Cycles,
                Some(arc.addr),
                "dispatch target depends on a conditional SetBase",
            );
            block(
                CostMetric::Output,
                Some(arc.addr),
                "dispatch target depends on a conditional SetBase",
            );
        }

        if !dispatch_terminal {
            if let Some(b) = &arc.block {
                if b.undecodable.is_some() || b.unterminated {
                    block(
                        CostMetric::Cycles,
                        Some(b.start),
                        "action block does not decode to a terminated sequence",
                    );
                }
                let nest = b.actions.iter().filter(|(_, a)| a.op.charge().bulk).count() as u32;
                max_nest = max_nest.max(nest);

                let env0 = absint
                    .arc_block_entry(graph, reach, ai)
                    .unwrap_or([Interval::TOP; 16]);
                let (envs, last_conditional) = block_action_envs(env0, b);
                if last_conditional {
                    block(
                        CostMetric::Cycles,
                        Some(b.start),
                        "block terminator sits under a skip shadow",
                    );
                    block(
                        CostMetric::Output,
                        Some(b.start),
                        "block terminator sits under a skip shadow",
                    );
                }
                let amortized = amortized_arcs.contains(&ai);
                let (c, g, o) = walk_block(b, &envs, amortized, &marks, span_bytes, &mut block);
                cost += c;
                gain += g;
                out += o;
            }
        }

        let terminal = dispatch_terminal || arc.word.kind() == ExecKind::Halt;
        let to = if terminal {
            None
        } else {
            arc.flat_target
                .and_then(|t| graph.base_index.get(&t).copied())
        };
        edges.push(Edge {
            from: arc.state,
            to,
            cost,
            gain,
            out,
        });
    }
    cert.max_loop_nest = max_nest;

    // Dedupe exact parallel duplicates (dense DFA tables produce many).
    let mut seen: HashSet<Edge> = HashSet::new();
    edges.retain(|e| seen.insert(e.clone()));

    let n = graph.states.len();
    let bases: Vec<u32> = graph.states.iter().map(|s| s.base).collect();
    let max_gain8 = edges.iter().map(|e| e.gain.max(0)).max().unwrap_or(0) as u64;
    let m_marks = marks.len() as u64;

    let has = |metric: CostMetric, bl: &[CostBlocker]| bl.iter().any(|b| b.metric == metric);

    match solve_ratio(n, entry, &edges, |e| e.cost, &bases) {
        Ratio::Bounded { per, base8 } => {
            // cycles <= D/8 + λ·n + λ·max_gain/8 (final partial edge)
            // + 2 (terminal dispatch with no recorded arc) + rounding
            // + amortization supplements.
            cert.base_cycles = (base8.max(0) as u64).div_ceil(8)
                + (per.saturating_mul(max_gain8)).div_ceil(8)
                + 3
                + 16 * m_marks;
            cert.max_cycles_per_byte = Some(per + m_marks);
            cert.min_bytes_per_cycle_progress = Some((1, (per + m_marks).max(1)));
        }
        Ratio::Unbounded { culprit } => {
            block(
                CostMetric::Cycles,
                culprit,
                "a reachable dispatch cycle makes no guaranteed stream progress",
            );
        }
    }
    match solve_ratio(n, entry, &edges, |e| e.out, &bases) {
        Ratio::Bounded { per, base8 } => {
            cert.base_output_bytes = (base8.max(0) as u64).div_ceil(8)
                + (per.saturating_mul(max_gain8)).div_ceil(8)
                + 4
                + 128 * m_marks;
            cert.max_output_expansion = Some(per + m_marks);
        }
        Ratio::Unbounded { culprit } => {
            block(
                CostMetric::Output,
                culprit,
                "a reachable dispatch cycle can emit without guaranteed stream progress",
            );
        }
    }

    // A blocker invalidates its metric's ratio even if the solver
    // found one (the walk already under-reported the blocked edge).
    let mut dedup: HashSet<(CostMetric, Option<u32>, String)> = HashSet::new();
    blockers.retain(|b| dedup.insert((b.metric, b.addr, b.reason.clone())));
    if has(CostMetric::Cycles, &blockers) {
        cert.max_cycles_per_byte = None;
        cert.min_bytes_per_cycle_progress = None;
        cert.base_cycles = 0;
    }
    if has(CostMetric::Output, &blockers) {
        cert.max_output_expansion = None;
        cert.base_output_bytes = 0;
    }
    cert.unbounded = blockers;
    cert
}

/// Walks one action block accumulating `(cost, gain, out)` and
/// reporting blockers. Cycles and output bytes come from the ISA charge
/// table; bulk-loop lengths are bounded through the interval domain.
fn walk_block(
    b: &crate::graph::ActionBlock,
    envs: &[(RegEnv, bool)],
    amortized: bool,
    marks: &BTreeMap<u8, MarkInfo>,
    span_bytes: u64,
    block: &mut impl FnMut(CostMetric, Option<u32>, &str),
) -> (u64, i64, u64) {
    use Opcode::*;
    let mut cost = 0u64;
    let mut gain = 0i64;
    let mut out = 0u64;
    let code_store = "store may overwrite program code";
    for (i, &(addr, a)) in b.actions.iter().enumerate() {
        let (env, conditional) = envs[i];
        let charge = a.op.charge();
        cost += u64::from(charge.issue);
        let mut n_hi = 0u32;
        if amortized && i == 2 && a.op == LoopIn {
            // Telescoped: the summed copy length is absorbed globally;
            // one cycle covers this visit's rounding of the bulk charge.
            cost += 1;
        } else if charge.bulk {
            let (len, what) = if matches!(a.op, LoopCmp | LoopCmpM) {
                (
                    env[14].hi,
                    "loop-compare limit (R14) not statically bounded",
                )
            } else {
                (
                    rd(&env, a.src).hi,
                    "bulk-loop length not statically bounded",
                )
            };
            if len >= LOOP_CAP {
                block(CostMetric::Cycles, Some(addr), what);
                if charge.out == OutBytes::Loop {
                    block(
                        CostMetric::Output,
                        Some(addr),
                        "bulk-loop output length not statically bounded",
                    );
                }
            }
            n_hi = len.min(LOOP_CAP);
            cost += charge.bulk_cycles(n_hi);
        }
        out += charge.out_bytes(u64::from(n_hi));
        match a.op {
            BumpW => {
                let sv = rd(&env, a.src);
                let lo = i64::from(a.imm) + 4 * i64::from(sv.lo);
                if (lo as u64) < span_bytes || sv.is_top() {
                    block(CostMetric::Cycles, Some(addr), code_store);
                }
            }
            StoreW | StoreB => {
                let dv = rd(&env, a.dst);
                let lo = i64::from(dv.lo) + i64::from(a.op.imm_value(a.imm) as i32);
                if lo < 0 || (lo as u64) < span_bytes || dv.is_top() {
                    block(CostMetric::Cycles, Some(addr), code_store);
                }
            }
            LoopCpy => {
                let dv = rd(&env, a.dst);
                if dv.is_top() || u64::from(dv.lo) < span_bytes {
                    block(CostMetric::Cycles, Some(addr), code_store);
                }
            }
            SetABase | SetAScale => {
                let why = "attach addressing mutated at runtime";
                block(CostMetric::Cycles, Some(addr), why);
                block(CostMetric::Output, Some(addr), why);
            }
            ReadBits if !conditional => gain += i64::from((a.imm & 31).max(1)),
            RefillI => gain -= i64::from((a.imm & 15).min(8)),
            InIdx => {
                if let Some(info) = marks.get(&a.dst.index()) {
                    // A mark rewrite may move the mark backwards by up
                    // to the offset spread; charge the re-countable
                    // bytes here.
                    let spread = info.spread.max(0) as u64;
                    cost += spread.div_ceil(8);
                    out += spread;
                }
            }
            _ => {}
        }
    }
    (cost, gain, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::compute_reach;
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::Action;
    use udp_isa::Reg;

    fn certify_image(image: &ProgramImage) -> ResourceCert {
        let graph = ProgramGraph::decode(image);
        let reach = compute_reach(image, &graph);
        let absint = crate::absint::analyze(image, &graph, &reach);
        certify(image, &graph, &reach, &absint)
    }

    #[test]
    fn consuming_loop_certifies_with_small_ratio() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(
            s,
            b'a' as u16,
            Target::State(s),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'x' as u16)],
        );
        b.fallback_arc(s, Target::State(s), vec![]);
        let image = b.assemble(&LayoutOptions::default()).unwrap();
        let cert = certify_image(&image);
        assert!(cert.is_complete(), "{cert:?}");
        let cpb = cert.max_cycles_per_byte.unwrap();
        // 8-bit symbols: one dispatch (+ block) per byte; the miss path
        // costs 2 + nothing. Well under 8 cycles/byte.
        assert!((2..=8).contains(&cpb), "cycles/byte {cpb}");
        assert!(cert.max_output_expansion.unwrap() <= 2);
        assert_eq!(cert.unbounded, vec![]);
    }

    #[test]
    fn non_consuming_refill_loop_is_blocked() {
        // A pass state that refills 8 bits and loops to a consuming
        // state that reads 8 bits: net gain 0, cost > 0 → unbounded.
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        let p = b.add_pass_state(
            8,
            udp_asm::Arc {
                target: Target::State(s),
                actions: vec![],
            },
        );
        b.set_entry(s);
        b.labeled_arc(s, b'a' as u16, Target::State(p), vec![]);
        b.fallback_arc(s, Target::Halt, vec![]);
        let image = b.assemble(&LayoutOptions::default()).unwrap();
        let cert = certify_image(&image);
        assert_eq!(cert.max_cycles_per_byte, None, "{cert:?}");
        assert!(cert
            .unbounded
            .iter()
            .any(|bl| bl.metric == CostMetric::Cycles));
    }

    #[test]
    fn halting_program_gets_zero_ratio() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, 0, Target::Halt, vec![]);
        b.fallback_arc(s, Target::Halt, vec![]);
        let image = b.assemble(&LayoutOptions::default()).unwrap();
        let cert = certify_image(&image);
        assert!(cert.is_complete());
        // One dispatch then halt: the per-byte ratio can be 0 (all cost
        // fits in the base).
        assert!(cert.max_cycles_per_byte.unwrap() <= 2);
        assert!(cert.base_cycles >= 1);
    }
}
