//! EffCLiP placement and machine-code emission.
//!
//! The layout problem (paper §3.2.1): multi-way dispatch computes
//! `address = state base + symbol`, so all of a state's transition words
//! have *precise relative location constraints*. EffCLiP (Efficient
//! Coupled Linear Packing \[55\]) places state footprints so they interleave
//! without overlap — gaps in one state's symbol range hold other states'
//! words, giving dense memory and a trivial ("perfect") hash: integer
//! addition, with the signature check detecting reads of foreign words.
//!
//! Our implementation is first-fit over a window occupancy bitmap with
//! footprints ordered densest-first, which reproduces EffCLiP's dense
//! packing behaviour for the automata shapes in the paper's workloads.

use crate::image::{LaneInit, LayoutStats, ProgramImage};
use crate::ir::{Arc, DispatchSource, ProgramBuilder, StateNode, Target};
use std::collections::HashMap;
use std::fmt;
use udp_isa::action::{Action, Opcode};
use udp_isa::transition::{AttachMode, ExecKind, TransitionWord, FALLBACK_SIGNATURE};
use udp_isa::{Reg, BANK_WORDS, FALLBACK_SLOT};

/// Signature marking a non-final word of an epsilon-fork chain.
pub const CHAIN_CONTINUE_SIGNATURE: u8 = 0xFE;

/// Layout configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Addressable window in words. One 16 KB bank (4096 words) under
    /// local addressing; `k * 4096` under restricted addressing. Arcs
    /// crossing 4096-word segments get an implicit `SetBase` action.
    pub window_words: usize,
    /// Deduplicate identical action blocks (UDP behaviour). Disabled by
    /// [`LayoutOptions::uap_attach`].
    pub share_actions: bool,
    /// Model the UAP's offset-only attach addressing: no sharing, private
    /// per-arc action copies. Produces a size-model-only image
    /// (`executable == false`) used for the Figure 5c comparison.
    pub uap_attach: bool,
    /// Run a structural self-check over the emitted image (dispatch-slot
    /// integrity and alias freedom) and fail assembly with
    /// [`AsmError::SelfCheck`] if it trips. The full static analysis
    /// lives in `udp-verify`; this native check is the assembler's own
    /// last line of defence and needs no extra dependency.
    pub self_check: bool,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            window_words: BANK_WORDS,
            share_actions: true,
            uap_attach: false,
            self_check: false,
        }
    }
}

impl LayoutOptions {
    /// A window of `banks` × 4096 words (restricted addressing).
    pub fn with_banks(banks: usize) -> Self {
        LayoutOptions {
            window_words: banks * BANK_WORDS,
            ..Default::default()
        }
    }
}

/// Assembly failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// No entry state was declared.
    NoEntry,
    /// The program does not fit the addressable window.
    ProgramTooLarge {
        /// Words required.
        needed: usize,
        /// Words available.
        window: usize,
    },
    /// More distinct scaled-offset action blocks than the 8-bit attach
    /// field can address.
    TooManyActionBlocks {
        /// Distinct blocks requested.
        blocks: usize,
    },
    /// An action block is longer than a scaled slot can hold (64 words).
    ActionBlockTooLong {
        /// Offending block length.
        len: usize,
    },
    /// A cross-segment arc targets a segment beyond the 16 the implicit
    /// `SetBase` immediate can express (64 KB of window).
    TargetSegmentOutOfRange {
        /// The unreachable segment index.
        segment: u32,
    },
    /// The post-emission structural self-check found a broken image
    /// (enabled by [`LayoutOptions::self_check`]).
    SelfCheck {
        /// Word offset of the offending slot.
        addr: u32,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::NoEntry => write!(f, "program has no entry state"),
            AsmError::ProgramTooLarge { needed, window } => {
                write!(f, "program needs {needed} words but window is {window}")
            }
            AsmError::TooManyActionBlocks { blocks } => {
                write!(f, "{blocks} action blocks exceed the 255-slot attach range")
            }
            AsmError::ActionBlockTooLong { len } => {
                write!(
                    f,
                    "action block of {len} words exceeds the scaled slot size"
                )
            }
            AsmError::TargetSegmentOutOfRange { segment } => {
                write!(
                    f,
                    "arc target in segment {segment} exceeds the SetBase immediate range"
                )
            }
            AsmError::SelfCheck { addr, detail } => {
                write!(f, "layout self-check failed at {addr:#06x}: {detail}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// Post-sharing action block bookkeeping.
struct BlockTable {
    /// Deduplicated blocks in first-seen order.
    blocks: Vec<Vec<Action>>,
    /// Content → block index.
    index: HashMap<Vec<Action>, usize>,
    /// Reference counts.
    refs: Vec<usize>,
}

impl BlockTable {
    fn new() -> Self {
        BlockTable {
            blocks: Vec::new(),
            index: HashMap::new(),
            refs: Vec::new(),
        }
    }

    fn intern(&mut self, actions: &[Action], share: bool) -> usize {
        if share {
            if let Some(&i) = self.index.get(actions) {
                self.refs[i] += 1;
                return i;
            }
        }
        let i = self.blocks.len();
        self.blocks.push(actions.to_vec());
        if share {
            self.index.insert(actions.to_vec(), i);
        }
        self.refs.push(1);
        i
    }
}

/// Where a block landed.
#[derive(Clone, Copy)]
enum BlockPlace {
    Direct { attach: u8 },
    Scaled { attach: u8 },
}

impl ProgramBuilder {
    /// Assembles the program: back-propagates transition kinds, shares and
    /// places action blocks, EffCLiP-packs states, and emits the image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] when the program lacks an entry, exceeds the
    /// window, or exhausts attach addressing.
    pub fn assemble(&self, opts: &LayoutOptions) -> Result<ProgramImage, AsmError> {
        let entry = self.entry.ok_or(AsmError::NoEntry)?;
        let window = opts.window_words;

        // ---- Pass 1: finalize per-arc action lists.
        //
        // Cross-segment arcs get an implicit SetBase appended, which must
        // happen before interning so sharing sees the final content. We
        // need state bases to know segments, but bases need footprints
        // only — so we do a two-phase fixpoint: place first assuming no
        // SetBase affects footprints (it doesn't: actions never change
        // footprints), then finalize arcs.
        let share = opts.share_actions && !opts.uap_attach;

        // ---- Pass 2–4 fixpoint: placement decides which arcs cross
        // 4096-word segments (and thus carry an implicit SetBase), but
        // the action regions those arcs create shift the placement.
        // Iterate with a monotonically growing reservation until the
        // bases used to derive the SetBase actions are the bases that
        // coexist with the resulting action regions.
        let seg_of = |base: u32| base >> 12;
        let mut reserved = 0usize;
        let (bases, table, arc_places, places, direct_words, scaled_region_words, ascale, slot) = loop {
            let bases = self.pack_states(window, reserved)?;

            // Append SetBase to arcs that change segments, then intern.
            // (SetBase is idempotent, so self-loops never need it.)
            let mut table = BlockTable::new();
            let mut arc_places: Vec<Vec<Option<usize>>> = Vec::with_capacity(self.states.len());
            for (sid, node) in self.states.iter().enumerate() {
                let from_seg = seg_of(bases[sid]);
                let mut per_arc = Vec::new();
                for arc in node.arcs() {
                    let mut actions = arc.actions.clone();
                    if let Target::State(t) = arc.target {
                        let to_seg = seg_of(bases[t.index()]);
                        if to_seg != from_seg {
                            if to_seg > 0xF && !opts.uap_attach {
                                // The 16-bit SetBase immediate holds at
                                // most segment 15; silently truncating
                                // would mis-dispatch the whole arc. Size
                                // models (uap_attach) are never executed,
                                // so only their word counts matter.
                                return Err(AsmError::TargetSegmentOutOfRange { segment: to_seg });
                            }
                            actions.push(Action::imm(
                                Opcode::SetBase,
                                Reg::R0,
                                Reg::R0,
                                (to_seg << 12) as u16,
                            ));
                        }
                    }
                    if actions.is_empty() {
                        per_arc.push(None);
                    } else {
                        // Normalize block termination: exactly the final
                        // action carries the `last` bit.
                        for a in actions.iter_mut() {
                            a.last = false;
                        }
                        if let Some(last) = actions.last_mut() {
                            last.last = true;
                        }
                        per_arc.push(Some(table.intern(&actions, share)));
                    }
                }
                arc_places.push(per_arc);
            }

            // Split blocks into direct / scaled regions.
            let n_blocks = table.blocks.len();
            let max_len = table.blocks.iter().map(Vec::len).max().unwrap_or(1);
            let ascale = (usize::BITS - (max_len.max(1) - 1).leading_zeros()).min(6) as u8;
            let slot = 1usize << ascale;
            if max_len > slot {
                return Err(AsmError::ActionBlockTooLong { len: max_len });
            }
            // Most-referenced blocks into the direct region (words 1..=255).
            let mut order: Vec<usize> = (0..n_blocks).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(table.refs[i]), table.blocks[i].len()));
            let mut places: Vec<Option<BlockPlace>> = vec![None; n_blocks];
            let mut direct_cursor = 1usize; // word 0 reserved
            let mut scaled_count = 0usize;
            for &i in &order {
                let len = table.blocks[i].len();
                if direct_cursor + len <= 256 {
                    places[i] = Some(BlockPlace::Direct {
                        attach: direct_cursor as u8,
                    });
                    direct_cursor += len;
                } else {
                    scaled_count += 1;
                    if scaled_count > 255 && !opts.uap_attach {
                        return Err(AsmError::TooManyActionBlocks { blocks: n_blocks });
                    }
                    places[i] = Some(BlockPlace::Scaled {
                        attach: (((scaled_count - 1) % 255) + 1) as u8,
                    });
                }
            }
            let direct_words = direct_cursor; // includes reserved word 0
            let scaled_region_words = scaled_count * slot;
            let need = direct_words + scaled_region_words;
            if need <= reserved {
                break (
                    bases,
                    table,
                    arc_places,
                    places,
                    direct_words,
                    scaled_region_words,
                    ascale,
                    slot,
                );
            }
            reserved = reserved.max(need);
        };
        let scaled_region_start = direct_words;
        // ABASE such that attach i (1-based) maps to region_start + (i-1)*slot.
        let abase = (scaled_region_start as i64 - slot as i64).max(0) as u32;
        let reserved = scaled_region_start + scaled_region_words;

        // Every block was assigned a place in the fixpoint loop above;
        // collapse the Options so the emit path cannot observe a hole.
        let places: Vec<BlockPlace> = places
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                p.ok_or_else(|| AsmError::SelfCheck {
                    addr: i as u32,
                    detail: "action block was never placed".into(),
                })
            })
            .collect::<Result<_, _>>()?;

        // ---- Pass 5: emit.
        let mut span = reserved;
        for (sid, node) in self.states.iter().enumerate() {
            let top = bases[sid] as usize + node.footprint().last().copied().unwrap_or(0) as usize;
            span = span.max(top + 1);
        }
        if span > window {
            return Err(AsmError::ProgramTooLarge {
                needed: span,
                window,
            });
        }
        let mut words = vec![0u32; span];
        let mut n_action_words = 0usize;

        // Action regions.
        for (i, block) in table.blocks.iter().enumerate() {
            let addr = match places[i] {
                BlockPlace::Direct { attach } => attach as usize,
                BlockPlace::Scaled { attach } => abase as usize + (attach as usize) * slot,
            };
            if addr + block.len() <= words.len() {
                for (k, a) in block.iter().enumerate() {
                    words[addr + k] = a.encode();
                }
            }
            n_action_words += block.len();
        }

        // Transition words.
        let mut n_transition_words = 0usize;
        let kind_of = |t: Target| -> ExecKind {
            match t {
                Target::Halt => ExecKind::Halt,
                Target::State(s) => match &self.states[s.index()] {
                    StateNode::Consuming {
                        source: DispatchSource::Stream,
                        ..
                    } => ExecKind::Consume,
                    StateNode::Consuming {
                        source: DispatchSource::Register,
                        ..
                    } => ExecKind::Flagged,
                    StateNode::Pass { .. } | StateNode::Fork { .. } => ExecKind::Pass,
                },
            }
        };
        let target_field = |t: Target| -> u16 {
            match t {
                Target::Halt => 0,
                Target::State(s) => (bases[s.index()] & 0xFFF) as u16,
            }
        };
        let encode_arc = |sig: u8, arc: &Arc, place: Option<usize>| -> u32 {
            let (mode, attach) = match place {
                None => (AttachMode::Direct, 0u8),
                Some(b) => match places[b] {
                    BlockPlace::Direct { attach } => (AttachMode::Direct, attach),
                    BlockPlace::Scaled { attach } => (AttachMode::Scaled, attach),
                },
            };
            TransitionWord::new(
                sig,
                target_field(arc.target),
                kind_of(arc.target),
                mode,
                attach,
            )
            .encode()
        };

        for (sid, node) in self.states.iter().enumerate() {
            let base = bases[sid] as usize;
            let blocks = &arc_places[sid];
            match node {
                StateNode::Consuming { arcs, fallback, .. } => {
                    for (k, (sym, arc)) in arcs.iter().enumerate() {
                        words[base + *sym as usize] = encode_arc(*sym as u8, arc, blocks[k]);
                        n_transition_words += 1;
                    }
                    if let Some(fb) = fallback {
                        words[base + FALLBACK_SLOT as usize] =
                            encode_arc(FALLBACK_SIGNATURE, fb, blocks[arcs.len()]);
                        n_transition_words += 1;
                    }
                }
                StateNode::Pass { refill, arc } => {
                    words[base + FALLBACK_SLOT as usize] = encode_arc(*refill, arc, blocks[0]);
                    n_transition_words += 1;
                }
                StateNode::Fork { arcs } => {
                    for (k, arc) in arcs.iter().enumerate() {
                        let sig = if k + 1 < arcs.len() {
                            CHAIN_CONTINUE_SIGNATURE
                        } else {
                            FALLBACK_SIGNATURE
                        };
                        words[base + FALLBACK_SLOT as usize + k] = encode_arc(sig, arc, blocks[k]);
                        n_transition_words += 1;
                    }
                }
            }
        }

        if opts.self_check && !opts.uap_attach {
            self.self_check_image(&words, &bases)?;
        }

        let words_used = words.iter().filter(|&&w| w != 0).count();
        let entry_base = bases[entry.index()];
        Ok(ProgramImage {
            words,
            entry_base,
            entry_kind: kind_of(Target::State(entry)),
            init: LaneInit {
                symbol_bits: self.symbol_bits,
                abase,
                ascale,
                wbase: entry_base & !0xFFF,
            },
            state_bases: bases,
            stats: LayoutStats {
                span_words: span,
                words_used,
                n_states: self.states.len(),
                n_transition_words,
                n_action_words,
                direct_region_words: direct_words,
                scaled_region_words,
            },
            executable: !opts.uap_attach,
            cert: None,
        })
    }

    /// The fallback-slot-family words a state will emit, as
    /// `(offset, signature)` pairs. These signatures (`0xFF`, `0xFE`,
    /// refill counts) are *not* tied to the word's address the way
    /// labeled signatures are, so they can alias another state's
    /// `base + symbol` read — the packer must keep them out of foreign
    /// dispatch windows.
    fn sig_words(node: &StateNode) -> Vec<(u32, u8)> {
        match node {
            StateNode::Consuming { fallback, .. } => fallback
                .as_ref()
                .map(|_| (FALLBACK_SLOT, FALLBACK_SIGNATURE))
                .into_iter()
                .collect(),
            StateNode::Pass { refill, .. } => vec![(FALLBACK_SLOT, *refill)],
            StateNode::Fork { arcs } => (0..arcs.len())
                .map(|k| {
                    let sig = if k + 1 < arcs.len() {
                        CHAIN_CONTINUE_SIGNATURE
                    } else {
                        FALLBACK_SIGNATURE
                    };
                    (FALLBACK_SLOT + k as u32, sig)
                })
                .collect(),
        }
    }

    /// First-fit EffCLiP packing of state footprints above `reserved`.
    ///
    /// Beyond plain occupancy, placement maintains *alias freedom*: a
    /// dispatching (consuming/flagged) state based at `B` reads `B + s`
    /// for any symbol `s` and trusts the signature byte to reject
    /// foreign words — but fallback-family words (signature `0xFF`,
    /// chain `0xFE`, refill counts) and action-region words carry
    /// signatures unrelated to their address, so one landing at `B + s`
    /// with top byte `s` would be a false dispatch hit. The packer
    /// therefore (a) keeps dispatch windows above the action regions,
    /// (b) never bases a dispatching state where an existing
    /// fallback-family word aliases it, and (c) never emits a
    /// fallback-family word that aliases an existing dispatching base.
    fn pack_states(&self, window: usize, reserved: usize) -> Result<Vec<u32>, AsmError> {
        let mut occupied = vec![false; window];
        for cell in occupied.iter_mut().take(reserved.min(window)) {
            *cell = true;
        }
        if window > 0 {
            occupied[0] = true; // empty-word detection
        }
        // alias_forbidden[b]: some placed fallback-family word sits at
        // b + sig for its signature, so no dispatching state may use b.
        let mut alias_forbidden = vec![false; window];
        // dispatch_base[b]: a dispatching state is based at b.
        let mut dispatch_base = vec![false; window];

        // Densest footprints first.
        let mut order: Vec<usize> = (0..self.states.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.states[i].footprint().len()));

        // A state may never sit exactly on a 4096-word segment boundary:
        // its 12-bit target field would be zero, and a labeled arc on
        // symbol 0 with no actions would encode as the all-zero word the
        // lane treats as empty.
        let usable = |base: usize| base & 0xFFF != 0;
        let reserved_floor = reserved.min(window);
        let mut bases = vec![0u32; self.states.len()];
        let mut hint = 0usize;
        for &sid in &order {
            let node = &self.states[sid];
            let fp = node.footprint();
            let dispatches = matches!(node, StateNode::Consuming { .. });
            let swords = Self::sig_words(node);
            let top = *fp.last().unwrap_or(&0) as usize;
            let fits = |base: usize| -> bool {
                if !usable(base) || fp.iter().any(|&off| occupied[base + off as usize]) {
                    return false;
                }
                // (a)+(b): a dispatch window must sit above the action
                // regions and clear of aliasing fallback words.
                if dispatches && (base < reserved_floor || alias_forbidden[base]) {
                    return false;
                }
                // (c): our own fallback-family words must not alias an
                // already-placed dispatching base.
                for &(off, sig) in &swords {
                    let addr = base + off as usize;
                    if let Some(rb) = addr.checked_sub(sig as usize) {
                        if rb != base && rb < window && dispatch_base[rb] {
                            return false;
                        }
                    }
                }
                true
            };
            let found = 'search: {
                let mut base = if dispatches {
                    hint.max(reserved_floor)
                } else {
                    hint
                };
                while base + top < window {
                    if fits(base) {
                        break 'search Some(base);
                    }
                    base += 1;
                }
                // Retry from the bottom in case the hint skipped gaps.
                base = if dispatches { reserved_floor } else { 0 };
                while base + top < window {
                    if fits(base) {
                        break 'search Some(base);
                    }
                    base += 1;
                }
                None
            };
            let Some(base) = found else {
                return Err(AsmError::ProgramTooLarge {
                    needed: window + fp.len(),
                    window,
                });
            };
            for &off in &fp {
                occupied[base + off as usize] = true;
            }
            for &(off, sig) in &swords {
                if let Some(rb) = (base + off as usize).checked_sub(sig as usize) {
                    if rb < window {
                        alias_forbidden[rb] = true;
                    }
                }
            }
            if dispatches {
                dispatch_base[base] = true;
            }
            bases[sid] = base as u32;
            // Advance the hint past fully dense prefixes cheaply.
            while hint < window && occupied[hint] {
                hint += 1;
            }
        }
        Ok(bases)
    }

    /// Structural self-check over an emitted image (see
    /// [`LayoutOptions::self_check`]): every labeled slot's signature
    /// echoes its offset, and no dispatching state's `base + symbol`
    /// read can false-hit a foreign word.
    fn self_check_image(&self, words: &[u32], bases: &[u32]) -> Result<(), AsmError> {
        for (sid, node) in self.states.iter().enumerate() {
            let base = bases[sid] as usize;
            let StateNode::Consuming { arcs, .. } = node else {
                continue;
            };
            let owned: std::collections::HashSet<usize> =
                arcs.iter().map(|(sym, _)| *sym as usize).collect();
            for sym in 0..FALLBACK_SLOT as usize {
                let Some(&raw) = words.get(base + sym) else {
                    break;
                };
                if raw == 0 {
                    continue;
                }
                let sig = (raw >> 24) as usize;
                if owned.contains(&sym) {
                    if sig != sym {
                        return Err(AsmError::SelfCheck {
                            addr: (base + sym) as u32,
                            detail: format!(
                                "labeled slot for symbol {sym} carries signature {sig}"
                            ),
                        });
                    }
                } else if sig == sym {
                    return Err(AsmError::SelfCheck {
                        addr: (base + sym) as u32,
                        detail: format!(
                            "foreign word aliases symbol {sym} of the state at {base:#x}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ProgramBuilder, Target};
    use proptest::prelude::*;
    use udp_isa::action::{Action, Opcode};

    fn emit(b: u8) -> Vec<Action> {
        vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b)).ending()]
    }

    #[test]
    fn assemble_minimal_loop() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(s, b'a' as u16, Target::State(s), emit(b'x'));
        b.fallback_arc(s, Target::State(s), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        assert!(img.executable);
        assert_eq!(img.stats.n_states, 1);
        assert_eq!(img.stats.n_transition_words, 2);
        assert!(img.stats.words_used >= 3);
        // The labeled word sits at base + 'a'.
        let w = TransitionWord::decode(img.words[img.entry_base as usize + b'a' as usize]);
        assert_eq!(w.signature(), b'a');
        assert_eq!(w.kind(), ExecKind::Consume);
    }

    #[test]
    fn no_entry_errors() {
        let b = ProgramBuilder::new();
        assert_eq!(
            b.assemble(&LayoutOptions::default()).unwrap_err(),
            AsmError::NoEntry
        );
    }

    #[test]
    fn shared_blocks_are_deduplicated() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        for sym in 0..50u16 {
            b.labeled_arc(s, sym, Target::State(s), emit(b'!'));
        }
        b.fallback_arc(s, Target::State(s), vec![]);
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        // One shared block of one word, not 50 copies.
        assert_eq!(img.stats.n_action_words, 1);
    }

    #[test]
    fn uap_mode_duplicates_blocks() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        for sym in 0..50u16 {
            b.labeled_arc(s, sym, Target::State(s), emit(b'!'));
        }
        b.fallback_arc(s, Target::State(s), vec![]);
        let img = b
            .assemble(&LayoutOptions {
                uap_attach: true,
                ..Default::default()
            })
            .unwrap();
        assert!(!img.executable);
        assert_eq!(img.stats.n_action_words, 50);
    }

    #[test]
    fn footprints_never_collide() {
        // Many states with overlapping symbol ranges must interleave
        // without slot collisions.
        let mut b = ProgramBuilder::new();
        let states: Vec<_> = (0..40).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        for (i, &s) in states.iter().enumerate() {
            for k in 0..8u16 {
                let sym = ((i as u16 * 7) + k * 31) % 256;
                let tgt = states[(i + k as usize) % states.len()];
                if !matches!(b.state(s), StateNode::Consuming { arcs, .. }
                             if arcs.iter().any(|(x, _)| *x == sym))
                {
                    b.labeled_arc(s, sym, Target::State(tgt), vec![]);
                }
            }
            b.fallback_arc(s, Target::State(states[0]), vec![]);
        }
        let img = b.assemble(&LayoutOptions::default()).unwrap();
        // Verify the perfect-hash property: every labeled arc is
        // retrievable by base+symbol with a matching signature.
        for (sid, &base) in img.state_bases.iter().enumerate() {
            if let StateNode::Consuming { arcs, .. } = b.state(crate::ir::StateId(sid as u32)) {
                for (sym, _) in arcs {
                    let w = TransitionWord::decode(img.words[base as usize + *sym as usize]);
                    assert_eq!(w.signature(), *sym as u8, "state {sid} symbol {sym}");
                }
            }
        }
    }

    #[test]
    fn cross_segment_arcs_get_setbase() {
        // Force a multi-bank program: enough states to spill past 4096 words.
        let mut b = ProgramBuilder::new();
        let states: Vec<_> = (0..40).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        for (i, &s) in states.iter().enumerate() {
            // Dense states: 200 labeled arcs each → footprint ~201 words.
            for sym in 0..200u16 {
                b.labeled_arc(s, sym, Target::State(states[(i + 1) % 40]), vec![]);
            }
            b.fallback_arc(s, Target::State(states[0]), vec![]);
        }
        let img = b.assemble(&LayoutOptions::with_banks(4)).unwrap();
        assert!(img.stats.span_words > BANK_WORDS, "should span segments");
        // Some arcs must carry a SetBase action (counted as action words).
        assert!(img.stats.n_action_words > 0);
    }

    #[test]
    fn program_too_large_reports_window() {
        let mut b = ProgramBuilder::new();
        // 40 dense states cannot fit one 4096-word bank.
        let states: Vec<_> = (0..40).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        for &s in &states {
            for sym in 0..256u16 {
                b.labeled_arc(s, sym, Target::State(s), vec![]);
            }
        }
        match b.assemble(&LayoutOptions::default()) {
            Err(AsmError::ProgramTooLarge { window, .. }) => assert_eq!(window, BANK_WORDS),
            other => panic!("expected ProgramTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn too_many_action_blocks_is_detected() {
        let mut b = ProgramBuilder::new();
        let states: Vec<_> = (0..3).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        // > 510 distinct blocks exceeds direct + scaled attach capacity.
        let mut n = 0u16;
        'outer: for &s in &states {
            for sym in 0..256u16 {
                b.labeled_arc(
                    s,
                    sym,
                    Target::State(s),
                    vec![
                        Action::imm(Opcode::MovI, Reg::new(1), Reg::R0, n),
                        Action::imm(Opcode::MovI, Reg::new(2), Reg::R0, n + 1),
                    ],
                );
                n += 1;
                if n == 700 {
                    break 'outer;
                }
            }
        }
        assert!(matches!(
            b.assemble(&LayoutOptions::with_banks(4)),
            Err(AsmError::TooManyActionBlocks { .. })
        ));
    }

    #[test]
    fn oversized_action_block_is_detected() {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let block: Vec<Action> = (0..100)
            .map(|i| Action::imm(Opcode::MovI, Reg::new(1), Reg::R0, i))
            .collect();
        b.labeled_arc(s, 0, Target::State(s), block);
        assert!(matches!(
            b.assemble(&LayoutOptions::default()),
            Err(AsmError::ActionBlockTooLong { len: 100 })
        ));
    }

    #[test]
    fn no_state_lands_on_a_segment_boundary() {
        let mut b = ProgramBuilder::new();
        let states: Vec<_> = (0..60).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        for (i, &s) in states.iter().enumerate() {
            for sym in 0..120u16 {
                b.labeled_arc(s, sym, Target::State(states[(i + 1) % 60]), vec![]);
            }
            b.fallback_arc(s, Target::State(states[0]), vec![]);
        }
        let img = b.assemble(&LayoutOptions::with_banks(8)).unwrap();
        assert!(img.stats.span_words > 4096, "must cross segments");
        for &base in &img.state_bases {
            assert_ne!(base & 0xFFF, 0, "base {base:#x} on a boundary");
        }
    }

    #[test]
    fn error_messages_are_displayable() {
        for e in [
            AsmError::NoEntry,
            AsmError::ProgramTooLarge {
                needed: 5000,
                window: 4096,
            },
            AsmError::TooManyActionBlocks { blocks: 300 },
            AsmError::ActionBlockTooLong { len: 99 },
            AsmError::TargetSegmentOutOfRange { segment: 18 },
            AsmError::SelfCheck {
                addr: 0x123,
                detail: "synthetic".into(),
            },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn self_check_accepts_assembled_programs() {
        let mut b = ProgramBuilder::new();
        let states: Vec<_> = (0..6).map(|_| b.add_consuming_state()).collect();
        b.set_entry(states[0]);
        for (i, &s) in states.iter().enumerate() {
            let next = states[(i + 1) % states.len()];
            for sym in 0..32u16 {
                b.labeled_arc(s, sym * 8, Target::State(next), vec![]);
            }
            b.fallback_arc(s, Target::State(s), vec![]);
        }
        let opts = LayoutOptions {
            self_check: true,
            ..LayoutOptions::default()
        };
        b.assemble(&opts).expect("self-check must pass");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_layout_is_collision_free(seed_arcs in proptest::collection::vec((0u16..256, 0usize..12), 1..120)) {
            let mut b = ProgramBuilder::new();
            let states: Vec<_> = (0..12).map(|_| b.add_consuming_state()).collect();
            b.set_entry(states[0]);
            let mut seen = std::collections::HashSet::new();
            for (i, (sym, tgt)) in seed_arcs.iter().enumerate() {
                let from = states[i % states.len()];
                if seen.insert((from, *sym)) {
                    b.labeled_arc(from, *sym, Target::State(states[tgt % states.len()]), vec![]);
                }
            }
            let img = b.assemble(&LayoutOptions::default()).unwrap();
            for (sid, &base) in img.state_bases.iter().enumerate() {
                if let StateNode::Consuming { arcs, .. } = b.state(crate::ir::StateId(sid as u32)) {
                    for (sym, _) in arcs {
                        let w = TransitionWord::decode(img.words[base as usize + *sym as usize]);
                        prop_assert_eq!(w.signature(), *sym as u8);
                    }
                }
            }
        }

        /// EffCLiP integrity under load: random IRs with attached action
        /// blocks, fallbacks, and pass states pack with zero word
        /// collisions (the native `self_check` re-derives every claim)
        /// and never report more words used than the span holds.
        #[test]
        fn prop_effclip_packs_action_blocks_without_collisions(
            seed_arcs in proptest::collection::vec((0u16..256, 0usize..10, 0usize..4), 1..100)
        ) {
            let mut b = ProgramBuilder::new();
            let states: Vec<_> = (0..8).map(|_| b.add_consuming_state()).collect();
            // Two pass states widen the shape mix: their slot-256 words
            // are the fallback-family aliases the packer must dodge.
            let p0 = b.add_pass_state(0, crate::ir::Arc { target: Target::State(states[0]), actions: vec![] });
            let p1 = b.add_pass_state(3, crate::ir::Arc { target: Target::State(p0), actions: emit(b'.') });
            b.set_entry(states[0]);
            let mut seen = std::collections::HashSet::new();
            for (i, (sym, tgt, n_act)) in seed_arcs.iter().enumerate() {
                let from = states[i % states.len()];
                if !seen.insert((from, *sym)) {
                    continue;
                }
                let target = if tgt % 9 == 8 { Target::State(p1) } else { Target::State(states[tgt % states.len()]) };
                let actions: Vec<Action> = (0..*n_act)
                    .map(|k| Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, (*sym + k as u16) & 0xFF))
                    .collect();
                b.labeled_arc(from, *sym, target, actions);
            }
            for (i, &s) in states.iter().enumerate() {
                if i % 2 == 0 {
                    b.fallback_arc(s, Target::Halt, emit(b'F'));
                }
            }
            let opts = LayoutOptions { self_check: true, ..LayoutOptions::default() };
            let img = b.assemble(&opts).unwrap();
            prop_assert!(
                img.stats.words_used <= img.stats.span_words,
                "used {} > span {}", img.stats.words_used, img.stats.span_words
            );
        }

        /// The accounting invariant holds at every window size the
        /// fixpoint settles into, not just the roomy default.
        #[test]
        fn prop_words_used_never_exceeds_span(
            seed_arcs in proptest::collection::vec((0u16..256, 0usize..6), 1..60),
            banks in 1usize..5
        ) {
            let mut b = ProgramBuilder::new();
            let states: Vec<_> = (0..6).map(|_| b.add_consuming_state()).collect();
            b.set_entry(states[0]);
            let mut seen = std::collections::HashSet::new();
            for (i, (sym, tgt)) in seed_arcs.iter().enumerate() {
                let from = states[i % states.len()];
                if seen.insert((from, *sym)) {
                    b.labeled_arc(from, *sym, Target::State(states[tgt % states.len()]), emit(*sym as u8));
                }
            }
            let opts = LayoutOptions {
                self_check: true,
                ..LayoutOptions::with_banks(banks)
            };
            if let Ok(img) = b.assemble(&opts) {
                prop_assert!(img.stats.words_used <= img.stats.span_words);
                prop_assert!(img.stats.span_words <= banks * udp_isa::mem::BANK_WORDS);
            }
        }
    }
}
