//! Assembled program images, layout statistics, and the predecoded
//! execution table the simulator's hot path indexes into.

use udp_isa::action::Action;
use udp_isa::transition::{ExecKind, TransitionWord};
use udp_isa::Word;

/// Per-lane register initialization shipped with a program (performed by
/// the host driver before streaming begins, like vector-register staging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneInit {
    /// Initial symbol-size register value in bits.
    pub symbol_bits: u8,
    /// Action-base register for scaled-offset attach addressing.
    pub abase: u32,
    /// Action-scale register (log2 words per scaled slot).
    pub ascale: u8,
    /// Initial window-base register (restricted addressing).
    pub wbase: u32,
}

/// Code-size and layout statistics — the raw material for the paper's
/// Figure 5c and Figure 8b (code size limits lane parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutStats {
    /// Total extent of the laid-out program in words (including packing
    /// gaps) — the window a lane must own to hold a copy.
    pub span_words: usize,
    /// Words actually written (transitions + actions + reserved slots).
    pub words_used: usize,
    /// Number of IR states placed.
    pub n_states: usize,
    /// Stored transition words.
    pub n_transition_words: usize,
    /// Stored action words.
    pub n_action_words: usize,
    /// Words in the direct (globally shared) attach region.
    pub direct_region_words: usize,
    /// Words in the scaled-offset attach region.
    pub scaled_region_words: usize,
}

impl LayoutStats {
    /// Program size in bytes (span × 4), the metric of Figures 5c / 8b.
    pub fn code_bytes(&self) -> usize {
        self.span_words * 4
    }

    /// How many lanes of a `total_words` memory can each hold a private
    /// copy of this program, capped at 64 (Figure 8b: "code-size limits
    /// parallelism").
    pub fn max_parallelism(&self, total_words: usize) -> usize {
        if self.span_words == 0 {
            return udp_isa::NUM_BANKS;
        }
        (total_words / self.span_words).clamp(0, udp_isa::NUM_BANKS)
    }

    /// Memory utilization: fraction of the span that holds live words.
    pub fn density(&self) -> f64 {
        if self.span_words == 0 {
            return 1.0;
        }
        self.words_used as f64 / self.span_words as f64
    }
}

/// A loadable UDP program.
///
/// Equality is exact over every field, certificate included: the sim
/// engine keys its process-wide prepared-kernel cache on it, so two
/// images compare equal only when every run of one is a run of the
/// other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImage {
    /// The memory image, `stats.span_words` long, window-relative.
    pub words: Vec<Word>,
    /// Flat word address of the entry state's base.
    pub entry_base: u32,
    /// How the entry state dispatches first.
    pub entry_kind: ExecKind,
    /// Initial lane register state.
    pub init: LaneInit,
    /// Flat base address of every IR state (diagnostics and tests).
    pub state_bases: Vec<u32>,
    /// Layout statistics.
    pub stats: LayoutStats,
    /// False for size-model-only layouts (UAP attach mode), which may
    /// alias attach fields and must not be executed.
    pub executable: bool,
    /// Static resource certificate, attached by
    /// `udp_verify::assemble_verified` when the cost analysis ran.
    /// Plain `assemble` leaves it `None`; every downstream consumer
    /// (budget derivation, admission, the compiled backend) falls back
    /// to its pre-certificate behavior in that case.
    pub cert: Option<crate::cert::ResourceCert>,
}

impl ProgramImage {
    /// Decodes the whole image once into a [`DecodedProgram`] lookup
    /// table, so a lane can execute without re-decoding the 32-bit
    /// transition/action words on every consumed symbol.
    pub fn predecode(&self) -> DecodedProgram {
        DecodedProgram::from_words(&self.words)
    }
}

/// Decode-once / execute-many representation of a program image.
///
/// Every word offset gets both interpretations decoded up front: the
/// [`TransitionWord`] view (total — every `u32` decodes) and the
/// [`Action`] view (`None` for undecodable action words, which the
/// lane turns into a fault exactly as the lazy path does). The raw
/// words are kept alongside so the table can be *validated* against
/// live memory: restricted/global addressing lets a program write into
/// its own code words, and a lookup whose raw word no longer matches
/// simply misses, sending the lane back to the decode-on-read slow
/// path. Cycle, reference, and conflict accounting are unaffected —
/// this is purely a host-side representation change.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// `(raw word, transition view)` pairs — interleaved so a validated
    /// lookup touches one slot (one bounds check, one cache line).
    transitions: Vec<(Word, TransitionWord)>,
    /// `(raw word, action view)` pairs, same layout.
    actions: Vec<(Word, Option<Action>)>,
}

impl DecodedProgram {
    /// Decodes every word of `words` both ways.
    pub fn from_words(words: &[Word]) -> Self {
        DecodedProgram {
            transitions: words
                .iter()
                .map(|&w| (w, TransitionWord::decode(w)))
                .collect(),
            actions: words.iter().map(|&w| (w, Action::decode(w))).collect(),
        }
    }

    /// Table length in words.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True for an empty table.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The whole `(raw word, transition view)` table, unvalidated — for
    /// callers that already know the live memory words match the image
    /// (pristine code window) and want the slice hoisted into a local
    /// so the hot loop skips the pointer chase.
    #[inline]
    pub fn transitions(&self) -> &[(Word, TransitionWord)] {
        &self.transitions
    }

    /// The `(raw word, action view)` table, unvalidated.
    #[inline]
    pub fn actions(&self) -> &[(Word, Option<Action>)] {
        &self.actions
    }

    /// The predecoded transition at window offset `off`, provided the
    /// live memory word `raw` still matches the image (i.e. the code
    /// word was not overwritten since load).
    #[inline]
    pub fn transition(&self, off: usize, raw: Word) -> Option<TransitionWord> {
        match self.transitions.get(off) {
            Some(&(cached, t)) if cached == raw => Some(t),
            _ => None,
        }
    }

    /// The predecoded action view at window offset `off`, under the
    /// same raw-word validity rule. The outer `Option` is table
    /// applicability; the inner one is decodability (`None` = fault,
    /// as with [`Action::decode`]).
    #[inline]
    #[allow(clippy::option_option)]
    pub fn action(&self, off: usize, raw: Word) -> Option<Option<Action>> {
        match self.actions.get(off) {
            Some(&(cached, a)) if cached == raw => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_code_size_limited() {
        let stats = LayoutStats {
            span_words: 8192, // two banks worth
            ..Default::default()
        };
        assert_eq!(stats.max_parallelism(udp_isa::mem::TOTAL_WORDS), 32);
    }

    #[test]
    fn parallelism_caps_at_lane_count() {
        let stats = LayoutStats {
            span_words: 10,
            ..Default::default()
        };
        assert_eq!(stats.max_parallelism(udp_isa::mem::TOTAL_WORDS), 64);
    }

    #[test]
    fn density_of_empty_is_one() {
        assert_eq!(LayoutStats::default().density(), 1.0);
    }
}
