//! Prepare-once kernels (DESIGN.md §2.6.3).
//!
//! The paper's UDP loads a program into lane memory once and then
//! streams many inputs through it. [`PreparedKernel`] is the host-side
//! counterpart: the program image, its predecoded table, and — built on
//! the first run that selects [`crate::ExecBackend::Compiled`] — the
//! compiled backend's dispatch tables. [`crate::Udp::run`] executes a
//! prepared kernel; the image-taking entry points memoize one.

use crate::compiled::CompiledProgram;
use std::sync::{Arc, OnceLock};
use udp_asm::{DecodedProgram, ProgramImage};

/// A program ready for repeated device runs: the image, its
/// decode-once table, and its lazily lowered compiled tables.
///
/// Building one predecodes the image and nothing more. Compilation
/// waits for the first compiled run, so registering a kernel that only
/// ever interprets (or never runs) costs no compile time; once built,
/// the compiled tables are shared by every later run and thread.
pub struct PreparedKernel {
    image: Arc<ProgramImage>,
    decoded: Arc<DecodedProgram>,
    /// `None` inside once compilation declined (the interpreter then
    /// runs; the semantics are identical either way).
    compiled: OnceLock<Option<CompiledProgram>>,
}

impl PreparedKernel {
    /// Prepares `image`, predecoding it.
    pub fn new(image: Arc<ProgramImage>) -> Self {
        let decoded = Arc::new(image.predecode());
        Self::from_parts(image, decoded)
    }

    /// Prepares `image` around a caller's predecoded table. The table is shared only if its raw words
    /// are exactly `image.words`; otherwise the image is predecoded
    /// afresh. Lanes fetch from the table without re-reading memory
    /// while the code is pristine, so a table from another image would
    /// run another program.
    pub fn with_decoded(image: Arc<ProgramImage>, decoded: &Arc<DecodedProgram>) -> Self {
        if decodes_words(decoded, &image.words) {
            Self::from_parts(image, Arc::clone(decoded))
        } else {
            Self::new(image)
        }
    }

    fn from_parts(image: Arc<ProgramImage>, decoded: Arc<DecodedProgram>) -> Self {
        PreparedKernel {
            image,
            decoded,
            compiled: OnceLock::new(),
        }
    }

    /// The program image.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// The predecoded table every lane of every run shares.
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// The compiled tables, lowering them on first use; `None` when the
    /// compiled backend declines this program.
    pub(crate) fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled
            .get_or_init(|| CompiledProgram::compile(&self.image, &self.decoded).ok())
            .as_ref()
    }
}

impl std::fmt::Debug for PreparedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let compiled = match self.compiled.get() {
            None => "pending",
            Some(None) => "declined",
            Some(Some(_)) => "ready",
        };
        f.debug_struct("PreparedKernel")
            .field("span_words", &self.image.words.len())
            .field("compiled", &compiled)
            .finish()
    }
}

/// True when `decoded` is the predecode of `words`: its raw words are
/// exactly `words`. (Both of its views are built from the same words,
/// so checking one view checks the table.)
fn decodes_words(decoded: &DecodedProgram, words: &[u32]) -> bool {
    decoded.len() == words.len()
        && decoded
            .transitions()
            .iter()
            .zip(words)
            .all(|(&(raw, _), &w)| raw == w)
}
