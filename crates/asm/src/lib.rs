//! # udp-asm — the UDP assembler and EffCLiP layout engine
//!
//! This crate is the shared backend of the UDP software stack (paper §4.3,
//! Figure 12). Domain-specific translators (crate `udp-compilers`) build a
//! [`ProgramBuilder`] — a graph of dispatch states, arcs, and action
//! blocks — and this crate turns it into a loadable [`ProgramImage`]:
//!
//! 1. **Transition-type back-propagation**: the `type` nibble stored in
//!    each transition word describes how its *target* dispatches, so the
//!    assembler derives it from the target node and propagates it onto
//!    every incoming arc (paper §3.2.1).
//! 2. **Action-block sharing**: identical blocks are deduplicated, and the
//!    most-referenced blocks are placed in the *direct* attach region for
//!    global sharing while the rest go to the *scaled-offset* region —
//!    the addressing improvement over the UAP that halves some kernels'
//!    code size (Figure 5c). UAP-compatible offset addressing is available
//!    via [`LayoutOptions::uap_attach`] for that comparison.
//! 3. **EffCLiP placement** (Efficient Coupled Linear Packing \[55\]):
//!    states are packed so that `base + symbol` — a bare integer addition —
//!    is a perfect hash: every *occupied* slot is exclusively owned, and
//!    reads of unowned slots are detected by the signature check.
//!
//! ## Example
//!
//! ```
//! use udp_asm::{ProgramBuilder, Target, LayoutOptions};
//! use udp_isa::action::{Action, Opcode};
//! use udp_isa::Reg;
//!
//! // A one-state loop that emits 'x' every time it sees byte 'a'.
//! let mut b = ProgramBuilder::new();
//! let s = b.add_consuming_state();
//! b.set_entry(s);
//! b.labeled_arc(s, b'a' as u16, Target::State(s),
//!               vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'x' as u16)]);
//! b.fallback_arc(s, Target::State(s), vec![]);
//! let image = b.assemble(&LayoutOptions::default())?;
//! assert!(image.stats.words_used > 0);
//! # Ok::<(), udp_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cert;
pub mod disasm;
pub mod idiom;
pub mod image;
pub mod ir;
pub mod layout;
pub mod serial;
pub mod text;

pub use cert::{CostBlocker, CostMetric, ResourceCert};
pub use disasm::{classify_words, disassemble, WordKind};
pub use image::{DecodedProgram, LaneInit, LayoutStats, ProgramImage};
pub use ir::{Arc, DispatchSource, ProgramBuilder, StateId, StateNode, Target};
pub use layout::{AsmError, LayoutOptions};
pub use serial::{decode_image, encode_image, SerialError, FORMAT_VERSION};
pub use text::{emit_asm, parse_asm, ParseAsmError};
