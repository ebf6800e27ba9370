//! # udp-isa — the UDP lane instruction-set architecture
//!
//! This crate defines the instruction-set architecture of the Unstructured
//! Data Processor (UDP) as described in *"UDP: A Programmable Accelerator for
//! Extract-Transform-Load Workloads and More"* (Fang, Zou, Elmore, Chien,
//! MICRO-50, 2017), reconstructed where the paper defers to the UDP ISA
//! technical report (TR-2017-05).
//!
//! The ISA has two word classes, both 32 bits wide (paper Figure 6):
//!
//! * **Transitions** implement multi-way dispatch:
//!   `signature(8) | target(12) | type(4) | attach(8)`.
//! * **Actions** implement general computation, chained in blocks terminated
//!   by a `last` bit, in three formats: `ImmAction`, `Imm2Action`,
//!   `RegAction`.
//!
//! See [`TransitionWord`], [`Action`], [`Opcode`], and the dispatch-model
//! documentation on [`ExecKind`].
//!
//! The ISA's semantics are written once here, as data the simulator and
//! the verifier both read: [`Charge`] (what an action costs), [`Effects`]
//! (what it may observe or disturb beyond the registers) and
//! [`Opcode::eval`] over a [`ValueDomain`] (the value a register op
//! writes: `u32` for execution, intervals for the static analysis).
//!
//! ## Example
//!
//! ```
//! use udp_isa::{TransitionWord, ExecKind, AttachMode};
//!
//! let t = TransitionWord::new(0x41, 0x123, ExecKind::Consume, AttachMode::Direct, 7);
//! let raw = t.encode();
//! assert_eq!(TransitionWord::decode(raw), t);
//! assert_eq!(t.target(), 0x123);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod mem;
pub mod reg;
pub mod symbol;
pub mod transition;

pub use action::{
    issue_cycles, Action, ActionFormat, Charge, Effects, Opcode, OutBytes, ValueDomain, BLOCK_CAP,
    LOOP_CAP,
};
pub use mem::{AddressingMode, BANK_BYTES, BANK_WORDS, FALLBACK_SLOT, NUM_BANKS, TOTAL_BYTES};
pub use reg::Reg;
pub use symbol::SymbolSize;
pub use transition::{AttachMode, ExecKind, TransitionWord};

/// One machine word: both transitions and actions are 32 bits.
pub type Word = u32;

/// A word address within a lane's addressable window.
///
/// `target` fields are 12 bits (one 16 KB bank = 4096 words); restricted and
/// global addressing extend the effective range with a per-lane base.
pub type WordAddr = u32;
