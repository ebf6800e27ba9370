//! # udp-sim — cycle-accurate simulator of the UDP accelerator
//!
//! The paper evaluates the UDP with "a cycle-accurate UDP simulator written
//! in C++ ... using speed (1 GHz) and power (864 milliwatts) derived from
//! the UDP implementation" (§4.4). This crate is that simulator, in Rust:
//!
//! * [`Lane`] interprets one UDP lane: multi-way dispatch with the
//!   fallback signature check, variable-size symbols with refill,
//!   flagged (register-source) dispatch, and the full action set.
//! * [`Udp`] models the 64-lane device: program loading at per-lane
//!   window origins, data-parallel execution, restricted/global/local
//!   addressing, and bank-conflict stall accounting.
//! * [`PreparedKernel`] is a program prepared once for many runs: its
//!   image, predecoded table, and lazily compiled dispatch tables.
//! * [`energy`] holds the power/area model seeded with the paper's
//!   Table 3 constants and a CACTI-lite memory-energy model.
//!
//! Timing model (1 GHz): dispatch = 1 cycle (bank read folded in, as in
//! the 0.97 ns timing closure of §6); fallback miss = +1 cycle; each
//! action = 1 cycle except the loop actions (`1 + ceil(n/8)`, modeling an
//! 8-byte/cycle datapath) and `BumpW` (2 cycles, read-modify-write).
//!
//! ## Example
//!
//! ```
//! use udp_asm::{ProgramBuilder, Target, LayoutOptions};
//! use udp_isa::action::{Action, Opcode};
//! use udp_isa::Reg;
//! use udp_sim::{Lane, LaneConfig};
//!
//! // Count 'a' bytes: emit one output byte per match.
//! let mut b = ProgramBuilder::new();
//! let s = b.add_consuming_state();
//! b.set_entry(s);
//! b.labeled_arc(s, b'a' as u16, Target::State(s),
//!     vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'!' as u16)]);
//! b.fallback_arc(s, Target::State(s), vec![]);
//! let image = b.assemble(&LayoutOptions::default())?;
//!
//! let report = Lane::run_program(&image, b"banana", &LaneConfig::default());
//! assert_eq!(report.output, b"!!!");
//! # Ok::<(), udp_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-free degradation discipline (DESIGN.md §8): corrupt state must
// surface as a typed error or LaneStatus::Fault, never a host abort.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod compiled;
pub mod energy;
pub mod engine;
pub mod error;
pub mod lane;
pub mod memory;
mod pool;
mod prepared;
pub mod stream;
pub mod supervisor;

pub use energy::{AreaModel, PowerModel, CPU_TDP_WATTS, UDP_SYSTEM_WATTS};
pub use engine::{ExecBackend, ParseBackendError, Staging, Udp, UdpRunOptions, UdpRunReport};
pub use error::{FaultKind, SimError};
pub use lane::{Lane, LaneConfig, LaneReport, LaneStatus};
pub use memory::LocalMemory;
pub use prepared::PreparedKernel;
pub use stream::{BitStream, OutputSink};
pub use supervisor::{
    ChunkOutcome, QuarantineReason, ReferenceFallback, RunHealth, SupervisorOptions,
};

/// Why the tier-2 compiled backend would decline to specialize `image`,
/// as a stable snake-case reason string — `None` when it compiles.
///
/// Diagnostic-only: re-runs the compile pipeline from scratch (runs use
/// the tables their [`PreparedKernel`] keeps), so call it off the hot
/// path.
/// Benches surface it as the `compiled_declined` column in
/// `hostperf --json`, recording *why* a kernel ran at interpreter
/// parity instead of leaving a silent gap in the trajectory.
pub fn compiled_decline_reason(image: &udp_asm::ProgramImage) -> Option<&'static str> {
    compiled::decline_reason(image)
}
