//! Static resource certificates.
//!
//! A [`ResourceCert`] is the output of `udp-verify`'s abstract-
//! interpretation cost analysis (DESIGN.md §9.1): per-program upper
//! bounds on how many cycles a lane can spend and how many output bytes
//! it can emit *per input byte consumed*, valid at every point of a
//! clean (non-chaos) run — including runs that end in a fault or with
//! the input only partially consumed.
//!
//! The type lives in `udp-asm` (not `udp-verify`) because it travels on
//! [`crate::ProgramImage`], and the crate dependency direction is
//! `asm ← verify ← sim ← serve`. The verifier *derives* certificates;
//! everything downstream only consumes them.

/// Which resource a [`CostBlocker`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostMetric {
    /// Lane cycles charged against the run budget.
    Cycles,
    /// Bytes appended to the lane output buffer.
    Output,
}

impl std::fmt::Display for CostMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostMetric::Cycles => write!(f, "cycles"),
            CostMetric::Output => write!(f, "output"),
        }
    }
}

/// A structured reason why one of the certificate's bounds could not be
/// established. The verifier maps each blocker to a `cost-unbounded`
/// finding; keeping the structured form on the cert lets downstream
/// layers (supervisor, serve) reason about *which* bound is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBlocker {
    /// The bound this blocker defeats.
    pub metric: CostMetric,
    /// Flat word address of the offending arc or action, when known.
    pub addr: Option<u32>,
    /// Human-readable explanation (e.g. "cycle through state 0x1000
    /// consumes no input").
    pub reason: String,
}

/// Static cost bounds for one assembled program.
///
/// The certified claim, checked empirically by the differential
/// harness over the whole corpus: at **every** point of a clean run,
///
/// ```text
/// cycles        <= base_cycles       + max_cycles_per_byte   * bytes_consumed
/// output bytes  <= base_output_bytes + max_output_expansion  * bytes_consumed
/// ```
///
/// where `bytes_consumed` is the lane's input byte index. A bound is
/// `None` when the corresponding progress ratio could not be bounded
/// statically (see [`ResourceCert::unbounded`]); the additive base
/// still holds for whatever partial analysis succeeded, but is only
/// meaningful alongside a present ratio.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceCert {
    /// Max cycles charged per input byte consumed (the λ* ratio of the
    /// worst cost-to-progress cycle in the program graph), or `None`
    /// if some reachable cycle spends cycles without guaranteed input
    /// progress.
    pub max_cycles_per_byte: Option<u64>,
    /// Additive cycle slack: dispatch/action work not amortized against
    /// input progress (path prefixes, the final partial block).
    pub base_cycles: u64,
    /// Guaranteed minimum forward progress as a rational
    /// `(bytes, cycles)`: the lane consumes at least `bytes` input
    /// bytes per `cycles` cycles once past `base_cycles`. This is the
    /// reciprocal of `max_cycles_per_byte` and is what admission
    /// control divides by to turn a cycle budget into a byte capacity.
    pub min_bytes_per_cycle_progress: Option<(u64, u64)>,
    /// Max output bytes emitted per input byte consumed, or `None` if
    /// some reachable cycle can emit without guaranteed input progress.
    pub max_output_expansion: Option<u64>,
    /// Additive output slack, analogous to `base_cycles`.
    pub base_output_bytes: u64,
    /// Maximum number of bulk-loop operations in any single reachable
    /// action block (UDP action blocks are linear, so this is the
    /// loop-nesting depth).
    pub max_loop_nest: u32,
    /// Structured reasons for each missing bound; empty iff the cert
    /// is complete.
    pub unbounded: Vec<CostBlocker>,
}

impl ResourceCert {
    /// True when both the cycle and output ratios were established.
    pub fn is_complete(&self) -> bool {
        self.max_cycles_per_byte.is_some() && self.max_output_expansion.is_some()
    }

    /// Certified upper bound on cycles for an input of `input_bytes`
    /// bytes (saturating), or `None` if the cycle ratio is unbounded.
    pub fn cycle_bound(&self, input_bytes: usize) -> Option<u64> {
        let per = self.max_cycles_per_byte?;
        Some(
            self.base_cycles
                .saturating_add(per.saturating_mul(input_bytes as u64)),
        )
    }

    /// Certified upper bound on output bytes for an input of
    /// `input_bytes` bytes (saturating), or `None` if the expansion
    /// ratio is unbounded.
    pub fn output_bound(&self, input_bytes: usize) -> Option<u64> {
        let per = self.max_output_expansion?;
        Some(
            self.base_output_bytes
                .saturating_add(per.saturating_mul(input_bytes as u64)),
        )
    }

    /// One-line summary for annotated listings and service logs.
    pub fn summary(&self) -> String {
        let cpb = match self.max_cycles_per_byte {
            Some(c) => format!("{c}"),
            None => "unbounded".to_string(),
        };
        let exp = match self.max_output_expansion {
            Some(e) => format!("{e}"),
            None => "unbounded".to_string(),
        };
        format!(
            "cycles/byte<={cpb} (+{base}), out-bytes/byte<={exp} (+{obase}), \
             loop-nest<={nest}{blockers}",
            base = self.base_cycles,
            obase = self.base_output_bytes,
            nest = self.max_loop_nest,
            blockers = if self.unbounded.is_empty() {
                String::new()
            } else {
                format!(", {} blocker(s)", self.unbounded.len())
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_saturate_and_gate_on_presence() {
        let cert = ResourceCert {
            max_cycles_per_byte: Some(3),
            base_cycles: 10,
            min_bytes_per_cycle_progress: Some((1, 3)),
            max_output_expansion: None,
            base_output_bytes: 4,
            ..Default::default()
        };
        assert_eq!(cert.cycle_bound(100), Some(310));
        assert_eq!(cert.output_bound(100), None);
        assert!(!cert.is_complete());
        let huge = ResourceCert {
            max_cycles_per_byte: Some(u64::MAX),
            base_cycles: u64::MAX,
            ..Default::default()
        };
        assert_eq!(huge.cycle_bound(usize::MAX), Some(u64::MAX));
    }

    #[test]
    fn summary_mentions_missing_bounds() {
        let cert = ResourceCert {
            max_cycles_per_byte: Some(2),
            unbounded: vec![CostBlocker {
                metric: CostMetric::Output,
                addr: Some(0x1000),
                reason: "emits without consuming".into(),
            }],
            ..Default::default()
        };
        let s = cert.summary();
        assert!(s.contains("cycles/byte<=2"));
        assert!(s.contains("unbounded"));
        assert!(s.contains("1 blocker(s)"));
    }
}
