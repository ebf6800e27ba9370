//! Chunk supervision: the retry → fallback → quarantine recovery
//! ladder over the persistent lane pool (DESIGN.md §8).
//!
//! A chunk that ends in [`LaneStatus::Fault`] is not silently dropped
//! from the run anymore. When a [`SupervisorOptions`] is attached to
//! [`crate::UdpRunOptions::supervise`], the engine hands the per-chunk
//! reports to its supervision pass, which walks them in chunk order
//! and climbs the ladder for each faulted chunk:
//!
//! 1. **Retry.** The chunk is re-executed from its original staging on
//!    a fresh pool lane slot — the same reset/replay machinery every
//!    pool worker uses, so a replay is bit-identical to a first
//!    attempt. Attempts are bounded ([`SupervisorOptions::max_retries`])
//!    with a capped host-side backoff between them. Transient chaos
//!    hooks ([`LaneConfig::chaos_transient`]) are disarmed on replay,
//!    modeling soft errors that do not recur.
//! 2. **Fallback.** If every replay re-faults, a registered software
//!    [`ReferenceFallback`] (the CPU reference codec the paper's §6
//!    baselines keep deployed) produces the chunk's output instead.
//! 3. **Quarantine.** Only when both rungs fail is the chunk
//!    quarantined with a structured [`QuarantineReason`]; its partial
//!    output is dropped so no half-written bytes leak into
//!    [`crate::UdpRunReport::concat_output`], and every sibling chunk
//!    is untouched — a poisoned chunk degrades one chunk, never the
//!    run.
//!
//! The ladder is deterministic for deterministic faults: replays of a
//! persistent fault re-fault identically (same [`FaultKind`]), so the
//! final [`RunHealth`] depends only on (image, staging, inputs,
//! config) — never on host scheduling. With
//! [`SupervisorOptions::differential`] set, the fallback doubles as a
//! continuous correctness oracle: clean chunks are cross-checked
//! byte-for-byte against the reference output.

use crate::error::FaultKind;
use crate::lane::{LaneConfig, LaneReport, LaneStatus};
use crate::pool::{self, RunParams, WindowSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A software reference implementation of the kernel a program image
/// was compiled from — the CPU baseline path a real deployment keeps
/// (paper §6). Implementations live next to the codecs
/// (`udp_codecs::fallback`); the contract is byte-equality with the
/// UDP kernel's output on every input the kernel handles.
pub trait ReferenceFallback: Send + Sync {
    /// Stable name for reports and health summaries.
    fn name(&self) -> &'static str;

    /// Computes the reference output for one chunk's input bytes.
    /// `Err` means the reference itself cannot process the chunk
    /// (corrupt input) — the supervisor then quarantines.
    fn reference_output(&self, input: &[u8]) -> Result<Vec<u8>, String>;
}

/// Configuration of the supervision ladder.
///
/// Validate with [`SupervisorOptions::validate`] before use; the engine
/// does so in its pre-flight, so a self-contradictory config is a typed
/// [`SimError::SupervisorConfig`](crate::SimError::SupervisorConfig)
/// before any lane runs.
#[derive(Clone)]
pub struct SupervisorOptions {
    /// Replay attempts per faulted chunk before falling back.
    ///
    /// `0` skips the retry rung entirely: a faulted chunk goes straight
    /// to the fallback (or quarantine when no fallback is registered).
    /// That is a legitimate configuration for deterministic faults —
    /// replaying a persistent fault burns time to learn nothing — not a
    /// degenerate one, so `validate` accepts it.
    pub max_retries: u32,
    /// Base of the capped exponential backoff between replays, in
    /// milliseconds (`min(cap, base << attempt)` before attempt `n`).
    /// Zero disables sleeping entirely (tests).
    pub backoff_base_ms: u64,
    /// Ceiling of the backoff, milliseconds.
    pub backoff_cap_ms: u64,
    /// The software reference decoder to fall back to when replays
    /// keep faulting. `None` skips the fallback rung entirely.
    pub fallback: Option<Arc<dyn ReferenceFallback>>,
    /// Cross-check every *clean* chunk's output byte-for-byte against
    /// the reference fallback (requires `fallback`), recording
    /// mismatches in [`RunHealth`]. Turns the fallback into a
    /// continuous correctness oracle, at the cost of one software
    /// decode per chunk.
    pub differential: bool,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_retries: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 16,
            fallback: None,
            differential: false,
        }
    }
}

impl SupervisorOptions {
    /// Checks the options for internal contradictions.
    ///
    /// Rejects `backoff_cap_ms < backoff_base_ms`: every backoff value
    /// would clamp straight to the cap, so the exponential schedule the
    /// caller configured would silently never happen. (With
    /// `backoff_base_ms == 0` sleeping is disabled and the cap is
    /// irrelevant, so that always passes.)
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        if self.backoff_base_ms > 0 && self.backoff_cap_ms < self.backoff_base_ms {
            return Err(crate::error::SimError::SupervisorConfig {
                backoff_base_ms: self.backoff_base_ms,
                backoff_cap_ms: self.backoff_cap_ms,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for SupervisorOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorOptions")
            .field("max_retries", &self.max_retries)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("backoff_cap_ms", &self.backoff_cap_ms)
            .field(
                "fallback",
                &self.fallback.as_ref().map_or("none", |f| f.name()),
            )
            .field("differential", &self.differential)
            .finish()
    }
}

/// Why a chunk ended up quarantined: the fault that started the ladder
/// plus what the fallback rung said (or that there was none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineReason {
    /// The fault the chunk's final replay ended with.
    pub fault: FaultKind,
    /// The fallback's error, or `None` when no fallback was registered
    /// (including the unsupervised case, where a faulted chunk is
    /// quarantined directly).
    pub fallback_error: Option<String>,
}

/// How one chunk came through the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// Executed cleanly on the first attempt.
    Clean,
    /// Faulted, then a replay succeeded; the report is the replay's.
    Recovered {
        /// Replay attempts spent (1 = first retry succeeded).
        attempts: u32,
    },
    /// Every replay re-faulted; the output is the software reference's.
    Fallback,
    /// Both rungs failed (or supervision was off): the chunk's output
    /// is dropped and the structured reason recorded.
    Quarantined(QuarantineReason),
}

/// The health section of a [`crate::UdpRunReport`]: per-chunk outcomes
/// plus a histogram of every fault encountered (including faults that
/// were later recovered). Computed identically whatever the pool's
/// worker count, so it participates in the bit-identical determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunHealth {
    /// One outcome per input chunk, in chunk order.
    pub outcomes: Vec<ChunkOutcome>,
    /// `(fault kind name, count)` over every fault the run saw —
    /// first-attempt faults and re-faulting replays alike — sorted by
    /// name. Recovered chunks still contribute their original fault.
    pub fault_histogram: Vec<(&'static str, u64)>,
    /// Clean chunks cross-checked against the reference fallback
    /// (differential mode only).
    pub differential_checked: u64,
    /// Cross-checked chunks whose UDP output differed from the
    /// reference — each one is a correctness bug in kernel or model.
    pub differential_mismatches: u64,
}

impl RunHealth {
    /// Chunks that executed cleanly first try.
    pub fn clean(&self) -> u64 {
        self.count(|o| matches!(o, ChunkOutcome::Clean))
    }

    /// Chunks recovered by replay.
    pub fn recovered(&self) -> u64 {
        self.count(|o| matches!(o, ChunkOutcome::Recovered { .. }))
    }

    /// Chunks served by the software reference fallback.
    pub fn fallback(&self) -> u64 {
        self.count(|o| matches!(o, ChunkOutcome::Fallback))
    }

    /// Chunks quarantined.
    pub fn quarantined(&self) -> u64 {
        self.count(|o| matches!(o, ChunkOutcome::Quarantined(_)))
    }

    fn count(&self, f: impl Fn(&ChunkOutcome) -> bool) -> u64 {
        self.outcomes.iter().filter(|o| f(o)).count() as u64
    }

    /// Health of an unsupervised run: faulted chunks are quarantined
    /// directly (no retry or fallback rung to climb).
    pub(crate) fn passive(reports: &[LaneReport]) -> RunHealth {
        let mut hist = Histogram::default();
        let outcomes = reports
            .iter()
            .map(|r| match &r.status {
                LaneStatus::Fault(kind) => {
                    hist.bump(kind);
                    ChunkOutcome::Quarantined(QuarantineReason {
                        fault: kind.clone(),
                        fallback_error: None,
                    })
                }
                _ => ChunkOutcome::Clean,
            })
            .collect();
        RunHealth {
            outcomes,
            fault_histogram: hist.into_sorted(),
            differential_checked: 0,
            differential_mismatches: 0,
        }
    }
}

/// Name-keyed fault counter (tiny domain: linear scan beats a map).
#[derive(Default)]
struct Histogram(Vec<(&'static str, u64)>);

impl Histogram {
    fn bump(&mut self, kind: &FaultKind) {
        let name = kind.name();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => self.0.push((name, 1)),
        }
    }

    fn into_sorted(mut self) -> Vec<(&'static str, u64)> {
        self.0.sort_unstable_by_key(|(n, _)| *n);
        self.0
    }
}

/// Runs the recovery ladder over a finished run's reports, mutating
/// faulted chunks' reports in place (replaced by the successful
/// replay's report, overwritten with fallback output, or stripped of
/// partial output on quarantine) and keeping `finals` consistent: a
/// recovered chunk that is the last occupant of its device lane slot
/// contributes its replay's window snapshot, exactly as a clean run
/// would have.
pub(crate) fn supervise(
    p: &RunParams,
    inputs: &[&[u8]],
    reports: &mut [LaneReport],
    finals: &mut Vec<WindowSnapshot>,
    sup: &SupervisorOptions,
) -> RunHealth {
    let mut hist = Histogram::default();
    let mut outcomes = Vec::with_capacity(reports.len());
    let mut differential_checked = 0u64;
    let mut differential_mismatches = 0u64;
    // Replays disarm transient chaos hooks; persistent chaos stays
    // armed so deterministic faults re-fault deterministically.
    let retry_cfg = retry_config(p.cfg);
    let retry_params = RunParams {
        cfg: &retry_cfg,
        ..*p
    };
    for (idx, rep) in reports.iter_mut().enumerate() {
        let LaneStatus::Fault(first_fault) = rep.status.clone() else {
            // Clean chunk: optionally cross-check against the reference.
            if sup.differential {
                if let Some(fb) = &sup.fallback {
                    if let Ok(expect) = fb.reference_output(inputs[idx]) {
                        differential_checked += 1;
                        if expect != rep.output {
                            differential_mismatches += 1;
                        }
                    }
                }
            }
            outcomes.push(ChunkOutcome::Clean);
            continue;
        };
        hist.bump(&first_fault);

        // Rung 1: bounded deterministic replay from staging.
        //
        // Exception: a cycle-budget fault on an image with a complete
        // resource certificate. The certificate proves a clean run fits
        // the cert-derived budget, so blowing it is not a transient the
        // replay could absorb — the chunk is deterministically over
        // budget and every retry would burn the full budget again.
        // Go straight to the fallback rung (unless chaos hooks are
        // armed, where the budget fault may be the injected fault
        // itself and replays legitimately recover).
        let chaos_armed = p.cfg.chaos_panic_at.is_some() || p.cfg.chaos_fault_at.is_some();
        let certified_budget_fault = matches!(first_fault, FaultKind::CycleBudget { .. })
            && !chaos_armed
            && p.image.cert.as_ref().is_some_and(|c| c.is_complete());
        let retries = if certified_budget_fault {
            0
        } else {
            sup.max_retries
        };
        let mut last_fault = first_fault;
        let mut recovered = None;
        for attempt in 1..=retries {
            backoff(sup, attempt);
            let (replay, window) = replay_chunk(&retry_params, inputs[idx]);
            if let LaneStatus::Fault(kind) = &replay.status {
                hist.bump(kind);
                last_fault = kind.clone();
            } else {
                recovered = Some((attempt, replay, window));
                break;
            }
        }
        if let Some((attempts, new_rep, window)) = recovered {
            *rep = new_rep;
            if pool::is_final_occupant(idx, p.lanes_cap, inputs.len()) {
                upsert_final(finals, idx % p.lanes_cap, window);
            }
            outcomes.push(ChunkOutcome::Recovered { attempts });
            continue;
        }
        // Rung 2: software reference fallback.
        let fallback_error = match &sup.fallback {
            Some(fb) => match fb.reference_output(inputs[idx]) {
                Ok(bytes) => {
                    rep.output = bytes;
                    rep.bytes_consumed = inputs[idx].len() as u64;
                    outcomes.push(ChunkOutcome::Fallback);
                    continue;
                }
                Err(e) => Some(e),
            },
            None => None,
        };

        // Rung 3: quarantine. Drop partial output so nothing half-
        // written leaks into the concatenated run output.
        rep.output = Vec::new();
        outcomes.push(ChunkOutcome::Quarantined(QuarantineReason {
            fault: last_fault,
            fallback_error,
        }));
    }
    RunHealth {
        outcomes,
        fault_histogram: hist.into_sorted(),
        differential_checked,
        differential_mismatches,
    }
}

/// The lane config replays run under: chaos hooks flagged transient
/// are disarmed (the soft error does not recur); everything else is
/// verbatim, so deterministic faults replay deterministically.
fn retry_config(cfg: &LaneConfig) -> LaneConfig {
    let mut retry = cfg.clone();
    if retry.chaos_transient {
        retry.chaos_panic_at = None;
        retry.chaos_fault_at = None;
    }
    retry
}

/// One replay attempt on a fresh slot, panic-safe: an unwinding replay
/// degrades to a [`FaultKind::HostPanic`] report like any other chunk.
/// Returns the report plus the slot's final window prefix (for
/// `finals` bookkeeping when the replay succeeds).
fn replay_chunk(p: &RunParams, input: &[u8]) -> (LaneReport, Vec<u32>) {
    let mut slot = pool::LaneSlot::new(p.window_words);
    match catch_unwind(AssertUnwindSafe(|| pool::run_chunk(p, &mut slot, input))) {
        Ok(rep) => {
            let window = slot.snapshot();
            (rep, window)
        }
        Err(payload) => (
            pool::fault_lane_report(pool::panic_message(payload.as_ref())),
            Vec::new(),
        ),
    }
}

/// Replaces (or inserts) the final window snapshot for a device lane
/// slot — a recovered chunk's replay window supersedes whatever the
/// faulted attempt left (a panicked attempt left nothing at all).
fn upsert_final(finals: &mut Vec<WindowSnapshot>, slot: usize, window: Vec<u32>) {
    match finals.iter_mut().find(|(s, _)| *s == slot) {
        Some((_, w)) => *w = window,
        None => finals.push((slot, window)),
    }
}

/// Milliseconds of capped exponential backoff before replay `attempt`
/// (1-based): `min(cap, base << (attempt - 1))`. Pure so the schedule
/// is testable without sleeping; the shift amount saturates at 16 (and
/// the multiply saturates at `u64::MAX`), so absurd attempt counts
/// still land on the cap instead of overflowing.
fn backoff_ms(sup: &SupervisorOptions, attempt: u32) -> u64 {
    if sup.backoff_base_ms == 0 {
        return 0;
    }
    sup.backoff_base_ms
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
        .min(sup.backoff_cap_ms)
}

/// Capped exponential host backoff before replay `attempt` (1-based).
fn backoff(sup: &SupervisorOptions, attempt: u32) {
    let ms = backoff_ms(sup, attempt);
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_cap_below_base() {
        let bad = SupervisorOptions {
            backoff_base_ms: 4,
            backoff_cap_ms: 3,
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(crate::error::SimError::SupervisorConfig {
                backoff_base_ms: 4,
                backoff_cap_ms: 3,
            })
        ));
        assert!(SupervisorOptions::default().validate().is_ok());
        // Retry-less supervision is legitimate (straight to fallback).
        let no_retry = SupervisorOptions {
            max_retries: 0,
            ..SupervisorOptions::default()
        };
        assert!(no_retry.validate().is_ok());
        // base == 0 disables sleeping; the cap is then irrelevant.
        let no_sleep = SupervisorOptions {
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..SupervisorOptions::default()
        };
        assert!(no_sleep.validate().is_ok());
    }

    #[test]
    fn backoff_schedule_doubles_then_caps() {
        let sup = SupervisorOptions {
            backoff_base_ms: 1,
            backoff_cap_ms: 16,
            ..SupervisorOptions::default()
        };
        let schedule: Vec<u64> = (1..=7).map(|a| backoff_ms(&sup, a)).collect();
        assert_eq!(schedule, vec![1, 2, 4, 8, 16, 16, 16]);
    }

    #[test]
    fn backoff_shift_saturates_at_large_attempt_counts() {
        let sup = SupervisorOptions {
            backoff_base_ms: 3,
            backoff_cap_ms: u64::MAX,
            ..SupervisorOptions::default()
        };
        // The shift amount is clamped to 16, so even u32::MAX attempts
        // compute 3 << 16 rather than overflowing the shift.
        assert_eq!(backoff_ms(&sup, u32::MAX), 3 << 16);
        assert_eq!(backoff_ms(&sup, 17), backoff_ms(&sup, u32::MAX));
        // attempt 0 (out of contract but reachable) must not underflow.
        assert_eq!(backoff_ms(&sup, 0), 3);
        // A huge base saturates the multiply instead of wrapping.
        let huge = SupervisorOptions {
            backoff_base_ms: u64::MAX / 2,
            backoff_cap_ms: u64::MAX,
            ..SupervisorOptions::default()
        };
        assert_eq!(backoff_ms(&huge, 33), u64::MAX);
        // Zero base disables the sleep regardless of attempt.
        let off = SupervisorOptions {
            backoff_base_ms: 0,
            ..SupervisorOptions::default()
        };
        assert_eq!(backoff_ms(&off, 5), 0);
    }
}
