//! Drives fault cases through the real stack and classifies outcomes.
//!
//! Each case runs under `catch_unwind`; the stack's *designed*
//! responses (typed errors, `LaneStatus::Fault`, rejected rows) are
//! [`Outcome::Degraded`], an untouched happy path is
//! [`Outcome::Clean`], and anything that unwinds out of the driver is
//! [`Outcome::Panicked`] — an invariant violation the `fault_fuzz`
//! gate fails on. Hangs are excluded structurally: every driver caps
//! `max_cycles`, so a case that does not return is a bug in the cycle
//! budget itself.

use crate::mutate;
use crate::plan::{FaultCase, FaultMode, FaultPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use udp_asm::{LayoutOptions, ProgramImage};
use udp_codecs::fallback::CsvFramingFallback;
use udp_codecs::json::JsonTokenizer;
use udp_codecs::snappy::{snappy_compress, snappy_decompress};
use udp_etl::run_cpu_etl_recovering;
use udp_sim::lane::{Lane, LaneConfig, LaneStatus};
use udp_sim::{ChunkOutcome, FaultKind, ReferenceFallback, SupervisorOptions, Udp, UdpRunOptions};
use udp_workloads::{lineitem_csv, ndjson_events};

/// Cycle budget for every harness run. Small enough that a million
/// cases finish quickly, large enough that clean runs over the
/// harness's small inputs never hit it.
const FUZZ_MAX_CYCLES: u64 = 200_000;

/// How one case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The corrupted artifact still processed cleanly end to end.
    Clean,
    /// The stack absorbed the damage through a designed path: a typed
    /// error, a `LaneStatus` fault/limit, or rejected rows. This is
    /// the response the invariant demands.
    Degraded(String),
    /// A panic unwound out of the stack — an invariant violation.
    Panicked(String),
}

/// Per-chunk recovery counters a supervised case contributes (always
/// zero for unsupervised modes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Chunks that came back via deterministic replay.
    pub recovered: u64,
    /// Chunks served by the software reference fallback.
    pub fallback: u64,
    /// Chunks the supervisor had to quarantine.
    pub quarantined: u64,
}

/// One executed case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case that ran (replay coordinate).
    pub case: FaultCase,
    /// How it ended.
    pub outcome: Outcome,
    /// Whether `udp-verify` flagged the corrupted image with at least
    /// one `Error` finding before the dynamic run. Only image-mutation
    /// modes consult the oracle; always `false` elsewhere.
    pub static_reject: bool,
    /// Recovery-ladder counters (supervised chaos modes only).
    pub recovery: Recovery,
    /// Host wall time for the case, microseconds (hang telemetry).
    pub micros: u128,
}

/// Per-mode outcome counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModeStats {
    /// Cases that processed cleanly despite the damage.
    pub clean: u64,
    /// Cases absorbed through a designed degradation path.
    pub degraded: u64,
    /// Cases that panicked (invariant violations).
    pub panicked: u64,
    /// Cases the static verifier rejected before execution (the
    /// usefulness half of `udp-verify`'s tested invariants).
    pub static_reject: u64,
    /// Chunks recovered by replay across the mode's cases.
    pub recovered: u64,
    /// Chunks served by the reference fallback across the mode's cases.
    pub fallback: u64,
    /// Chunks quarantined across the mode's cases.
    pub quarantined: u64,
}

/// Aggregate result of a fuzzing run, printable as the
/// machine-readable `key=value` summary the CI gate parses.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Plan seed the run derives from.
    pub seed: u64,
    /// Cases executed.
    pub iters: u64,
    /// Counters per mode, indexed like [`FaultMode::ALL`].
    pub stats: Vec<(FaultMode, ModeStats)>,
    /// Reports for every panicked case (replay coordinates).
    pub violations: Vec<CaseReport>,
    /// Slowest single case, microseconds.
    pub max_case_micros: u128,
}

impl FuzzSummary {
    /// Total invariant violations across modes.
    pub fn panics(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.panicked).sum()
    }

    /// Total cases the static verifier rejected before execution.
    pub fn static_rejects(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.static_reject).sum()
    }

    /// Recovered-or-fallback percentage over the *transient* injection
    /// mode's faulted chunks, `None` when no transient chunk faulted
    /// (e.g. the mode never ran). This is the CI robustness gate: a
    /// transient fault must resolve on the first two ladder rungs, so
    /// a healthy run reports 100.
    pub fn transient_recovery_rate(&self) -> Option<f64> {
        let s = self
            .stats
            .iter()
            .find(|(m, _)| *m == FaultMode::ChaosTransient)
            .map(|(_, s)| *s)?;
        let faulted = s.recovered + s.fallback + s.quarantined;
        if faulted == 0 {
            return None;
        }
        Some((s.recovered + s.fallback) as f64 / faulted as f64 * 100.0)
    }
}

impl std::fmt::Display for FuzzSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault_fuzz seed={:#x} iters={} panics={} max_case_us={}",
            self.seed,
            self.iters,
            self.panics(),
            self.max_case_micros
        )?;
        for (mode, s) in &self.stats {
            writeln!(
                f,
                "mode={} clean={} degraded={} panicked={} static_reject={} \
                 recovered={} fallback={} quarantined={}",
                mode.name(),
                s.clean,
                s.degraded,
                s.panicked,
                s.static_reject,
                s.recovered,
                s.fallback,
                s.quarantined
            )?;
        }
        for v in &self.violations {
            writeln!(
                f,
                "violation index={} mode={} case_seed={:#x}",
                v.case.index,
                v.case.mode.name(),
                v.case.seed
            )?;
        }
        Ok(())
    }
}

/// The CSV field/record scanner compiled by `udp-compilers` — the
/// harness's stand-in for "a real deployed kernel". Assembled once;
/// cases clone and damage the copy.
fn base_image() -> &'static ProgramImage {
    static IMG: OnceLock<ProgramImage> = OnceLock::new();
    IMG.get_or_init(|| {
        let pb = udp_compilers::csv::csv_to_udp();
        let mut banks = 1;
        loop {
            match pb.assemble(&LayoutOptions::with_banks(banks)) {
                Ok(img) => return img,
                Err(_) if banks < 64 => banks *= 2,
                Err(e) => panic!("csv kernel must assemble: {e:?}"),
            }
        }
    })
}

fn fuzz_lane_config() -> LaneConfig {
    LaneConfig {
        max_cycles: FUZZ_MAX_CYCLES,
        ..LaneConfig::default()
    }
}

/// Runs a (possibly damaged) image over `input` on a single lane and
/// the full device (sequential and threaded waves), classifying the
/// worst lane status seen. Panics inside propagate to the case's
/// `catch_unwind`.
fn drive_image(image: &ProgramImage, input: &[u8]) -> Outcome {
    let cfg = fuzz_lane_config();
    let rep = Lane::run_program(image, input, &cfg);
    debug_assert!(rep.status != LaneStatus::Running, "lane returned mid-run");
    let mut worst = classify_status(&rep.status);

    let staging = udp_sim::engine::Staging::default();
    for parallel in [false, true] {
        let opts = UdpRunOptions {
            banks_per_lane: banks_for(image),
            lane: cfg.clone(),
            parallel,
            ..UdpRunOptions::default()
        };
        let mut udp = Udp::new();
        match udp.try_run_data_parallel(image, &[input, input], &staging, &opts) {
            Ok(rep) => {
                for lane in &rep.lanes {
                    debug_assert!(lane.status != LaneStatus::Running);
                    worst = worst.max_with(classify_status(&lane.status));
                }
            }
            Err(e) => worst = worst.max_with(Outcome::Degraded(format!("sim error: {e}"))),
        }
    }
    worst
}

fn banks_for(image: &ProgramImage) -> usize {
    image
        .stats
        .span_words
        .div_ceil(udp_isa::mem::BANK_WORDS)
        .clamp(1, udp_isa::mem::NUM_BANKS)
}

fn classify_status(status: &LaneStatus) -> Outcome {
    match status {
        LaneStatus::InputExhausted | LaneStatus::Halted(_) => Outcome::Clean,
        LaneStatus::Running => Outcome::Panicked("lane still Running after run".into()),
        other => Outcome::Degraded(format!("lane status: {other:?}")),
    }
}

impl Outcome {
    /// Severity merge: `Panicked` > `Degraded` > `Clean`.
    fn max_with(self, other: Outcome) -> Outcome {
        match (&self, &other) {
            (Outcome::Panicked(_), _) => self,
            (_, Outcome::Panicked(_)) => other,
            (Outcome::Degraded(_), _) => self,
            (_, Outcome::Degraded(_)) => other,
            _ => self,
        }
    }
}

/// Drives corrupted compressed bytes through the codec and the
/// recovering ETL pipeline.
fn drive_compressed(bytes: &[u8]) -> Outcome {
    let codec = match snappy_decompress(bytes) {
        Ok(_) => Outcome::Clean,
        Err(e) => Outcome::Degraded(format!("snappy: {e}")),
    };
    let etl = match run_cpu_etl_recovering(bytes) {
        Ok((_, report)) if report.rows_rejected == 0 => Outcome::Clean,
        Ok((_, report)) => Outcome::Degraded(format!("rows_rejected={}", report.rows_rejected)),
        Err(e) => Outcome::Degraded(format!("etl: {e}")),
    };
    codec.max_with(etl)
}

/// The reference fallback matching [`base_image`]'s CSV kernel: comma
/// delimiter, double quote, the compilers' field/record separators.
fn csv_reference() -> Arc<dyn ReferenceFallback> {
    Arc::new(CsvFramingFallback {
        delimiter: b',',
        quote: b'"',
        field_sep: udp_compilers::FIELD_SEP,
        record_sep: udp_compilers::RECORD_SEP,
    })
}

/// Drives a supervised run with a chaos hook injected into one chunk.
///
/// `transient` arms [`LaneConfig::chaos_transient`], so replays run
/// with the hook disarmed and the fault must resolve as `Recovered`
/// (or `Fallback` — never quarantine); persistent chaos re-fires on
/// every replay and must land on the reference fallback. Either way
/// the faulted chunk's final output must be byte-identical to the
/// software reference and the sibling chunks must come through clean.
fn drive_supervised(case: &FaultCase, rng: &mut SmallRng, transient: bool) -> (Outcome, Recovery) {
    let img = base_image();
    let long = lineitem_csv(1024, case.seed);
    let inputs: [&[u8]; 3] = [b"a|b\n", &long, b"c|d\n"];
    // The chaos point sits above the short siblings' total cycle count
    // and far below the long chunk's, so exactly one chunk faults.
    let at = Some(200 + rng.gen_range(0..200u64));
    let inject_panic = rng.gen::<bool>();
    let reference = csv_reference();
    let opts = UdpRunOptions {
        banks_per_lane: banks_for(img),
        lane: LaneConfig {
            max_cycles: FUZZ_MAX_CYCLES,
            chaos_panic_at: if inject_panic { at } else { None },
            chaos_fault_at: if inject_panic { None } else { at },
            chaos_transient: transient,
            ..LaneConfig::default()
        },
        parallel: rng.gen::<bool>(),
        supervise: Some(SupervisorOptions {
            backoff_base_ms: 0,
            fallback: Some(Arc::clone(&reference)),
            differential: true,
            ..SupervisorOptions::default()
        }),
        ..UdpRunOptions::default()
    };
    let staging = udp_sim::engine::Staging::default();
    let rep = match Udp::new().try_run_data_parallel(img, &inputs, &staging, &opts) {
        Ok(rep) => rep,
        Err(e) => {
            return (
                Outcome::Panicked(format!("sim error: {e}")),
                Recovery::default(),
            )
        }
    };
    let recovery = Recovery {
        recovered: rep.health.recovered(),
        fallback: rep.health.fallback(),
        quarantined: rep.health.quarantined(),
    };
    let faulted = recovery.recovered + recovery.fallback + recovery.quarantined;
    if faulted == 0 {
        return (
            Outcome::Panicked("chaos injection never surfaced as a fault".into()),
            recovery,
        );
    }
    if recovery.quarantined > 0 {
        return (
            Outcome::Panicked(format!(
                "chaos fault escalated to quarantine: {:?}",
                rep.health.outcomes
            )),
            recovery,
        );
    }
    if transient && recovery.recovered == 0 {
        return (
            Outcome::Panicked("transient fault did not recover by replay".into()),
            recovery,
        );
    }
    if !transient && recovery.fallback == 0 {
        return (
            Outcome::Panicked("persistent fault did not land on the fallback".into()),
            recovery,
        );
    }
    if rep.health.differential_mismatches > 0 {
        return (
            Outcome::Panicked(format!(
                "{} clean chunk(s) diverged from the software reference",
                rep.health.differential_mismatches
            )),
            recovery,
        );
    }
    // Byte-equality against the reference for every chunk the ladder
    // touched (and the clean siblings, which differential already
    // cross-checked — re-assert the faulted chunk explicitly).
    for (i, outcome) in rep.health.outcomes.iter().enumerate() {
        if matches!(outcome, ChunkOutcome::Clean) {
            continue;
        }
        match reference.reference_output(inputs[i]) {
            Ok(expect) if expect == rep.lanes[i].output => {}
            Ok(_) => {
                return (
                    Outcome::Panicked(format!("chunk {i} output diverges from the reference")),
                    recovery,
                )
            }
            Err(e) => {
                return (
                    Outcome::Panicked(format!("reference refused clean input: {e}")),
                    recovery,
                )
            }
        }
    }
    (
        Outcome::Degraded(format!(
            "recovered={} fallback={}",
            recovery.recovered, recovery.fallback
        )),
        recovery,
    )
}

/// Static-verification oracle: does `udp-verify` reject this image
/// with at least one `Error` finding? Warnings don't count — a clean
/// program carries warnings (dead states) under mutation too rarely to
/// be a rejection signal, and the run invariant only concerns errors.
fn static_oracle(image: &ProgramImage) -> bool {
    udp_verify::verify_image(image, &udp_verify::VerifyOptions::default()).errors() > 0
}

fn run_case_inner(case: &FaultCase) -> (Outcome, bool, Recovery) {
    let mut rng = SmallRng::seed_from_u64(case.seed);
    let mut static_reject = false;
    let mut recovery = Recovery::default();
    let outcome = match case.mode {
        FaultMode::ImageBitFlip => {
            let mut img = base_image().clone();
            let flips = 1 + rng.gen_range(0..16usize);
            mutate::flip_word_bits(&mut img.words, flips, &mut rng);
            static_reject = static_oracle(&img);
            drive_image(&img, b"alpha|beta|1234\ngamma|delta|5678\n")
        }
        FaultMode::ImageTruncate => {
            let mut img = base_image().clone();
            mutate::truncate_image(&mut img, &mut rng);
            static_reject = static_oracle(&img);
            drive_image(&img, b"alpha|beta|1234\ngamma|delta|5678\n")
        }
        FaultMode::StreamTruncate => {
            let mut bytes = snappy_compress(&lineitem_csv(2048, case.seed));
            mutate::truncate_vec(&mut bytes, &mut rng);
            drive_compressed(&bytes)
        }
        FaultMode::StreamByteFlip => {
            let mut bytes = snappy_compress(&lineitem_csv(2048, case.seed));
            let flips = 1 + rng.gen_range(0..8usize);
            mutate::flip_byte_bits(&mut bytes, flips, &mut rng);
            drive_compressed(&bytes)
        }
        FaultMode::SnappyFraming => {
            let len = 1 + rng.gen_range(0..512usize);
            let garbage = mutate::garbage_bytes(len, &mut rng);
            drive_compressed(&garbage)
        }
        FaultMode::CsvMalformed => {
            let mut raw = lineitem_csv(2048, case.seed);
            let hits = 1 + rng.gen_range(0..4usize);
            for _ in 0..hits {
                mutate::malform_csv(&mut raw, b'|', &mut rng);
            }
            // The UDP CSV kernel must still frame the dirty feed...
            let kernel = drive_image(base_image(), &raw);
            // ...and the recovering ETL path must load what survives.
            kernel.max_with(drive_compressed(&snappy_compress(&raw)))
        }
        FaultMode::JsonMalformed => {
            let mut raw = ndjson_events(2048, case.seed);
            mutate::malform_json(&mut raw, &mut rng);
            match JsonTokenizer::new().tokenize(&raw) {
                Ok(_) => Outcome::Clean,
                Err(e) => Outcome::Degraded(format!("json: {e:?}")),
            }
        }
        FaultMode::ConfigTinyCycles => {
            let img = base_image();
            let opts = UdpRunOptions {
                banks_per_lane: banks_for(img),
                lane: LaneConfig {
                    max_cycles: rng.gen_range(0..64u64),
                    ..LaneConfig::default()
                },
                ..UdpRunOptions::default()
            };
            let input = lineitem_csv(1024, case.seed);
            let staging = udp_sim::engine::Staging::default();
            match Udp::new().try_run_data_parallel(img, &[&input], &staging, &opts) {
                Ok(rep) => rep
                    .lanes
                    .iter()
                    .map(|l| classify_status(&l.status))
                    .fold(Outcome::Clean, Outcome::max_with),
                Err(e) => Outcome::Degraded(format!("sim error: {e}")),
            }
        }
        FaultMode::ConfigBadBanks => {
            let img = base_image();
            let banks = if rng.gen::<bool>() {
                0
            } else {
                udp_isa::mem::NUM_BANKS + 1 + rng.gen_range(0..64usize)
            };
            let opts = UdpRunOptions {
                banks_per_lane: banks,
                lane: fuzz_lane_config(),
                ..UdpRunOptions::default()
            };
            let staging = udp_sim::engine::Staging::default();
            match Udp::new().try_run_data_parallel(img, &[b"abc"], &staging, &opts) {
                Ok(_) => Outcome::Panicked(format!("banks_per_lane={banks} was accepted")),
                Err(e) => Outcome::Degraded(format!("sim error: {e}")),
            }
        }
        FaultMode::LanePanic => {
            let img = base_image();
            let long: Vec<u8> = lineitem_csv(1024, case.seed);
            let inputs: [&[u8]; 3] = [b"a|b\n", &long, b"c|d\n"];
            let opts = UdpRunOptions {
                banks_per_lane: banks_for(img),
                // The chaos point sits above the short siblings' total
                // cycle count (a few dozen cycles for 4 bytes) and far
                // below the long lane's (≥1024 dispatches), so exactly
                // the long lane panics and the siblings must survive.
                lane: LaneConfig {
                    max_cycles: FUZZ_MAX_CYCLES,
                    chaos_panic_at: Some(200 + rng.gen_range(0..200u64)),
                    ..LaneConfig::default()
                },
                parallel: true,
                ..UdpRunOptions::default()
            };
            let staging = udp_sim::engine::Staging::default();
            match Udp::new().try_run_data_parallel(img, &inputs, &staging, &opts) {
                Ok(rep) => {
                    let faulted = rep
                        .lanes
                        .iter()
                        .filter(|l| matches!(&l.status, LaneStatus::Fault(FaultKind::HostPanic(_))))
                        .count();
                    let survivors = rep
                        .lanes
                        .iter()
                        .filter(|l| !matches!(l.status, LaneStatus::Fault(_)))
                        .count();
                    if faulted == 0 {
                        Outcome::Panicked("chaos panic did not surface as a Fault lane".into())
                    } else if survivors == 0 {
                        Outcome::Panicked("no sibling lane survived the chaos panic".into())
                    } else {
                        Outcome::Degraded(format!(
                            "{faulted} lane(s) faulted, {survivors} survived"
                        ))
                    }
                }
                Err(e) => Outcome::Degraded(format!("sim error: {e}")),
            }
        }
        FaultMode::ChaosTransient => {
            let (outcome, rec) = drive_supervised(case, &mut rng, true);
            recovery = rec;
            outcome
        }
        FaultMode::ChaosPersistent => {
            let (outcome, rec) = drive_supervised(case, &mut rng, false);
            recovery = rec;
            outcome
        }
    };
    (outcome, static_reject, recovery)
}

/// Executes one case under `catch_unwind`, classifying any escaped
/// panic as [`Outcome::Panicked`]. Deterministic given `case.seed`.
pub fn run_case(case: &FaultCase) -> CaseReport {
    let start = Instant::now();
    let (outcome, static_reject, recovery) =
        match panic::catch_unwind(AssertUnwindSafe(|| run_case_inner(case))) {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                (Outcome::Panicked(msg), false, Recovery::default())
            }
        };
    CaseReport {
        case: *case,
        outcome,
        static_reject,
        recovery,
        micros: start.elapsed().as_micros(),
    }
}

/// Runs `iters` cases of the plan for `seed`, silencing the default
/// panic hook for the duration (deliberate chaos panics and caught
/// violations would otherwise spray backtraces), and aggregates the
/// outcomes into a [`FuzzSummary`].
pub fn run_plan(seed: u64, iters: u64) -> FuzzSummary {
    let plan = FaultPlan::new(seed);
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut stats: Vec<(FaultMode, ModeStats)> = FaultMode::ALL
        .iter()
        .map(|&m| (m, ModeStats::default()))
        .collect();
    let mut violations = Vec::new();
    let mut max_case_micros = 0u128;
    for case in plan.cases(iters) {
        let report = run_case(&case);
        max_case_micros = max_case_micros.max(report.micros);
        if let Some((_, s)) = stats.iter_mut().find(|(m, _)| *m == case.mode) {
            match &report.outcome {
                Outcome::Clean => s.clean += 1,
                Outcome::Degraded(_) => s.degraded += 1,
                Outcome::Panicked(_) => s.panicked += 1,
            }
            if report.static_reject {
                s.static_reject += 1;
            }
            s.recovered += report.recovery.recovered;
            s.fallback += report.recovery.fallback;
            s.quarantined += report.recovery.quarantined;
        }
        if matches!(report.outcome, Outcome::Panicked(_)) {
            violations.push(report);
        }
    }
    panic::set_hook(prev_hook);
    FuzzSummary {
        seed,
        iters,
        stats,
        violations,
        max_case_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_survives_a_small_plan() {
        // 36 cases = 3 full cycles through all 12 modes.
        let summary = run_plan(0xDEC0DE, 36);
        assert_eq!(summary.panics(), 0, "violations: {:?}", summary.violations);
        assert_eq!(summary.iters, 36);
        for (_, s) in &summary.stats {
            assert_eq!(s.clean + s.degraded + s.panicked, 3);
        }
    }

    #[test]
    fn chaos_modes_recover_every_injected_fault() {
        let summary = run_plan(0xDEC0DE, 48); // 4 cases per mode
        assert_eq!(summary.panics(), 0, "violations: {:?}", summary.violations);
        for (mode, s) in &summary.stats {
            match mode {
                FaultMode::ChaosTransient => {
                    assert!(s.recovered > 0, "transient chaos must replay-recover");
                    assert_eq!(s.quarantined, 0);
                }
                FaultMode::ChaosPersistent => {
                    assert!(s.fallback > 0, "persistent chaos must hit the fallback");
                    assert_eq!(s.quarantined, 0);
                }
                _ => {
                    assert_eq!(s.recovered + s.fallback + s.quarantined, 0);
                }
            }
        }
        let rate = summary.transient_recovery_rate();
        assert_eq!(rate, Some(100.0), "rate: {rate:?}");
    }

    #[test]
    fn summaries_are_deterministic() {
        let a = run_plan(7, 20);
        let b = run_plan(7, 20);
        for ((ma, sa), (mb, sb)) in a.stats.iter().zip(&b.stats) {
            assert_eq!(ma, mb);
            assert_eq!(sa.clean, sb.clean);
            assert_eq!(sa.degraded, sb.degraded);
            assert_eq!(sa.panicked, sb.panicked);
        }
    }

    #[test]
    fn verifier_statically_rejects_image_mutations() {
        // The usefulness invariant: at the CI seed, a nonzero fraction
        // of corrupted images is rejected by udp-verify before any lane
        // executes — and the oracle only ever fires on image modes.
        let summary = run_plan(0xDEC0DE, 48);
        assert!(
            summary.static_rejects() > 0,
            "expected static rejects at seed 0xDEC0DE:\n{summary}"
        );
        for (mode, s) in &summary.stats {
            let image_mode = matches!(mode, FaultMode::ImageBitFlip | FaultMode::ImageTruncate);
            if !image_mode {
                assert_eq!(s.static_reject, 0, "oracle fired on {}", mode.name());
            }
        }
    }

    #[test]
    fn summary_display_is_machine_readable() {
        let s = run_plan(3, 10).to_string();
        assert!(s.starts_with("fault_fuzz seed=0x3 iters=10 panics="));
        assert!(s.contains("mode=image-bit-flip "));
        assert!(s.contains("mode=lane-panic "));
    }

    #[test]
    fn run_case_catches_escaped_panics() {
        // Device runs degrade chaos panics to `HostPanic` reports, but
        // a bare `Lane::run_program` has no recovery: run one directly
        // to prove run_case converts an unwound panic into
        // Outcome::Panicked.
        let case = crate::FaultPlan::new(1).case(0);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = match std::panic::catch_unwind(|| {
            let cfg = LaneConfig {
                chaos_panic_at: Some(5),
                ..fuzz_lane_config()
            };
            Lane::run_program(base_image(), &lineitem_csv(512, 1), &cfg);
        }) {
            Ok(()) => Outcome::Clean,
            Err(_) => Outcome::Panicked("escaped".into()),
        };
        std::panic::set_hook(prev);
        assert!(matches!(outcome, Outcome::Panicked(_)));
        // And the harness path itself stays well-typed for the case.
        let rep = run_case(&case);
        assert!(!matches!(rep.outcome, Outcome::Panicked(_)));
    }
}
