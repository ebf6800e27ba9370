//! The lane pool: the one way a local-addressing run executes its
//! chunks (DESIGN.md §2.6.1).
//!
//! * [`run`] starts `w` workers that pull chunk indices from a shared
//!   atomic counter — dynamic scheduling with no host-side wave
//!   barrier, so a fast lane immediately takes the next chunk. The
//!   calling thread is one of the workers: it claims chunk 0 before
//!   any helper thread exists, so a run of `w` workers spawns `w - 1`
//!   threads. A sequential run is the one-worker pool: the caller runs
//!   every chunk and nothing is spawned;
//! * each worker owns a [`LaneSlot`] — a private window-sized
//!   [`LocalMemory`] and a reusable [`OutputSink`] — reused across all
//!   the chunks it claims;
//! * window reset between chunks clears only the dirty prefix the
//!   previous chunk actually touched ([`LocalMemory::dirty_words`])
//!   instead of rewriting the full window, and skips reloading the
//!   program image when the previous lane finished with the
//!   pristine-code flag intact (the code prefix is then provably still
//!   the verbatim image);
//! * every chunk body runs under `catch_unwind`, so a panicking lane
//!   degrades to [`LaneStatus::Fault`] in its own report while sibling
//!   chunks survive, with one worker as with many;
//! * reports land in an index-addressed results vector, so the merged
//!   output is deterministic regardless of which worker ran which chunk;
//! * the final occupant of each device lane slot hands back only its
//!   window's dirty prefix ([`LaneSlot::snapshot`]): every word above
//!   it is zero, and the engine zeroes that range on copy-back only
//!   where the device memory held anything.
//!
//! Host scheduling is decoupled from modeled time: the engine recomputes
//! `wall_cycles` from the per-lane reports with the wave formula
//! (DESIGN.md §2.6.2), so the [`crate::engine::UdpRunReport`] is
//! bit-identical whatever the worker count and interleaving.

use crate::engine::Staging;
use crate::error::FaultKind;
use crate::lane::{Lane, LaneConfig, LaneReport, LaneStatus};
use crate::memory::LocalMemory;
use crate::stream::{BitStream, OutputSink};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use udp_asm::{DecodedProgram, ProgramImage};

/// Everything shared by every chunk of one data-parallel run.
pub(crate) struct RunParams<'a> {
    /// The program image loaded at origin 0 of each private window.
    pub image: &'a ProgramImage,
    /// Predecoded view shared by all lanes.
    pub decoded: &'a Arc<DecodedProgram>,
    /// Per-lane staging (segments + register presets).
    pub staging: &'a Staging,
    /// Lane configuration (cycle cap, chaos hook).
    pub cfg: &'a LaneConfig,
    /// Window size in words (`banks_per_lane * BANK_WORDS`).
    pub window_words: usize,
    /// Concurrent-lane capacity of the device (`NUM_BANKS /
    /// banks_per_lane`); chunk `i` occupies device lane slot
    /// `i % lanes_cap`.
    pub lanes_cap: usize,
    /// Tier-2 specialization of the program, shared by every chunk when
    /// the run selected [`crate::engine::ExecBackend::Compiled`] and
    /// the program was specializable; `None` runs the interpreter.
    pub compiled: Option<&'a crate::compiled::CompiledProgram>,
}

/// A final window snapshot: `(device lane slot, dirty window prefix)`
/// for the last chunk that occupied that slot — every window word past
/// the prefix is zero. The engine copies these into the shared device
/// memory so `read_lane_bytes` sees the same post-run state as running
/// every lane on the device memory.
pub(crate) type WindowSnapshot = (usize, Vec<u32>);

/// One worker's private execution state, reused chunk after chunk.
/// (Also built fresh by the supervisor for each replay attempt, which
/// is what makes replay-from-staging deterministic: a retry sees
/// exactly the state a first attempt would.)
pub(crate) struct LaneSlot {
    pub(crate) mem: LocalMemory,
    out: OutputSink,
    /// True when `mem[0, image words)` is known to hold the verbatim
    /// program image: a previous reset loaded it and the lane finished
    /// with the pristine-code flag still set ([`Lane::code_is_clean`]).
    /// Lets the next reset skip the image reload entirely.
    code_pristine: bool,
}

impl LaneSlot {
    pub(crate) fn new(window_words: usize) -> Self {
        let mut mem = LocalMemory::with_words(window_words);
        // Private windows only exist under local addressing, whose
        // conflict model never reads per-bank counts.
        mem.set_bank_tracking(false);
        LaneSlot {
            mem,
            out: OutputSink::new(),
            code_pristine: false,
        }
    }

    /// The window's dirty prefix: every word past it is still zero.
    pub(crate) fn snapshot(&self) -> Vec<u32> {
        self.mem.words()[..self.mem.dirty_words()].to_vec()
    }
}

/// Restores a slot's memory to "freshly zeroed + image + staging":
/// clears the dirty tail above the code span, reloads the code prefix
/// and staging segments over the rest, and zeroes the counters.
fn reset_window(p: &RunParams, mem: &mut LocalMemory, code_pristine: bool) {
    let code_words = p.image.words.len();
    let dirty = mem.dirty_words();
    if dirty > code_words {
        mem.clear_words(code_words as u32, dirty - code_words);
    }
    if code_pristine {
        // The code prefix is already the verbatim image (the previous
        // lane kept the pristine-code flag), so only the cleared tail
        // needs accounting — no reload.
        mem.assume_zero_above(code_words);
    } else {
        // Words at or above the old dirty mark were never written; the
        // range below `code_words` is fully overwritten by the reload.
        mem.assume_all_zero();
        mem.load_words(0, &p.image.words);
    }
    for (off, bytes) in &p.staging.segments {
        mem.load_bytes(*off, bytes);
    }
    mem.reset_counters();
}

/// Runs one chunk on a slot. The lane executes at origin 0 of the
/// private window, which under local addressing is indistinguishable
/// from running at its slot origin in the shared device memory: same
/// counted reference sequence, same cycles, same output.
pub(crate) fn run_chunk(p: &RunParams, slot: &mut LaneSlot, input: &[u8]) -> LaneReport {
    reset_window(p, &mut slot.mem, slot.code_pristine);
    slot.out.reserve(input.len());
    let mut lane = Lane::staged(p.image, p.decoded, 0, p.staging);
    let mut stream = BitStream::new(input);
    let rep = match p.compiled {
        Some(cp) => crate::compiled::run_compiled(
            cp,
            &mut lane,
            &mut slot.mem,
            &mut stream,
            &mut slot.out,
            p.cfg,
        ),
        None => lane.run(&mut slot.mem, &mut stream, &mut slot.out, p.cfg),
    };
    // If the lane never wrote its code span, the image is still in
    // place verbatim and the next reset can skip reloading it. (A
    // panicking chunk never reaches this point; its slot is rebuilt.)
    slot.code_pristine = lane.code_is_clean();
    rep
    // `mem_refs` in the report is the slot memory's total counted
    // references, which — counters having been reset above — is exactly
    // the per-lane delta the shared-memory path computes.
}

/// True when chunk `idx` is the last occupant of its device lane slot,
/// i.e. its final window state is the one running every chunk on the
/// device memory would leave there.
pub(crate) fn is_final_occupant(idx: usize, lanes_cap: usize, total: usize) -> bool {
    idx + lanes_cap >= total
}

/// The host's core count, read once per process: the query reads
/// cgroup files, which costs as much as a small run.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs every chunk on `w` workers: `min(host threads, lanes_cap,
/// chunks)` with `parallel` and more than one chunk, otherwise one.
/// The calling thread is a worker and claims chunk 0 before spawning
/// the `w - 1` helpers (none for one worker); all of them race down the
/// chunk list via a shared atomic counter. Returns the reports in chunk
/// order plus the final window snapshots.
///
/// A chunk whose body panics yields a [`LaneStatus::Fault`] report and a
/// rebuilt slot, on the calling thread as on a helper; in the
/// (hypothetical) case of a worker dying outside the per-chunk
/// `catch_unwind`, its claimed-but-unreported chunks come back as
/// fault reports too — degradation never becomes a host abort.
pub(crate) fn run(
    p: &RunParams,
    inputs: &[&[u8]],
    parallel: bool,
) -> (Vec<LaneReport>, Vec<WindowSnapshot>) {
    let total = inputs.len();
    let workers = if parallel && total > 1 {
        host_threads().min(p.lanes_cap).min(total)
    } else {
        1
    };
    // Chunk 0 is the caller's; helpers claim from 1 on.
    let next = AtomicUsize::new(1);
    let mut results: Vec<Option<LaneReport>> = (0..total).map(|_| None).collect();
    let mut finals: Vec<WindowSnapshot> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    worker_loop(p, inputs, next, next.fetch_add(1, Ordering::Relaxed))
                })
            })
            .collect();
        let own = catch_unwind(AssertUnwindSafe(|| worker_loop(p, inputs, &next, 0)));
        let joined = handles.into_iter().map(|h| h.join());
        for (reports, windows) in std::iter::once(own).chain(joined).flatten() {
            for (idx, rep) in reports {
                results[idx] = Some(rep);
            }
            finals.extend(windows);
        }
    });
    let reports = results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| fault_lane_report("worker terminated before reporting".to_string()))
        })
        .collect();
    (reports, finals)
}

/// One worker: run chunk `first`, then claim chunks until the counter
/// runs past the end, running each under `catch_unwind` so a poisoned
/// chunk cannot take down the pool.
fn worker_loop(
    p: &RunParams,
    inputs: &[&[u8]],
    next: &AtomicUsize,
    first: usize,
) -> (Vec<(usize, LaneReport)>, Vec<WindowSnapshot>) {
    let total = inputs.len();
    let mut slot = LaneSlot::new(p.window_words);
    let mut reports = Vec::new();
    let mut finals = Vec::new();
    let mut idx = first;
    while idx < total {
        let rep = match catch_unwind(AssertUnwindSafe(|| run_chunk(p, &mut slot, inputs[idx]))) {
            Ok(rep) => {
                if is_final_occupant(idx, p.lanes_cap, total) {
                    finals.push((idx % p.lanes_cap, slot.snapshot()));
                }
                rep
            }
            Err(payload) => {
                // The slot's memory and sink are in an unknown state
                // mid-panic; rebuild rather than reason about partial
                // writes. (Cold path: chaos injection and bugs only.)
                slot = LaneSlot::new(p.window_words);
                fault_lane_report(panic_message(payload.as_ref()))
            }
        };
        reports.push((idx, rep));
        idx = next.fetch_add(1, Ordering::Relaxed);
    }
    (reports, finals)
}

/// Extracts the human-readable message from a panic payload (the two
/// shapes `panic!` produces: a `&'static str` or a formatted `String`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The report a chunk gets when its execution panicked mid-run: a
/// [`LaneStatus::Fault`] carrying [`FaultKind::HostPanic`] with the
/// panic message, zero counters. The lane's modeled state (cycles,
/// output) died with the panic, so nothing else can honestly be
/// reported.
pub(crate) fn fault_lane_report(msg: String) -> LaneReport {
    LaneReport {
        status: LaneStatus::Fault(FaultKind::HostPanic(msg)),
        cycles: 0,
        dispatches: 0,
        fallback_misses: 0,
        actions: 0,
        mem_refs: 0,
        bytes_consumed: 0,
        output: Vec::new(),
        reports: Vec::new(),
        accepted: false,
        regs: [0; 16],
    }
}
