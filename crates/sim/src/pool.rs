//! The lane pool: the one way a local-addressing run executes its
//! chunks (DESIGN.md §2.6.1).
//!
//! * [`run`] runs the chunks on workers that pull chunk indices from a
//!   shared atomic counter — dynamic scheduling with no host-side wave
//!   barrier, so a fast lane immediately takes the next chunk. The
//!   calling thread is always a worker. A sequential run is the
//!   one-worker pool: the caller runs every chunk and nothing is
//!   spawned. A pooled run starts helper threads only when the call's
//!   predicted host time — its bytes times the kernel's measured time
//!   per byte ([`HostRate`]) — saves more than the helpers cost
//!   ([`fan_out`]);
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;
use udp_asm::{DecodedProgram, ProgramImage};
use udp_isa::mem::BANK_WORDS;

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

/// How many helper lifetimes [`helper_ns`] times.
const HELPER_SAMPLES: usize = 7;

/// What one helper thread costs the run that starts it, in host
/// nanoseconds: the median of [`HELPER_SAMPLES`] timed lifetimes, each
/// a scoped spawn, the helper building a one-bank [`LaneSlot`], and the
/// join. Measured once per process, by the first pooled run that has a
/// rate to weigh it against.
fn helper_ns() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut lives: Vec<f64> = (0..HELPER_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                std::thread::scope(|s| {
                    // A panic here leaves a long sample; the median
                    // shrugs it off.
                    let _ = s
                        .spawn(|| std::hint::black_box(LaneSlot::new(BANK_WORDS)))
                        .join();
                });
                start.elapsed().as_nanos() as f64
            })
            .collect();
        lives.sort_by(f64::total_cmp);
        lives[HELPER_SAMPLES / 2]
    })
}

/// How many workers, the caller included, a pooled run should use for
/// `work_ns` of predicted host time. With `w` workers sharing the work,
/// one more cuts it by `work_ns / (w (w + 1))`; a helper is added while
/// that saving exceeds `helper_ns`, and never past the host's threads,
/// the device's lanes or the chunks there are to share.
pub(crate) fn fan_out(
    host: usize,
    lanes_cap: usize,
    chunks: usize,
    work_ns: f64,
    helper_ns: f64,
) -> usize {
    let cap = host.min(lanes_cap).min(chunks);
    let mut workers = 1;
    while workers < cap && work_ns / (workers * (workers + 1)) as f64 > helper_ns {
        workers += 1;
    }
    workers
}

/// A kernel's measured host time per input byte on one backend, in
/// nanoseconds: the bits of an `f64`, zero until a pooled run has
/// measured it. The calling worker of each pooled run stores the rate
/// of the chunks it ran; the next pooled run weighs its bytes by it.
#[derive(Default)]
pub(crate) struct HostRate(AtomicU64);

impl HostRate {
    pub(crate) fn get(&self) -> Option<f64> {
        let ns = f64::from_bits(self.0.load(Ordering::Relaxed));
        (ns > 0.0).then_some(ns)
    }

    pub(crate) fn set(&self, ns_per_byte: f64) {
        self.0.store(ns_per_byte.to_bits(), Ordering::Relaxed);
    }
}

/// The chunk list the workers claim from: the next unclaimed index and
/// the unclaimed chunks' bytes, kept as a running count so weighing the
/// work left costs O(1) however many chunks there are.
struct Claims<'a> {
    inputs: &'a [&'a [u8]],
    next: AtomicUsize,
    bytes_left: AtomicUsize,
}

impl<'a> Claims<'a> {
    fn new(inputs: &'a [&'a [u8]]) -> Self {
        Claims {
            inputs,
            next: AtomicUsize::new(0),
            bytes_left: AtomicUsize::new(inputs.iter().map(|i| i.len()).sum()),
        }
    }

    /// The next unclaimed chunk, if any is left.
    fn claim(&self) -> Option<usize> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let input = self.inputs.get(idx)?;
        self.bytes_left.fetch_sub(input.len(), Ordering::Relaxed);
        Some(idx)
    }

    fn unclaimed(&self) -> usize {
        self.inputs
            .len()
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }

    fn bytes_left(&self) -> usize {
        self.bytes_left.load(Ordering::Relaxed)
    }
}

/// What a worker hands back: its `(chunk index, report)` pairs and the
/// final window snapshots it took.
type WorkerOutput = (Vec<(usize, LaneReport)>, Vec<WindowSnapshot>);

/// The helper threads of one pooled run.
struct Helpers<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    p: &'env RunParams<'env>,
    claims: &'env Claims<'env>,
    handles: Vec<ScopedJoinHandle<'scope, WorkerOutput>>,
}

impl Helpers<'_, '_> {
    /// Workers running, the caller included.
    fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Starts helpers until `workers` run, claiming each one's first
    /// chunk before spawning it, so every helper runs at least one
    /// chunk; stops early when the chunks run out.
    fn grow_to(&mut self, workers: usize) {
        while self.workers() < workers {
            let Some(first) = self.claims.claim() else {
                return;
            };
            let (p, claims) = (self.p, self.claims);
            let helper = move || worker_loop(p, claims, Some(first), |_| {});
            self.handles.push(self.scope.spawn(helper));
        }
    }
}

/// The calling worker's host time and bytes over the chunks it ran.
struct Meter {
    since: Instant,
    ns: f64,
    bytes: usize,
}

impl Meter {
    fn start() -> Self {
        Meter {
            since: Instant::now(),
            ns: 0.0,
            bytes: 0,
        }
    }

    /// Counts the time since the last lap (or start) against `bytes`.
    fn lap(&mut self, bytes: usize) {
        let now = Instant::now();
        self.ns += now.duration_since(self.since).as_nanos() as f64;
        self.bytes += bytes;
        self.since = now;
    }

    fn ns_per_byte(&self) -> Option<f64> {
        (self.bytes > 0).then(|| self.ns / self.bytes as f64)
    }
}

/// Runs every chunk and returns the reports in chunk order plus the
/// final window snapshots.
///
/// The calling thread is always a worker. With `rate` `None`, or at
/// most one chunk, it is the only one: it runs every chunk and spawns
/// nothing. Otherwise `rate` is the kernel's measured host time per
/// byte on this run's backend, and the caller starts [`fan_out`]'s
/// count of workers for the call's bytes at that rate — every one it
/// may (`min(host threads, lanes_cap, chunks)`) while the kernel has
/// no rate yet. After each chunk it runs, the caller weighs the bytes
/// still unclaimed by the rate it has measured so far and may start
/// more helpers, never fewer; at the end it stores that rate. All
/// workers race down the chunk list via a shared atomic counter.
///
/// A chunk whose body panics yields a [`LaneStatus::Fault`] report and a
/// rebuilt slot, on the calling thread as on a helper; in the
/// (hypothetical) case of a worker dying outside the per-chunk
/// `catch_unwind`, its claimed-but-unreported chunks come back as
/// fault reports too — degradation never becomes a host abort.
pub(crate) fn run(
    p: &RunParams,
    inputs: &[&[u8]],
    rate: Option<&HostRate>,
) -> (Vec<LaneReport>, Vec<WindowSnapshot>) {
    let total = inputs.len();
    let claims = Claims::new(inputs);
    let mut outputs = Vec::new();
    match rate {
        Some(rate) if total > 1 => std::thread::scope(|scope| {
            let forced = forced_fan_out();
            let host = if forced {
                FORCED_WORKERS
            } else {
                host_threads()
            };
            let cap = host.min(p.lanes_cap);
            let weigh = |ns_per_byte: f64, workers: usize| {
                let work_ns = claims.bytes_left() as f64 * ns_per_byte;
                let chunks = workers + claims.unclaimed();
                fan_out(host, p.lanes_cap, chunks, work_ns, helper_ns())
            };
            let workers = match rate.get() {
                Some(ns) if cap > 1 && !forced => weigh(ns, 0),
                _ => cap.min(total),
            };
            let first = claims.claim();
            let mut helpers = Helpers {
                scope,
                p,
                claims: &claims,
                handles: Vec::new(),
            };
            helpers.grow_to(workers);
            let mut meter = Meter::start();
            let own = catch_unwind(AssertUnwindSafe(|| {
                worker_loop(p, &claims, first, |bytes| {
                    meter.lap(bytes);
                    if helpers.workers() < cap && claims.unclaimed() > 0 {
                        if let Some(ns) = meter.ns_per_byte() {
                            let before = helpers.workers();
                            helpers.grow_to(weigh(ns, before));
                            if helpers.workers() > before {
                                // The spawns are not chunk time.
                                meter.since = Instant::now();
                            }
                        }
                    }
                })
            }));
            if let Some(ns) = meter.ns_per_byte() {
                rate.set(ns);
            }
            outputs.push(own);
            outputs.extend(helpers.handles.into_iter().map(|h| h.join()));
        }),
        _ => outputs.push(catch_unwind(AssertUnwindSafe(|| {
            worker_loop(p, &claims, claims.claim(), |_| {})
        }))),
    }
    let mut results: Vec<Option<LaneReport>> = (0..total).map(|_| None).collect();
    let mut finals: Vec<WindowSnapshot> = Vec::new();
    for (reports, windows) in outputs.into_iter().flatten() {
        for (idx, rep) in reports {
            results[idx] = Some(rep);
        }
        finals.extend(windows);
    }
    let reports = results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| fault_lane_report("worker terminated before reporting".to_string()))
        })
        .collect();
    (reports, finals)
}

/// How many workers a pooled run starts on a thread that forces
/// fan-out ([`forced_fan_out`]), capped by the lanes and chunks.
const FORCED_WORKERS: usize = 4;

/// Whether pooled runs on this thread start every worker they may,
/// whatever the rate. Only this module's unit tests set it: their tiny
/// inputs would otherwise never reach a helper.
#[cfg(test)]
fn forced_fan_out() -> bool {
    tests::FORCE_FAN_OUT.with(std::cell::Cell::get)
}

#[cfg(not(test))]
fn forced_fan_out() -> bool {
    false
}

/// One worker: run chunk `first`, then claim chunks until none is
/// left, running each under `catch_unwind` so a poisoned chunk cannot
/// take down the pool. `after_chunk` gets each chunk's byte count once
/// its report is in.
fn worker_loop(
    p: &RunParams,
    claims: &Claims,
    first: Option<usize>,
    mut after_chunk: impl FnMut(usize),
) -> WorkerOutput {
    let inputs = claims.inputs;
    let total = inputs.len();
    let mut slot = LaneSlot::new(p.window_words);
    let mut reports = Vec::new();
    let mut finals = Vec::new();
    let mut next = first;
    while let Some(idx) = next {
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
        after_chunk(inputs[idx].len());
        next = claims.claim();
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ExecBackend, PreparedKernel, Udp, UdpRunOptions, UdpRunReport};
    use std::cell::Cell;
    use std::sync::{Mutex, PoisonError};
    use std::thread::ThreadId;
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::{Action, Opcode};
    use udp_isa::Reg;

    thread_local! {
        /// Read by [`forced_fan_out`].
        pub(super) static FORCE_FAN_OUT: Cell<bool> = const { Cell::new(false) };
    }

    const BACKENDS: [ExecBackend; 2] = [ExecBackend::Interpreter, ExecBackend::Compiled];

    /// Runs `f` with fan-out forced on this thread.
    fn forcing<R>(f: impl FnOnce() -> R) -> R {
        FORCE_FAN_OUT.set(true);
        let r = f();
        FORCE_FAN_OUT.set(false);
        r
    }

    /// Serializes the tests that swap the process-wide panic hook, so
    /// one test's restore cannot drop another's hook mid-run.
    static PANIC_HOOK: Mutex<()> = Mutex::new(());

    /// Runs `f` with chaos panics silenced, returning the threads they
    /// panicked on.
    pub(crate) fn chaos_threads<R>(f: impl FnOnce() -> R) -> (R, Vec<ThreadId>) {
        let _serial = PANIC_HOOK.lock().unwrap_or_else(PoisonError::into_inner);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.to_string().contains("chaos") {
                sink.lock().unwrap().push(std::thread::current().id());
            }
        }));
        let r = f();
        std::panic::set_hook(hook);
        let threads = seen.lock().unwrap().clone();
        (r, threads)
    }

    /// Emits `!` for every `a`; after every byte, stores the count of
    /// bytes so far at window byte 2000, a footprint above the code.
    fn counter() -> ProgramImage {
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        let count = || {
            vec![
                Action::imm(Opcode::AddI, r2, r2, 1),
                Action::imm(Opcode::MovI, r1, Reg::R0, 2000),
                Action::imm(Opcode::StoreW, r1, r2, 0),
            ]
        };
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        let emit = Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, u16::from(b'!'));
        let on_a = [vec![emit], count()].concat();
        b.labeled_arc(s, u16::from(b'a'), Target::State(s), on_a);
        b.fallback_arc(s, Target::State(s), count());
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    /// `n` chunks of differing lengths and contents.
    fn chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                (0..(i * 37) % 300)
                    .map(|j| if (i + j) % 3 == 0 { b'b' } else { b'a' })
                    .collect()
            })
            .collect()
    }

    fn opts(backend: ExecBackend, parallel: bool) -> UdpRunOptions {
        UdpRunOptions {
            backend,
            parallel,
            ..UdpRunOptions::default()
        }
    }

    #[test]
    fn fan_out_starts_a_helper_only_when_it_saves_more_than_it_costs() {
        let h = 10_000.0;
        // A second worker saves half the work, a third a sixth of it,
        // a fourth a twelfth.
        for (work, workers) in [
            (0.0, 1),
            (h, 1),
            (2.0 * h, 1),
            (2.5 * h, 2),
            (6.0 * h, 2),
            (7.0 * h, 3),
            (12.0 * h, 3),
            (13.0 * h, 4),
            (f64::NAN, 1),
        ] {
            assert_eq!(fan_out(8, 64, 64, work, h), workers, "{work} ns of work");
        }
    }

    #[test]
    fn fan_out_never_exceeds_the_host_the_lanes_or_the_chunks() {
        for (host, lanes_cap, chunks) in [
            (8, 64, 64),
            (64, 8, 64),
            (64, 64, 8),
            (2, 1, 5),
            (1, 64, 64),
            (4, 64, 1),
            (4, 64, 0),
        ] {
            let most = host.min(lanes_cap).min(chunks).max(1);
            assert_eq!(fan_out(host, lanes_cap, chunks, 1e18, 1.0), most);
            assert_eq!(fan_out(host, lanes_cap, chunks, 1e18, 0.0), most);
        }
    }

    #[test]
    fn a_helpers_panicking_chunk_degrades_on_the_helper() {
        let kernel = PreparedKernel::new(Arc::new(counter()));
        let long = vec![b'a'; 300];
        // Each helper's first chunk is claimed for it before it starts,
        // so the first helper runs chunk 1 whoever is faster.
        let inputs: Vec<&[u8]> = vec![b"aa", &long, b"aba", &long, b"a"];
        for backend in BACKENDS {
            let chaos = |parallel| UdpRunOptions {
                lane: LaneConfig {
                    chaos_panic_at: Some(100),
                    ..LaneConfig::default()
                },
                ..opts(backend, parallel)
            };
            let run = |parallel| {
                Udp::new()
                    .run(&kernel, &inputs, &Staging::default(), &chaos(parallel))
                    .unwrap()
            };
            let (pooled, threads) = chaos_threads(|| forcing(|| run(true)));
            let me = std::thread::current().id();
            assert!(
                threads.iter().any(|&t| t != me),
                "{backend:?}: no chaos panic ran on a helper: {threads:?}"
            );
            for (i, lane) in pooled.lanes.iter().enumerate() {
                if inputs[i].len() > 100 {
                    assert!(
                        matches!(
                            &lane.status,
                            LaneStatus::Fault(FaultKind::HostPanic(m)) if m.contains("chaos")
                        ),
                        "{backend:?}: chunk {i}: {:?}",
                        lane.status
                    );
                } else {
                    assert_eq!(lane.status, LaneStatus::InputExhausted);
                }
            }
            let (sequential, _) = chaos_threads(|| run(false));
            assert_eq!(pooled, sequential, "{backend:?}");
        }
    }

    #[test]
    fn a_helpers_final_windows_match_the_sequential_run() {
        let kernel = PreparedKernel::new(Arc::new(counter()));
        let (staging, cfg) = (Staging::default(), LaneConfig::default());
        for compiled in [None, kernel.compiled()] {
            for (n, lanes_cap) in [(2, 64), (7, 2), (9, 4)] {
                let data = chunks(n + 1);
                let inputs: Vec<&[u8]> = data[1..].iter().map(Vec::as_slice).collect();
                let p = RunParams {
                    image: kernel.image(),
                    decoded: kernel.decoded(),
                    staging: &staging,
                    cfg: &cfg,
                    window_words: BANK_WORDS,
                    lanes_cap,
                    compiled,
                };
                let sorted = |(reports, mut finals): (Vec<LaneReport>, Vec<WindowSnapshot>)| {
                    finals.sort();
                    (reports, finals)
                };
                let sequential = sorted(run(&p, &inputs, None));
                let pooled = sorted(forcing(|| run(&p, &inputs, Some(&HostRate::default()))));
                assert_eq!(pooled, sequential, "{n} chunks over {lanes_cap} lanes");
                if n == 2 {
                    // Chunk 1 ran on the helper, and is its slot's last
                    // occupant: its count sits at word 500.
                    let (slot, words) = &pooled.1[1];
                    assert_eq!(*slot, 1);
                    assert_eq!(words[500] as usize, inputs[1].len());
                }
            }
        }
    }

    #[test]
    fn reports_do_not_depend_on_the_rate_or_the_fan_out() {
        let kernel = PreparedKernel::new(Arc::new(counter()));
        let staging = Staging::default();
        for n in [0, 1, 2, 63, 64, 65, 130] {
            let data = chunks(n);
            let inputs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            for backend in BACKENDS {
                let run = |udp: &mut Udp, parallel| -> UdpRunReport {
                    udp.run(&kernel, &inputs, &staging, &opts(backend, parallel))
                        .unwrap()
                };
                let mut seq_udp = Udp::new();
                let sequential = run(&mut seq_udp, false);
                // Unset, tiny, huge, then forced fan-out.
                for (mode, ns_per_byte) in [0.0, 1e-9, 1e9, 0.0].into_iter().enumerate() {
                    for compiled in [false, true] {
                        kernel.host_rate(compiled).set(ns_per_byte);
                    }
                    let mut udp = Udp::new();
                    let pooled = if mode == 3 {
                        forcing(|| run(&mut udp, true))
                    } else {
                        run(&mut udp, true)
                    };
                    assert_eq!(pooled, sequential, "{backend:?}, {n} chunks, mode {mode}");
                    for lane in 0..n.min(64) {
                        assert_eq!(
                            udp.read_lane_bytes(lane, 1, 0, 4 * BANK_WORDS),
                            seq_udp.read_lane_bytes(lane, 1, 0, 4 * BANK_WORDS),
                            "{backend:?}, {n} chunks, mode {mode}: window {lane}"
                        );
                    }
                }
            }
        }
    }
}
