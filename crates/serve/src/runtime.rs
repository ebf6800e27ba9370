//! The multi-tenant service runtime: a long-running scheduler that
//! admits jobs, batches them into lane waves on the simulated device,
//! and wraps every job in the robustness envelope (DESIGN.md §10):
//!
//! * **Admission control.** One global bounded queue plus a per-tenant
//!   queued-jobs quota; a full bound sheds the request with a typed
//!   [`ServeError::Overloaded`] instead of blocking the caller —
//!   backpressure is the client's signal to slow down.
//! * **Per-tenant cycle quotas.** Every chunk's modeled cycles (the
//!   same `budget_for`-bounded counter the lane enforces) are charged
//!   to its tenant; a tenant over its cumulative budget is refused at
//!   admission with [`ServeError::QuotaExhausted`] until an operator
//!   refills it. A greedy tenant exhausts its own allowance, never the
//!   service.
//! * **Deadlines.** A job's wall-clock deadline is enforced at
//!   admission, at dispatch (stale queue entries are shed unexecuted),
//!   and at completion (a result that missed its deadline is dropped,
//!   never delivered late). Remaining wall time also clamps the wave's
//!   cycle cap ([`ServeConfig::cycles_per_ms`]), so a run that cannot
//!   finish in time is cooperatively cancelled by the lane's own cycle
//!   budget instead of burning the device.
//! * **Per-tenant fault isolation.** Every wave runs under the
//!   supervisor ladder (retry → reference fallback → quarantine); a
//!   chunk that survives the whole ladder quarantined is a *strike*
//!   against its tenant, and [`ServeConfig::quarantine_strikes`] of
//!   them quarantine the tenant itself — subsequent submissions are
//!   refused with [`ServeError::TenantQuarantined`] while every other
//!   tenant's traffic is untouched.
//! * **Drain-then-stop shutdown.** [`ServeRuntime::shutdown`] with
//!   [`Shutdown::Drain`] stops admission and lets the queue empty;
//!   [`Shutdown::Abort`] completes every queued job with
//!   [`ServeError::ShuttingDown`]. Either way, every accepted job gets
//!   exactly one delivery.

use crate::error::{OverloadScope, ServeError};
use crate::job::{ChaosSpec, JobOutcome, JobOutput, JobResult, JobSpec, JobTicket};
use crate::journal::{self, JournalRecord, JournalWriter};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use udp_asm::{LayoutOptions, ProgramImage};
use udp_isa::mem::{BANK_WORDS, NUM_BANKS};
use udp_sim::engine::Staging;
use udp_sim::{
    ChunkOutcome, ExecBackend, FaultKind, LaneConfig, PreparedKernel, ReferenceFallback, SimError,
    SupervisorOptions, Udp, UdpRunOptions,
};
use udp_store::ArtifactStore;

/// Per-tenant resource limits.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Jobs the tenant may have queued at once; the next submission is
    /// shed with [`ServeError::Overloaded`] (tenant scope).
    pub max_queued: usize,
    /// Cumulative modeled-cycle allowance. `None` is unmetered; with a
    /// budget, admissions are refused once the tenant's charged cycles
    /// reach it ([`ServeError::QuotaExhausted`]) until
    /// [`ServeHandle::refill_quota`] tops it up.
    pub cycle_budget: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_queued: 64,
            cycle_budget: None,
        }
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Global bounded-queue capacity (jobs queued across all tenants).
    pub queue_capacity: usize,
    /// Most jobs batched into one device wave (≤ 64 is the natural
    /// lane count; larger values still work — the engine models extra
    /// waves).
    pub max_wave: usize,
    /// Execute waves on the persistent host worker pool.
    pub parallel: bool,
    /// Quota applied to tenants the runtime has not seen before.
    pub default_quota: TenantQuota,
    /// Quarantined chunks a tenant may cause before the tenant itself
    /// is quarantined. Strike counting ignores deadline-induced cycle
    /// budget faults — a tight deadline is not a poison kernel.
    pub quarantine_strikes: u32,
    /// Supervisor ladder template for every wave; the per-kernel
    /// reference fallback is filled in at dispatch. Validated at
    /// startup via [`SupervisorOptions::validate`].
    pub supervisor: SupervisorOptions,
    /// Base lane configuration (cycle budgets; chaos hooks must stay
    /// unset — per-job [`ChaosSpec`]s arm them).
    pub lane: LaneConfig,
    /// Deadline-to-cycle conversion for cooperative cancellation: a job
    /// with `r` milliseconds of wall clock left gets its wave cycle cap
    /// clamped to `r * cycles_per_ms`. `0` disables the clamp (deadlines
    /// then only shed, never cancel mid-run).
    pub cycles_per_ms: u64,
    /// Execution backend for waves; `None` resolves
    /// [`ExecBackend::from_env`] at startup, so the runtime joins the
    /// `UDP_SIM_BACKEND` test matrix like everything else.
    pub backend: Option<ExecBackend>,
    /// `fsync` the warm-restart journal after every record
    /// ([`ServeRuntime::start_journaled`] only). Durable by default;
    /// tests that churn many short-lived services can turn it off.
    pub journal_sync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_wave: 64,
            parallel: true,
            default_quota: TenantQuota::default(),
            quarantine_strikes: 1,
            supervisor: SupervisorOptions {
                backoff_base_ms: 0,
                ..SupervisorOptions::default()
            },
            lane: LaneConfig::default(),
            cycles_per_ms: 200_000,
            backend: None,
            journal_sync: true,
        }
    }
}

/// Service-level counters, all monotonic. [`ServeHandle::stats`]
/// returns a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions seen (accepted + rejected).
    pub submitted: u64,
    /// Submissions admitted to the queue.
    pub accepted: u64,
    /// Jobs completed with an `Ok` output.
    pub completed: u64,
    /// Requests shed by a full queue bound (global or tenant).
    pub shed_overload: u64,
    /// Jobs shed or dropped by their deadline.
    pub shed_deadline: u64,
    /// Submissions refused for an exhausted cycle quota.
    pub rejected_quota: u64,
    /// Submissions (or queued jobs) refused because the tenant is
    /// quarantined.
    pub rejected_quarantined: u64,
    /// Submissions refused for other reasons (unknown kernel,
    /// shutdown).
    pub rejected_other: u64,
    /// Jobs whose chunk the supervisor quarantined.
    pub quarantined_jobs: u64,
    /// Tenants currently quarantined.
    pub tenants_quarantined: u64,
    /// Results that could not be delivered (client hung up).
    pub results_dropped: u64,
    /// Kernels whose journal record could not be restored at warm
    /// restart (artifact gone *and* source unassemblable); the service
    /// starts degraded and refuses them with
    /// [`ServeError::UnknownKernel`].
    pub kernels_dropped: u64,
    /// Device waves executed.
    pub waves: u64,
    /// Input bytes executed on the device.
    pub bytes_in: u64,
    /// Modeled cycles charged across all tenants.
    pub cycles: u64,
}

/// A registered kernel: the verified program prepared once (its
/// predecoded table, and the compiled tables its first compiled wave
/// lowers, shared by every later wave), and its optional software
/// reference fallback (the supervisor's second rung).
#[derive(Clone)]
struct KernelSpec {
    kernel: Arc<PreparedKernel>,
    banks_per_lane: usize,
    fallback: Option<Arc<dyn ReferenceFallback>>,
}

/// Prepares a store artifact's kernel, sharing its image by `Arc`.
fn prepare_artifact(artifact: &udp_store::Artifact) -> Arc<PreparedKernel> {
    Arc::new(PreparedKernel::new(Arc::clone(&artifact.image)))
}

struct TenantState {
    quota: TenantQuota,
    queued: usize,
    cycles_used: u64,
    strikes: u32,
    quarantined: bool,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        TenantState {
            quota,
            queued: 0,
            cycles_used: 0,
            strikes: 0,
            quarantined: false,
        }
    }
}

struct PendingJob {
    tenant: String,
    kernel: String,
    payload: Vec<u8>,
    deadline: Option<Instant>,
    accepted_at: Instant,
    chaos: Option<ChaosSpec>,
    tx: mpsc::Sender<JobResult>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Stopped,
}

struct State {
    phase: Phase,
    paused: bool,
    queue: VecDeque<PendingJob>,
    tenants: HashMap<String, TenantState>,
    kernels: HashMap<String, KernelSpec>,
    stats: ServeStats,
    next_job_id: u64,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    config: ServeConfig,
    backend: ExecBackend,
    /// Warm-restart write-ahead journal; `None` for unjournaled
    /// runtimes. Lock order: `state` first, `journal` second — never
    /// the reverse.
    journal: Mutex<Option<JournalWriter>>,
}

impl Shared {
    /// Lock that survives poisoning: a panicking scheduler must not
    /// turn every client call into a second panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record to the journal, if one is attached.
    fn journal_append(&self, rec: &JournalRecord) {
        let mut j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = j.as_mut() {
            w.append(rec);
        }
    }
}

/// How to stop the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Stop admission, run the queue dry, then stop.
    Drain,
    /// Stop admission and complete every queued job with
    /// [`ServeError::ShuttingDown`] without executing it.
    Abort,
}

/// Cloneable client handle to a running service.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

/// The running service: owns the scheduler thread. Keep it alive for
/// the lifetime of the service; dropping it aborts (typed, not hung).
pub struct ServeRuntime {
    handle: ServeHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeRuntime {
    /// Starts a runtime with no kernels registered.
    /// Fails fast on an invalid supervisor template
    /// ([`SupervisorOptions::validate`]).
    pub fn start(config: ServeConfig) -> Result<ServeRuntime, ServeError> {
        config.supervisor.validate()?;
        let backend = config.backend.unwrap_or_else(ExecBackend::from_env);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                phase: Phase::Running,
                paused: false,
                queue: VecDeque::new(),
                tenants: HashMap::new(),
                kernels: HashMap::new(),
                stats: ServeStats::default(),
                next_job_id: 0,
            }),
            work_cv: Condvar::new(),
            config,
            backend,
            journal: Mutex::new(None),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("udp-serve-scheduler".into())
            .spawn(move || scheduler_loop(&worker))
            .map_err(|e| ServeError::Internal {
                detail: format!("could not spawn scheduler: {e}"),
            })?;
        Ok(ServeRuntime {
            handle: ServeHandle { shared },
            thread: Some(thread),
        })
    }

    /// [`ServeRuntime::start`] plus the built-in `"csv"` kernel (the
    /// workspace CSV framing kernel with its byte-identical software
    /// reference as the fallback rung).
    pub fn start_with_builtin_kernels(config: ServeConfig) -> Result<ServeRuntime, ServeError> {
        let rt = ServeRuntime::start(config)?;
        let (image, fallback) = csv_kernel()?;
        rt.handle().register_kernel("csv", image, Some(fallback))?;
        Ok(rt)
    }

    /// Warm(-restartable) start: replays the write-ahead journal at
    /// `journal_path` — restoring registered kernels through the
    /// artifact `store` and every tenant's admission-relevant state
    /// (quotas, cycles charged, strikes, quarantine) — then resumes
    /// journaling to the same file, so a restarted service admits and
    /// refuses exactly like the one that stopped (DESIGN.md §11.3).
    ///
    /// Recovery discipline:
    ///
    /// * A torn journal tail (crash mid-append) is detected by the
    ///   per-record CRC, reported on stderr, and truncated away —
    ///   everything before it replays normally.
    /// * A kernel whose artifact is corrupt is rebuilt from the source
    ///   in its journal record (the store's recovery rung). If that
    ///   fails too, the kernel is dropped — counted in
    ///   [`ServeStats::kernels_dropped`] — and the service starts
    ///   degraded, refusing that kernel with
    ///   [`ServeError::UnknownKernel`] instead of refusing to start.
    /// * Only kernels registered via [`ServeHandle::register_artifact`]
    ///   survive restarts; [`ServeHandle::register_kernel`] is
    ///   journal-less by design (it has no durable provenance).
    pub fn start_journaled(
        config: ServeConfig,
        journal_path: impl AsRef<Path>,
        store: &ArtifactStore,
    ) -> Result<ServeRuntime, ServeError> {
        let journal_path = journal_path.as_ref();
        let replayed = journal::replay(journal_path)?;
        if let Some(note) = &replayed.torn {
            eprintln!(
                "udp-serve: journal {}: discarding torn tail ({note})",
                journal_path.display()
            );
        }
        let sync = config.journal_sync;
        let rt = ServeRuntime::start(config)?;
        {
            let shared = &rt.handle.shared;
            let default_quota = shared.config.default_quota.clone();
            let mut st = shared.lock();
            for rec in &replayed.records {
                apply_record(&mut st, store, &default_quota, rec);
            }
        }
        let writer = JournalWriter::open(journal_path, replayed.valid_bytes, sync)?;
        *rt.handle
            .shared
            .journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(writer);
        Ok(rt)
    }

    /// A clone of the client handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stops the runtime ([`Shutdown::Drain`] runs the queue dry first)
    /// and returns the final stats. Blocks until the scheduler exits.
    pub fn shutdown(mut self, mode: Shutdown) -> ServeStats {
        self.handle.begin_shutdown(mode);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.handle.stats()
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.handle.begin_shutdown(Shutdown::Abort);
            let _ = t.join();
        }
    }
}

impl ServeHandle {
    /// Registers (or replaces) a kernel under `name`. The image must be
    /// executable, fit the device, and pass `udp-verify`'s static
    /// checks — a service must never load a program a tenant could use
    /// to wedge a lane when the verifier can prove it hostile up front.
    pub fn register_kernel(
        &self,
        name: impl Into<String>,
        image: Arc<ProgramImage>,
        fallback: Option<Arc<dyn ReferenceFallback>>,
    ) -> Result<(), ServeError> {
        if !image.executable {
            return Err(ServeError::Sim(SimError::NotExecutable));
        }
        let span = image.stats.span_words;
        if span > NUM_BANKS * BANK_WORDS {
            return Err(ServeError::Sim(SimError::ProgramTooLarge {
                span_words: span,
                window_words: NUM_BANKS * BANK_WORDS,
                banks_per_lane: NUM_BANKS,
            }));
        }
        let banks_per_lane = span.div_ceil(BANK_WORDS).clamp(1, NUM_BANKS);
        let report = udp_verify::verify_image(
            &image,
            &udp_verify::VerifyOptions::with_banks(banks_per_lane),
        );
        if !report.is_clean() {
            return Err(ServeError::Sim(SimError::Verify(Box::new(report))));
        }
        // Attach the verifier's resource certificate (when the program
        // earned one) so admission can forecast job costs and the sim
        // engine can derive per-lane budgets from the certified bounds.
        let image = match report.cert {
            Some(cert) if image.cert.is_none() => {
                let mut img = (*image).clone();
                img.cert = Some(cert);
                Arc::new(img)
            }
            _ => image,
        };
        let kernel = Arc::new(PreparedKernel::new(image));
        let mut st = self.shared.lock();
        st.kernels.insert(
            name.into(),
            KernelSpec {
                kernel,
                banks_per_lane,
                fallback,
            },
        );
        Ok(())
    }

    /// Registers (or replaces) a kernel from a store [`Artifact`]
    /// (`udp_store::Artifact`). The store already integrity-checked and
    /// re-validated the image — certificate included — at load, so
    /// registration skips the redundant re-verification and shares the
    /// artifact's image by `Arc` (no copy) and predecodes it once.
    ///
    /// Unlike [`ServeHandle::register_kernel`], this registration is
    /// journaled (source + layout + fallback tag), so on a
    /// [`ServeRuntime::start_journaled`] restart the kernel is restored
    /// from the store — or rebuilt from its source if the artifact was
    /// corrupted in between.
    pub fn register_artifact(
        &self,
        name: impl Into<String>,
        artifact: &udp_store::Artifact,
        fallback: Option<Arc<dyn ReferenceFallback>>,
    ) -> Result<(), ServeError> {
        if !artifact.image.executable {
            return Err(ServeError::Sim(SimError::NotExecutable));
        }
        let name = name.into();
        let rec = JournalRecord::RegisterKernel {
            name: name.clone(),
            source: artifact.source.clone(),
            layout: artifact.layout.clone(),
            fallback: fallback.as_ref().map(|f| f.name().to_string()),
        };
        let mut st = self.shared.lock();
        st.kernels.insert(
            name,
            KernelSpec {
                kernel: prepare_artifact(artifact),
                banks_per_lane: artifact.banks_per_lane,
                fallback,
            },
        );
        self.shared.journal_append(&rec);
        Ok(())
    }

    /// The resource certificate of a registered kernel, if the verifier
    /// produced a cost bound for it at registration. Operators can use
    /// this to size tenant budgets against certified worst-case costs.
    pub fn kernel_cert(&self, name: &str) -> Option<udp_asm::ResourceCert> {
        self.shared
            .lock()
            .kernels
            .get(name)
            .and_then(|k| k.kernel.image().cert.clone())
    }

    /// Submits a job. Admission is non-blocking: a refused job comes
    /// back immediately as a typed [`ServeError`]; an accepted one
    /// returns a [`JobTicket`] redeemable for exactly one result.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, ServeError> {
        let cfg = &self.shared.config;
        let mut st = self.shared.lock();
        st.stats.submitted += 1;
        if st.phase != Phase::Running {
            st.stats.rejected_other += 1;
            return Err(ServeError::ShuttingDown);
        }
        // Certified worst-case cost of this payload on the requested
        // kernel (DESIGN.md §9.1). When the kernel carries a complete
        // certificate, admission reserves the bound against the
        // tenant's budget instead of admitting doomed work.
        let certified_cost = match st.kernels.get(&spec.kernel) {
            None => {
                st.stats.rejected_other += 1;
                return Err(ServeError::UnknownKernel { name: spec.kernel });
            }
            Some(k) => k
                .kernel
                .image()
                .cert
                .as_ref()
                .and_then(|c| c.cycle_bound(spec.payload.len())),
        };
        // Tenant-scoped checks. The entry is created on first contact so
        // quota state persists across the tenant's submissions.
        let default_quota = cfg.default_quota.clone();
        let tenant = st
            .tenants
            .entry(spec.tenant.clone())
            .or_insert_with(|| TenantState::new(default_quota));
        if tenant.quarantined {
            let strikes = tenant.strikes;
            st.stats.rejected_quarantined += 1;
            return Err(ServeError::TenantQuarantined { strikes });
        }
        if let Some(budget) = tenant.quota.cycle_budget {
            // A certified kernel is metered by forecast: the job is
            // refused when its certified worst case cannot fit the
            // remaining budget. Uncertified kernels keep overdraft
            // semantics (admit while any budget remains, charge
            // actuals), since there is no sound forecast to reserve.
            let forecast = tenant
                .cycles_used
                .saturating_add(certified_cost.unwrap_or(0));
            if tenant.cycles_used >= budget || forecast > budget {
                let used = tenant.cycles_used;
                st.stats.rejected_quota += 1;
                return Err(ServeError::QuotaExhausted { used, budget });
            }
        }
        let (tenant_queued, tenant_cap) = (tenant.queued, tenant.quota.max_queued);
        if tenant_queued >= tenant_cap {
            st.stats.shed_overload += 1;
            return Err(ServeError::Overloaded {
                scope: OverloadScope::Tenant,
                queued: tenant_queued,
                capacity: tenant_cap,
            });
        }
        if st.queue.len() >= cfg.queue_capacity {
            let queued = st.queue.len();
            st.stats.shed_overload += 1;
            return Err(ServeError::Overloaded {
                scope: OverloadScope::Queue,
                queued,
                capacity: cfg.queue_capacity,
            });
        }
        // Admitted.
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let id = st.next_job_id;
        st.next_job_id += 1;
        if let Some(t) = st.tenants.get_mut(&spec.tenant) {
            t.queued += 1;
        }
        st.stats.accepted += 1;
        st.queue.push_back(PendingJob {
            tenant: spec.tenant,
            kernel: spec.kernel,
            payload: spec.payload,
            deadline: spec.deadline.map(|d| now + d),
            accepted_at: now,
            chaos: spec.chaos,
            tx,
        });
        drop(st);
        self.shared.work_cv.notify_all();
        Ok(JobTicket { id, rx })
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.lock().stats
    }

    /// Sets (or replaces) `tenant`'s quota. Creates the tenant record
    /// if it has not submitted yet.
    pub fn set_quota(&self, tenant: impl Into<String>, quota: TenantQuota) {
        let tenant = tenant.into();
        let rec = JournalRecord::SetQuota {
            tenant: tenant.clone(),
            max_queued: quota.max_queued as u64,
            cycle_budget: quota.cycle_budget,
        };
        let mut st = self.shared.lock();
        match st.tenants.entry(tenant) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().quota = quota;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(TenantState::new(quota));
            }
        }
        self.shared.journal_append(&rec);
    }

    /// Credits `cycles` back to `tenant`'s spent-cycle account (an
    /// operator refilling a budget). Saturates at zero.
    pub fn refill_quota(&self, tenant: &str, cycles: u64) {
        let mut st = self.shared.lock();
        if let Some(t) = st.tenants.get_mut(tenant) {
            t.cycles_used = t.cycles_used.saturating_sub(cycles);
            self.shared.journal_append(&JournalRecord::Refill {
                tenant: tenant.to_string(),
                cycles,
            });
        }
    }

    /// Lifts `tenant`'s quarantine and clears its strikes (operator
    /// action after the poison kernel is fixed).
    pub fn release_quarantine(&self, tenant: &str) {
        let mut st = self.shared.lock();
        if let Some(t) = st.tenants.get_mut(tenant) {
            if t.quarantined {
                t.quarantined = false;
                t.strikes = 0;
                st.stats.tenants_quarantined = st.stats.tenants_quarantined.saturating_sub(1);
                self.shared.journal_append(&JournalRecord::Release {
                    tenant: tenant.to_string(),
                });
            }
        }
    }

    /// Pauses dispatch: queued jobs stay queued (admission still runs).
    /// Lets tests and benchmarks build a backlog deterministically.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes dispatch after [`ServeHandle::pause`].
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work_cv.notify_all();
    }

    /// True once the scheduler has stopped (drain complete or aborted).
    pub fn is_stopped(&self) -> bool {
        let st = self.shared.lock();
        st.phase == Phase::Stopped && st.queue.is_empty()
    }

    /// Non-blocking shutdown signal; [`ServeRuntime::shutdown`] wraps
    /// this plus the join. Exposed for signal-style control paths (the
    /// socket server's SHUTDOWN frame uses it).
    pub fn begin_shutdown(&self, mode: Shutdown) {
        let mut st = self.shared.lock();
        match mode {
            Shutdown::Drain => {
                if st.phase == Phase::Running {
                    st.phase = Phase::Draining;
                }
            }
            Shutdown::Abort => st.phase = Phase::Stopped,
        }
        st.paused = false;
        drop(st);
        self.shared.work_cv.notify_all();
    }
}

/// Builds the workspace CSV framing kernel and its byte-identical
/// software reference (the pair the fault harness pins to each other).
pub fn csv_kernel() -> Result<(Arc<ProgramImage>, Arc<dyn ReferenceFallback>), ServeError> {
    let pb = udp_compilers::csv::csv_to_udp();
    let mut banks = 1;
    let image = loop {
        match pb.assemble(&LayoutOptions::with_banks(banks)) {
            Ok(img) => break img,
            Err(_) if banks < NUM_BANKS => banks *= 2,
            Err(e) => {
                return Err(ServeError::Internal {
                    detail: format!("csv kernel failed to assemble: {e:?}"),
                })
            }
        }
    };
    let fallback = csv_fallback();
    Ok((Arc::new(image), fallback))
}

/// The byte-identical software reference for the CSV framing kernel.
fn csv_fallback() -> Arc<dyn ReferenceFallback> {
    Arc::new(udp_codecs::fallback::CsvFramingFallback {
        delimiter: b',',
        quote: b'"',
        field_sep: udp_compilers::FIELD_SEP,
        record_sep: udp_compilers::RECORD_SEP,
    })
}

/// Resolves a journaled fallback tag back to its builtin
/// implementation at replay time. Tags are `ReferenceFallback::name()`
/// values; an unknown tag restores the kernel without a fallback rung
/// (degraded but serving) rather than dropping it.
fn builtin_fallback(tag: &str) -> Option<Arc<dyn ReferenceFallback>> {
    match tag {
        "csv-framing" => Some(csv_fallback()),
        _ => None,
    }
}

/// The CSV framing kernel as a durable store artifact: its canonical
/// source text is built (or loaded) through `store`, so the verified
/// image round-trips the artifact format and a
/// [`ServeHandle::register_artifact`] registration survives warm
/// restarts. Returns the artifact plus the byte-identical software
/// reference fallback.
pub fn csv_kernel_artifact(
    store: &ArtifactStore,
) -> Result<(udp_store::Artifact, Arc<dyn ReferenceFallback>), ServeError> {
    let pb = udp_compilers::csv::csv_to_udp();
    let source = udp_asm::emit_asm(&pb);
    let mut banks = 1;
    let artifact = loop {
        match store.get_or_build(&source, &LayoutOptions::with_banks(banks)) {
            Ok(a) => break a,
            Err(_) if banks < NUM_BANKS => banks *= 2,
            Err(e) => {
                return Err(ServeError::Store {
                    detail: e.to_string(),
                })
            }
        }
    };
    Ok((artifact, csv_fallback()))
}

/// Applies one replayed journal record to the fresh runtime state.
/// Mirrors the live mutation paths exactly — same entry-creation
/// semantics, same saturating arithmetic — so a replayed service is
/// indistinguishable at admission time from one that never stopped.
fn apply_record(
    st: &mut State,
    store: &ArtifactStore,
    default_quota: &TenantQuota,
    rec: &JournalRecord,
) {
    match rec {
        JournalRecord::RegisterKernel {
            name,
            source,
            layout,
            fallback,
        } => match store.get_or_build(source, layout) {
            Ok(artifact) => {
                let fallback = fallback.as_deref().and_then(builtin_fallback);
                st.kernels.insert(
                    name.clone(),
                    KernelSpec {
                        kernel: prepare_artifact(&artifact),
                        banks_per_lane: artifact.banks_per_lane,
                        fallback,
                    },
                );
            }
            Err(e) => {
                st.stats.kernels_dropped += 1;
                eprintln!("udp-serve: kernel `{name}` dropped at warm restart: {e}");
            }
        },
        JournalRecord::SetQuota {
            tenant,
            max_queued,
            cycle_budget,
        } => {
            let quota = TenantQuota {
                max_queued: *max_queued as usize,
                cycle_budget: *cycle_budget,
            };
            match st.tenants.entry(tenant.clone()) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().quota = quota;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(TenantState::new(quota));
                }
            }
        }
        JournalRecord::Charge { tenant, cycles } => {
            let t = st
                .tenants
                .entry(tenant.clone())
                .or_insert_with(|| TenantState::new(default_quota.clone()));
            t.cycles_used = t.cycles_used.saturating_add(*cycles);
        }
        JournalRecord::Strike { tenant } => {
            let t = st
                .tenants
                .entry(tenant.clone())
                .or_insert_with(|| TenantState::new(default_quota.clone()));
            t.strikes += 1;
        }
        JournalRecord::Quarantine { tenant } => {
            let t = st
                .tenants
                .entry(tenant.clone())
                .or_insert_with(|| TenantState::new(default_quota.clone()));
            if !t.quarantined {
                t.quarantined = true;
                st.stats.tenants_quarantined += 1;
            }
        }
        JournalRecord::Release { tenant } => {
            if let Some(t) = st.tenants.get_mut(tenant) {
                if t.quarantined {
                    t.quarantined = false;
                    t.strikes = 0;
                    st.stats.tenants_quarantined = st.stats.tenants_quarantined.saturating_sub(1);
                }
            }
        }
        JournalRecord::Refill { tenant, cycles } => {
            if let Some(t) = st.tenants.get_mut(tenant) {
                t.cycles_used = t.cycles_used.saturating_sub(*cycles);
            }
        }
    }
}

/// The scheduler: wait for work, form a same-kernel wave, run it under
/// the supervisor, deliver results. One thread — the device is one
/// device; host-level parallelism lives inside the wave (the lane
/// pool), not across waves. The scheduler keeps that one device for
/// its lifetime: a local-addressing run never reads what an earlier
/// wave left in device memory, so a reused device reports exactly what
/// a fresh one would.
fn scheduler_loop(shared: &Shared) {
    let mut udp = Udp::new();
    loop {
        let wave = {
            let mut st = shared.lock();
            loop {
                match st.phase {
                    Phase::Running => {
                        if !st.paused && !st.queue.is_empty() {
                            break;
                        }
                        st = shared
                            .work_cv
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Phase::Draining => {
                        if st.queue.is_empty() {
                            st.phase = Phase::Stopped;
                            return;
                        }
                        break;
                    }
                    Phase::Stopped => {
                        flush_queue(&mut st);
                        return;
                    }
                }
            }
            form_wave(&mut st, shared.config.max_wave)
        };
        let Some((kernel, jobs)) = wave else { continue };
        // A panic unwinding out of wave execution is a scheduler bug;
        // contain it and complete the wave's jobs with a typed error so
        // no client hangs on our bugs either and the service keeps
        // serving. Senders are cloned up front because the panicking
        // closure consumes the jobs; a job the wave already delivered
        // to just gets a second message its consumed ticket never reads.
        let txs: Vec<mpsc::Sender<JobResult>> = jobs.iter().map(|j| j.tx.clone()).collect();
        let wave = AssertUnwindSafe(|| run_wave(shared, &mut udp, &kernel, jobs));
        if let Err(payload) = catch_unwind(wave) {
            // The panic may have cut a copy-back short, leaving the
            // device's zero marks stale: start over on a fresh device.
            udp = Udp::new();
            let detail = panic_message(payload.as_ref());
            eprintln!("udp-serve: contained scheduler panic: {detail}");
            for tx in txs {
                let _ = tx.send(Err(ServeError::Internal {
                    detail: detail.clone(),
                }));
            }
        }
    }
}

/// Completes every queued job with `ShuttingDown` (abort path).
fn flush_queue(st: &mut State) {
    while let Some(job) = st.queue.pop_front() {
        if let Some(t) = st.tenants.get_mut(&job.tenant) {
            t.queued = t.queued.saturating_sub(1);
        }
        if job.tx.send(Err(ServeError::ShuttingDown)).is_err() {
            st.stats.results_dropped += 1;
        }
    }
}

/// Pops the front job plus up to `max_wave - 1` more jobs for the same
/// kernel (scanning the whole queue — kernels interleave in submission
/// order but a wave is one program image). Tenant queued counts drop
/// here: the jobs are now the wave's responsibility.
fn form_wave(st: &mut State, max_wave: usize) -> Option<(KernelSpec, Vec<PendingJob>)> {
    let front = st.queue.pop_front()?;
    let kernel_name = front.kernel.clone();
    let mut jobs = vec![front];
    let mut i = 0;
    while i < st.queue.len() && jobs.len() < max_wave.max(1) {
        if st.queue[i].kernel == kernel_name {
            if let Some(job) = st.queue.remove(i) {
                jobs.push(job);
                continue; // index i now holds the next element
            }
        }
        i += 1;
    }
    for job in &jobs {
        if let Some(t) = st.tenants.get_mut(&job.tenant) {
            t.queued = t.queued.saturating_sub(1);
        }
    }
    let Some(kernel) = st.kernels.get(&kernel_name).cloned() else {
        // Unregistered mid-flight (not currently possible, but never
        // hang a client over it).
        for job in jobs {
            let name = kernel_name.clone();
            if job
                .tx
                .send(Err(ServeError::UnknownKernel { name }))
                .is_err()
            {
                st.stats.results_dropped += 1;
            }
        }
        return None;
    };
    Some((kernel, jobs))
}

/// Milliseconds from `now` until `deadline`, zero if passed.
fn remaining_ms(now: Instant, deadline: Instant) -> u64 {
    deadline.saturating_duration_since(now).as_millis() as u64
}

fn waited_ms(job: &PendingJob, now: Instant) -> u64 {
    now.saturating_duration_since(job.accepted_at).as_millis() as u64
}

/// Executes one wave end to end: dispatch-time shedding, the device
/// run under the supervisor ladder, per-job outcome mapping, tenant
/// accounting, and result delivery.
fn run_wave(shared: &Shared, udp: &mut Udp, kernel: &KernelSpec, jobs: Vec<PendingJob>) {
    let cfg = &shared.config;
    let now = Instant::now();

    // Dispatch-time shedding: stale deadlines and tenants quarantined
    // since admission never reach the device.
    let mut runnable: Vec<PendingJob> = Vec::with_capacity(jobs.len());
    {
        let mut st = shared.lock();
        for job in jobs {
            let quarantined = st
                .tenants
                .get(&job.tenant)
                .map(|t| (t.quarantined, t.strikes))
                .filter(|(q, _)| *q);
            if let Some((_, strikes)) = quarantined {
                st.stats.rejected_quarantined += 1;
                deliver(
                    &mut st,
                    &job.tx,
                    Err(ServeError::TenantQuarantined { strikes }),
                );
                continue;
            }
            if let Some(dl) = job.deadline {
                if now >= dl {
                    st.stats.shed_deadline += 1;
                    let waited = waited_ms(&job, now);
                    deliver(
                        &mut st,
                        &job.tx,
                        Err(ServeError::DeadlineExceeded { waited_ms: waited }),
                    );
                    continue;
                }
            }
            runnable.push(job);
        }
    }
    if runnable.is_empty() {
        return;
    }

    // Per-job cycle clamps: the deadline's remaining wall time converted
    // to cycles. The wave cap is the *loosest* clamp so no job is
    // starved by a sibling's deadline; each job's own clamp is enforced
    // after the run.
    let base_cap = cfg.lane.max_cycles;
    let mut wave_cap = 0u64;
    let mut chaos: Option<ChaosSpec> = None;
    let mut clamps: Vec<Option<u64>> = Vec::with_capacity(runnable.len());
    for job in &runnable {
        let clamp = match (job.deadline, cfg.cycles_per_ms) {
            (Some(dl), cpm) if cpm > 0 => {
                Some(remaining_ms(now, dl).saturating_mul(cpm).clamp(1, base_cap))
            }
            _ => None,
        };
        // A complete resource certificate bounds every clean run of
        // this kernel, so the certified cost also caps the job's share
        // of the wave: cutting off at the bound can never cancel a
        // legitimate run, only a soundness violation (DESIGN.md §9.1).
        let cert_cap = kernel
            .kernel
            .image()
            .cert
            .as_ref()
            .and_then(|c| c.cycle_bound(job.payload.len()))
            .map_or(base_cap, |b| b.clamp(1, base_cap));
        wave_cap = wave_cap.max(clamp.unwrap_or(base_cap).min(cert_cap));
        clamps.push(clamp);
        if chaos.is_none() {
            chaos = job.chaos;
        }
    }
    let chaos = chaos.unwrap_or_default();
    let lane = LaneConfig {
        max_cycles: wave_cap,
        chaos_fault_at: chaos.fault_at,
        chaos_panic_at: chaos.panic_at,
        chaos_transient: chaos.transient,
        ..cfg.lane.clone()
    };
    let opts = UdpRunOptions {
        banks_per_lane: kernel.banks_per_lane,
        lane,
        parallel: cfg.parallel,
        verify: false, // verified once at registration
        supervise: Some(SupervisorOptions {
            fallback: kernel.fallback.clone(),
            ..cfg.supervisor.clone()
        }),
        backend: shared.backend,
        ..UdpRunOptions::default()
    };
    let inputs: Vec<&[u8]> = runnable.iter().map(|j| j.payload.as_slice()).collect();
    let staging = Staging::default();
    // The kernel was prepared once at registration; every wave of
    // every job reuses its predecoded and compiled tables, on the
    // scheduler's one device.
    let report = udp.run(&kernel.kernel, &inputs, &staging, &opts);

    let done = Instant::now();
    let mut st = shared.lock();
    st.stats.waves += 1;
    let mut report = match report {
        Ok(rep) => rep,
        Err(e) => {
            // Pre-flight refusal (cannot happen for registered kernels;
            // typed either way).
            for job in runnable {
                deliver(&mut st, &job.tx, Err(ServeError::Sim(e.clone())));
            }
            return;
        }
    };

    for (i, job) in runnable.into_iter().enumerate() {
        let lane_rep = &report.lanes[i];
        let cycles = lane_rep.cycles;
        // Quota accounting: modeled cycles, charged to the tenant.
        st.stats.bytes_in += job.payload.len() as u64;
        st.stats.cycles += cycles;
        if let Some(t) = st.tenants.get_mut(&job.tenant) {
            t.cycles_used = t.cycles_used.saturating_add(cycles);
            shared.journal_append(&JournalRecord::Charge {
                tenant: job.tenant.clone(),
                cycles,
            });
        }
        // Deadline enforcement at completion: a late result is dropped,
        // and a run cancelled by its deadline-derived cycle clamp is a
        // deadline miss, not a tenant fault.
        let clamp = clamps[i];
        let deadline_missed = match job.deadline {
            Some(dl) => done >= dl || clamp.is_some_and(|c| cycles >= c),
            None => false,
        };
        let deadline_cancelled = clamp.is_some_and(|c| c < base_cap)
            && matches!(
                &lane_rep.status,
                udp_sim::LaneStatus::Fault(FaultKind::CycleBudget { .. })
            );
        if deadline_missed || deadline_cancelled {
            st.stats.shed_deadline += 1;
            let waited = waited_ms(&job, done);
            deliver(
                &mut st,
                &job.tx,
                Err(ServeError::DeadlineExceeded { waited_ms: waited }),
            );
            continue;
        }
        // Move the lane's output out of the report instead of cloning
        // it — this is the submit path's last deep copy of job data.
        let output = std::mem::take(&mut report.lanes[i].output);
        let result = match &report.health.outcomes[i] {
            ChunkOutcome::Clean => Ok(JobOutput {
                output,
                cycles,
                outcome: JobOutcome::Clean,
            }),
            ChunkOutcome::Recovered { attempts } => Ok(JobOutput {
                output,
                cycles,
                outcome: JobOutcome::Recovered {
                    attempts: *attempts,
                },
            }),
            ChunkOutcome::Fallback => Ok(JobOutput {
                output,
                cycles,
                outcome: JobOutcome::Fallback,
            }),
            ChunkOutcome::Quarantined(reason) => {
                // A poisoned chunk: strike the tenant, and past the
                // strike limit quarantine the tenant itself.
                st.stats.quarantined_jobs += 1;
                if let Some(t) = st.tenants.get_mut(&job.tenant) {
                    t.strikes += 1;
                    shared.journal_append(&JournalRecord::Strike {
                        tenant: job.tenant.clone(),
                    });
                    if !t.quarantined && t.strikes >= shared.config.quarantine_strikes.max(1) {
                        t.quarantined = true;
                        st.stats.tenants_quarantined += 1;
                        shared.journal_append(&JournalRecord::Quarantine {
                            tenant: job.tenant.clone(),
                        });
                    }
                }
                Err(ServeError::JobQuarantined {
                    fault: reason.fault.name().to_string(),
                })
            }
        };
        if result.is_ok() {
            st.stats.completed += 1;
        }
        deliver(&mut st, &job.tx, result);
    }
}

/// Sends a result; a hung-up client (dropped ticket) is counted, not
/// an error — mid-job disconnects are business as usual for a service.
fn deliver(st: &mut State, tx: &mpsc::Sender<JobResult>, result: JobResult) {
    if tx.send(result).is_err() {
        st.stats.results_dropped += 1;
    }
}

/// Human-readable message from a contained panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn defaults_are_valid() {
        let cfg = ServeConfig::default();
        assert!(cfg.supervisor.validate().is_ok());
        assert!(cfg.queue_capacity > 0);
        assert!(cfg.max_wave >= 1);
    }

    #[test]
    fn csv_kernel_builds_and_verifies() {
        let (image, fallback) = csv_kernel().expect("builtin kernel");
        assert!(image.executable);
        assert_eq!(fallback.name(), "csv-framing");
    }

    #[test]
    fn remaining_ms_saturates() {
        let now = Instant::now();
        assert_eq!(remaining_ms(now + Duration::from_secs(1), now), 0);
        assert!(remaining_ms(now, now + Duration::from_millis(50)) <= 50);
    }
}
