//! Service-runtime contracts (DESIGN.md §10): typed admission control,
//! quota enforcement, deadline shedding, per-tenant quarantine, and the
//! exactly-once delivery guarantee through drain and abort shutdowns.

use std::sync::Arc;
use std::time::Duration;
use udp_serve::{
    ChaosSpec, JobOutcome, JobSpec, OverloadScope, ServeConfig, ServeError, ServeRuntime, Shutdown,
    TenantQuota,
};
use udp_sim::SimError;

fn small_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4,
        max_wave: 4,
        parallel: false,
        default_quota: TenantQuota {
            max_queued: 2,
            cycle_budget: None,
        },
        ..ServeConfig::default()
    }
}

fn csv_job(tenant: &str, payload: &[u8]) -> JobSpec {
    JobSpec::new(tenant, "csv", payload.to_vec())
}

#[test]
fn jobs_complete_with_kernel_output() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    let t = handle.submit(csv_job("alice", b"a,b\n")).unwrap();
    let out = t.wait().unwrap();
    assert_eq!(out.output, b"a\x1fb\x1f\x1e");
    assert_eq!(out.outcome, JobOutcome::Clean);
    assert!(out.cycles > 0);
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.accepted, 1);
}

#[test]
fn unknown_kernel_and_post_shutdown_submissions_are_typed() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    match handle.submit(csv_job("alice", b"x").kernel("nope")) {
        Err(ServeError::UnknownKernel { name }) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownKernel, got {other:?}"),
    }
    handle.begin_shutdown(Shutdown::Drain);
    match handle.submit(csv_job("alice", b"x,y\n")) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

trait SpecExt {
    fn kernel(self, k: &str) -> JobSpec;
}

impl SpecExt for JobSpec {
    fn kernel(mut self, k: &str) -> JobSpec {
        self.kernel = k.to_string();
        self
    }
}

#[test]
fn bounded_queues_shed_with_typed_overload() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    // Tenant bound (2) fires first for a single tenant.
    let _a = handle.submit(csv_job("greedy", b"1\n")).unwrap();
    let _b = handle.submit(csv_job("greedy", b"2\n")).unwrap();
    match handle.submit(csv_job("greedy", b"3\n")) {
        Err(ServeError::Overloaded {
            scope: OverloadScope::Tenant,
            queued: 2,
            capacity: 2,
        }) => {}
        other => panic!("expected tenant Overloaded, got {other:?}"),
    }
    // Fill the global queue (capacity 4) with other tenants.
    let _c = handle.submit(csv_job("t1", b"4\n")).unwrap();
    let _d = handle.submit(csv_job("t2", b"5\n")).unwrap();
    match handle.submit(csv_job("t3", b"6\n")) {
        Err(ServeError::Overloaded {
            scope: OverloadScope::Queue,
            queued: 4,
            capacity: 4,
        }) => {}
        other => panic!("expected queue Overloaded, got {other:?}"),
    }
    handle.resume();
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.shed_overload, 2);
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 4);
}

#[test]
fn cycle_quota_exhausts_and_refills() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    // The csv kernel is certified, so admission reserves the certified
    // worst case up front: a budget covering exactly one job admits the
    // first submission and refuses the second by forecast.
    let cert = handle.kernel_cert("csv").expect("csv kernel is certified");
    let bound = cert.cycle_bound(4).expect("complete certificate");
    let budget = bound + 1;
    handle.set_quota(
        "metered",
        TenantQuota {
            max_queued: 8,
            cycle_budget: Some(budget),
        },
    );
    handle
        .submit(csv_job("metered", b"a,b\n"))
        .unwrap()
        .wait()
        .unwrap();
    let used = match handle.submit(csv_job("metered", b"c,d\n")) {
        Err(ServeError::QuotaExhausted { used, budget: b }) if b == budget => used,
        other => panic!("expected QuotaExhausted, got {other:?}"),
    };
    // Actual usage is charged, and it respects the certified bound.
    assert!(used >= 1);
    assert!(used <= bound);
    // An operator refill restores service.
    handle.refill_quota("metered", used);
    handle
        .submit(csv_job("metered", b"c,d\n"))
        .unwrap()
        .wait()
        .unwrap();
    rt.shutdown(Shutdown::Drain);
}

#[test]
fn expired_deadlines_shed_and_outputs_are_never_delivered_late() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    let doomed = handle
        .submit(csv_job("d", b"x,y\n").with_deadline(Duration::from_millis(1)))
        .unwrap();
    let healthy = handle
        .submit(csv_job("d", b"x,y\n").with_deadline(Duration::from_secs(60)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    handle.resume();
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { waited_ms }) => assert!(waited_ms >= 1),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(healthy.wait().unwrap().output, b"x\x1fy\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn deadline_shedding_is_not_a_tenant_strike() {
    let rt = ServeRuntime::start_with_builtin_kernels(ServeConfig {
        quarantine_strikes: 1,
        ..small_config()
    })
    .unwrap();
    let handle = rt.handle();
    handle.pause();
    let doomed = handle
        .submit(csv_job("hurried", b"x,y\n").with_deadline(Duration::from_millis(1)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    handle.resume();
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    // The tenant keeps full service: a missed deadline is the queue's
    // fault, not a poison kernel.
    let out = handle.submit(csv_job("hurried", b"x,y\n")).unwrap().wait();
    assert_eq!(out.unwrap().output, b"x\x1fy\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.tenants_quarantined, 0);
}

#[test]
fn poison_tenant_quarantines_alone() {
    let rt = ServeRuntime::start_with_builtin_kernels(ServeConfig {
        quarantine_strikes: 1,
        ..small_config()
    })
    .unwrap();
    let handle = rt.handle();
    // A fallback-less copy of the kernel: persistent chaos has no
    // second rung, so the ladder ends in quarantine.
    let (image, _) = udp_serve::csv_kernel().unwrap();
    handle.register_kernel("csv-raw", image, None).unwrap();
    handle.pause();
    let clean = handle.submit(csv_job("innocent", b"k,v\n")).unwrap();
    let long = udp_workloads::lineitem_csv(1024, 7);
    let mut poison = JobSpec::new("poison", "csv-raw", long);
    poison.chaos = Some(ChaosSpec {
        fault_at: Some(300),
        panic_at: None,
        transient: false,
    });
    let poison_ticket = handle.submit(poison).unwrap();
    handle.resume();

    match poison_ticket.wait() {
        Err(ServeError::JobQuarantined { fault }) => assert_eq!(fault, "chaos-injected"),
        other => panic!("expected JobQuarantined, got {other:?}"),
    }
    assert_eq!(clean.wait().unwrap().output, b"k\x1fv\x1f\x1e");
    // The offender is out...
    match handle.submit(csv_job("poison", b"x,y\n")) {
        Err(ServeError::TenantQuarantined { strikes: 1 }) => {}
        other => panic!("expected TenantQuarantined, got {other:?}"),
    }
    // ...until an operator releases it.
    handle.release_quarantine("poison");
    let out = handle.submit(csv_job("poison", b"x,y\n")).unwrap().wait();
    assert_eq!(out.unwrap().output, b"x\x1fy\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.quarantined_jobs, 1);
    assert_eq!(stats.tenants_quarantined, 0, "released");
}

#[test]
fn transient_chaos_recovers_on_the_retry_rung() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    let long = udp_workloads::lineitem_csv(1024, 9);
    let mut spec = JobSpec::new("flaky", "csv", long);
    spec.chaos = Some(ChaosSpec {
        fault_at: Some(300),
        panic_at: None,
        transient: true,
    });
    match rt.handle().submit(spec).unwrap().wait() {
        Ok(out) => assert!(matches!(out.outcome, JobOutcome::Recovered { .. })),
        other => panic!("expected a recovered output, got {other:?}"),
    }
    // The tenant is unscathed.
    assert!(handle.submit(csv_job("flaky", b"x,y\n")).is_ok());
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.tenants_quarantined, 0);
}

#[test]
fn drain_completes_queued_jobs_and_abort_sheds_them() {
    // Drain: queued jobs still execute.
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    let t1 = handle.submit(csv_job("a", b"1,2\n")).unwrap();
    let t2 = handle.submit(csv_job("b", b"3,4\n")).unwrap();
    handle.begin_shutdown(Shutdown::Drain);
    assert_eq!(t1.wait().unwrap().output, b"1\x1f2\x1f\x1e");
    assert_eq!(t2.wait().unwrap().output, b"3\x1f4\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed, 2);

    // Abort: queued jobs complete with ShuttingDown — typed, never
    // hung, exactly once.
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    let t1 = handle.submit(csv_job("a", b"1,2\n")).unwrap();
    let t2 = handle.submit(csv_job("b", b"3,4\n")).unwrap();
    let stats = rt.shutdown(Shutdown::Abort);
    assert!(matches!(t1.wait(), Err(ServeError::ShuttingDown)));
    assert!(matches!(t2.wait(), Err(ServeError::ShuttingDown)));
    assert_eq!(stats.completed, 0);
}

#[test]
fn dropped_tickets_are_counted_not_fatal() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    handle.pause();
    drop(handle.submit(csv_job("gone", b"1,2\n")).unwrap());
    let kept = handle.submit(csv_job("here", b"3,4\n")).unwrap();
    handle.resume();
    assert_eq!(kept.wait().unwrap().output, b"3\x1f4\x1f\x1e");
    let stats = rt.shutdown(Shutdown::Drain);
    assert_eq!(stats.results_dropped, 1);
    assert_eq!(stats.completed, 2, "the abandoned job still executed");
}

#[test]
fn invalid_supervisor_template_fails_startup() {
    let cfg = ServeConfig {
        supervisor: udp_sim::SupervisorOptions {
            backoff_base_ms: 10,
            backoff_cap_ms: 1,
            ..udp_sim::SupervisorOptions::default()
        },
        ..ServeConfig::default()
    };
    match ServeRuntime::start(cfg).map(|_| ()) {
        Err(ServeError::Sim(SimError::SupervisorConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 1,
        })) => {}
        other => panic!("expected SupervisorConfig rejection, got {other:?}"),
    }
}

#[test]
fn kernel_registration_refuses_non_executable_images() {
    let rt = ServeRuntime::start(ServeConfig::default()).unwrap();
    let handle = rt.handle();
    let (image, _) = udp_serve::csv_kernel().unwrap();
    // A size-model-only layout is refused at registration — a service
    // never loads what the simulator would reject at dispatch.
    let mut broken = (*image).clone();
    broken.executable = false;
    match handle.register_kernel("bad", Arc::new(broken), None) {
        Err(ServeError::Sim(SimError::NotExecutable)) => {}
        other => panic!("expected Sim(NotExecutable), got {other:?}"),
    }
    handle.register_kernel("good", image, None).unwrap();
    rt.shutdown(Shutdown::Abort);
}

#[test]
fn stats_account_for_bytes_and_cycles() {
    let rt = ServeRuntime::start_with_builtin_kernels(small_config()).unwrap();
    let handle = rt.handle();
    let out = handle
        .submit(csv_job("t", b"a,b\n"))
        .unwrap()
        .wait()
        .unwrap();
    let stats = handle.stats();
    assert_eq!(stats.bytes_in, 4);
    assert_eq!(stats.cycles, out.cycles);
    assert!(stats.waves >= 1);
    rt.shutdown(Shutdown::Drain);
}

/// Counts input bytes in R2, emits the count's low byte, and stores it
/// at window byte `offset` on every byte at or above 200. Bytes below
/// 200 step to the next of `states` dense states, which spread the
/// code over `states` × ~257 words.
fn far_writer(offset: u16, states: usize) -> Arc<udp_asm::ProgramImage> {
    use udp_asm::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::{Action, Opcode};
    use udp_isa::Reg;
    let (r1, r2) = (Reg::new(1), Reg::new(2));
    let mut b = ProgramBuilder::new();
    let ids: Vec<_> = (0..states).map(|_| b.add_consuming_state()).collect();
    b.set_entry(ids[0]);
    for (i, &s) in ids.iter().enumerate() {
        let next = ids[(i + 1) % states];
        for sym in 0..200u16 {
            b.labeled_arc(s, sym, Target::State(next), vec![]);
        }
        b.fallback_arc(
            s,
            Target::State(s),
            vec![
                Action::imm(Opcode::AddI, r2, r2, 1),
                Action::imm(Opcode::EmitB, Reg::R0, r2, 0),
                Action::imm(Opcode::MovI, r1, Reg::R0, offset),
                Action::imm(Opcode::StoreW, r1, r2, 0),
            ],
        );
    }
    Arc::new(b.assemble(&LayoutOptions::with_banks(2)).unwrap())
}

#[test]
fn a_reused_scheduler_device_reports_what_a_fresh_device_would() {
    use udp_isa::mem::BANK_WORDS;
    use udp_sim::{ChunkOutcome, ExecBackend, PreparedKernel, Staging, SupervisorOptions, Udp};
    use udp_sim::{UdpRunOptions, UdpRunReport};
    // "narrow" fits one bank and writes near its top; "wide" needs two
    // and writes into its second.
    let kernels = [
        ("narrow", far_writer(15_000, 1)),
        ("wide", far_writer(30_000, 20)),
    ];
    assert!(kernels[0].1.stats.span_words <= BANK_WORDS);
    assert!((BANK_WORDS + 1..=2 * BANK_WORDS).contains(&kernels[1].1.stats.span_words));
    for backend in [ExecBackend::Interpreter, ExecBackend::Compiled] {
        let rt = ServeRuntime::start(ServeConfig {
            max_wave: 8,
            backend: Some(backend),
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = rt.handle();
        for (name, image) in &kernels {
            handle
                .register_kernel(*name, Arc::clone(image), None)
                .unwrap();
        }
        // Each kernel alone on a fresh device, as registered.
        let alone = |k: usize, payload: &[u8]| -> UdpRunReport {
            let (name, image) = &kernels[k];
            let mut image = (**image).clone();
            image.cert = handle.kernel_cert(name);
            let opts = UdpRunOptions {
                banks_per_lane: k + 1,
                supervise: Some(SupervisorOptions::default()),
                backend,
                ..UdpRunOptions::default()
            };
            Udp::new()
                .run(
                    &PreparedKernel::new(Arc::new(image)),
                    &[payload],
                    &Staging::default(),
                    &opts,
                )
                .unwrap()
        };
        let mut emitted = 0;
        for round in 0..8usize {
            let k = round % 2;
            let payloads: Vec<Vec<u8>> = (0..1 + round % 5)
                .map(|j| (0..3 + 7 * j + round).map(|x| (x * 37 + j) as u8).collect())
                .collect();
            // One wave per round: queue every job before the scheduler
            // looks.
            handle.pause();
            let tickets: Vec<_> = payloads
                .iter()
                .map(|p| {
                    let spec = JobSpec::new("t", kernels[k].0, p.clone());
                    handle.submit(spec).unwrap()
                })
                .collect();
            handle.resume();
            for (ticket, payload) in tickets.into_iter().zip(&payloads) {
                let out = ticket.wait().unwrap();
                let want = alone(k, payload);
                assert_eq!(want.health.outcomes, vec![ChunkOutcome::Clean]);
                assert_eq!(out.outcome, JobOutcome::Clean, "{backend:?} round {round}");
                assert_eq!(
                    out.output, want.lanes[0].output,
                    "{backend:?} round {round}"
                );
                assert_eq!(
                    out.cycles, want.lanes[0].cycles,
                    "{backend:?} round {round}"
                );
                emitted += out.output.len();
            }
        }
        assert!(emitted > 0);
        assert_eq!(handle.stats().waves, 8);
        rt.shutdown(Shutdown::Drain);
    }
}
