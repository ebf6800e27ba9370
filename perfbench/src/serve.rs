//! The serve workloads: the `csv` kernel behind a `ServeRuntime`.
//!
//! `serve-open` drives the in-process handle from four tenants with a
//! mix of short rows and 8 KiB chunks: backlogs released as full waves
//! measure saturation throughput, then an open loop at a fixed rate
//! measures latency from each job's scheduled send. `serve-journaled`
//! serves short rows over the Unix socket to one closed-loop client
//! from a journaled runtime built on a fresh artifact store, with one
//! warm restart in the middle: the only workload that loads wire,
//! socket, journal and store.
//!
//! Their `jobs_s` is the upper quartile of per-operation rates by CPU
//! time (per backlog, per job). Each operation runs on several threads,
//! so time the hypervisor takes from either vCPU stretches most of
//! them; the upper quartile holds the ones it spared.
//!
//! Both also time the device calls the runtime would make for the same
//! traffic (one `Udp` per wave, the kernel's shared predecoded table),
//! per backend, which gives the device share of a served job.

use crate::corpus::{self, CallSet, Expect, Program};
use crate::device;
use crate::measure::{
    call_p50_ms, cpu_seconds, geomean, median, percentile, pool_speedup, resident, site_cost,
    sliced_rate, Rng, Sheet, Spread, Timeline, Tracer,
};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use udp_serve::{
    JobOutcome, JobOutput, JobSpec, JobTicket, Request, ServeClient, ServeConfig, ServeHandle,
    ServeRuntime, ServeStats, Shutdown, SocketConfig, SocketServer,
};
use udp_sim::energy::UDP_CLOCK_GHZ;
use udp_sim::{ExecBackend, Staging, Udp, UdpRunOptions};
use udp_store::ArtifactStore;

/// Jobs queued per backlog of the saturation phase: the runtime's
/// default `max_wave`, 16 per tenant (under the default per-tenant
/// queue bound of 64).
const BACKLOG: usize = 64;
/// Offered rate of the open-loop phase, jobs per second. Arriving one
/// at a time, jobs mostly run in waves of one, and a one-job wave took
/// 0.3-0.45 ms (open-loop p50 on a 2-vCPU shared VM), so waves of one
/// saturate near 2,200-3,300 jobs/s: this rate is 30-45% of that. The
/// backlog phase, in waves of 64, reached 34,000-38,000 jobs per CPU
/// second there; a rate near it would shed jobs.
const OPEN_RATE: f64 = 1_000.0;
/// Open-loop latency limit, about 25 times the one-job wave's p50 above;
/// jobs over it are counted in `serve.over_limit`.
const LATENCY_LIMIT_MS: f64 = 10.0;
const TENANTS: usize = 4;
/// Payloads generated per run, cycled through.
const MIX_LEN: usize = 2048;
/// Jobs the device-call probe cycles through, in batches of one wave:
/// enough that the rates do not hang on a few rows the seed drew.
const PROBE_JOBS: usize = 160;
/// Time slices the saturation phase's wall rate is taken over.
const SLICES: usize = 10;
const ROW_BYTES: usize = 128;
const CHUNK_BYTES: usize = 8 * 1024;

/// One job's input and the CPU framing reference of its output.
struct Payload {
    bytes: Vec<u8>,
    expect: Vec<u8>,
}

/// The job mix: every fifth job an 8 KiB chunk when `chunks` is set,
/// the others short rows.
fn mix(seed: u64, chunks: bool) -> Vec<Payload> {
    let mut rng = Rng::new(seed);
    let text = udp_workloads::crimes_csv(MIX_LEN * 1200, rng.next_u64());
    let lines: Vec<&[u8]> = text
        .split_inclusive(|&b| b == b'\n')
        .skip(1) // header
        .collect();
    let mut out = Vec::with_capacity(MIX_LEN);
    for i in 0..MIX_LEN {
        let want = if chunks && i % 5 == 4 {
            CHUNK_BYTES
        } else {
            ROW_BYTES
        };
        let mut bytes = Vec::with_capacity(want + 128);
        let mut at = rng.below(lines.len());
        while bytes.len() < want * 3 / 4 {
            bytes.extend_from_slice(lines[at]);
            at = (at + 1) % lines.len();
        }
        let expect = udp_compilers::csv::baseline_framing(&bytes);
        out.push(Payload { bytes, expect });
    }
    out
}

fn config() -> ServeConfig {
    ServeConfig {
        backend: Some(ExecBackend::Compiled),
        parallel: true,
        ..ServeConfig::default()
    }
}

fn check_output(result: Result<JobOutput, String>, want: &[u8]) -> Result<(), String> {
    match result {
        Ok(out) if out.output == want && out.outcome == JobOutcome::Clean => Ok(()),
        Ok(out) if out.output == want => Err(format!("job recovered as {:?}", out.outcome)),
        Ok(_) => Err("job output differs from the CPU csv framing".into()),
        Err(e) => Err(e),
    }
}

fn ms(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|s| s * 1e3).collect()
}

/// Adds the stats-derived per-layer counters.
fn put_stats(sheet: &mut Sheet, st: &ServeStats) {
    sheet.put("serve.waves", st.waves as f64, "count", 1);
    sheet.put(
        "serve.jobs_per_wave",
        st.completed as f64 / st.waves.max(1) as f64,
        "jobs",
        st.waves as usize,
    );
    sheet.put(
        "serve.shed",
        (st.shed_overload + st.shed_deadline) as f64,
        "count",
        1,
    );
    sheet.put(
        "serve.rejected",
        (st.rejected_quota + st.rejected_quarantined + st.rejected_other) as f64,
        "count",
        1,
    );
}

/// Per-layer serve latencies from the submit and result spans.
fn put_serve_spans(sheet: &mut Sheet, tracer: &Tracer) {
    let submit: Vec<f64> = tracer
        .durations("serve.submit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let result = ms(&tracer.durations("serve.result"));
    sheet.put(
        "serve.submit_us_p50",
        percentile(&submit, 0.5),
        "us",
        submit.len(),
    );
    sheet.put(
        "serve.submit_us_p99",
        percentile(&submit, 0.99),
        "us",
        submit.len(),
    );
    sheet.put(
        "serve.result_ms_p50",
        percentile(&result, 0.5),
        "ms",
        result.len(),
    );
    sheet.put(
        "serve.result_ms_p99",
        percentile(&result, 0.99),
        "ms",
        result.len(),
    );
}

/// The kernel as the runtime holds it, for the device-call probe.
fn kernel_program(handle: &ServeHandle) -> Result<Program, String> {
    let (image, _) = udp_serve::csv_kernel().map_err(|e| e.to_string())?;
    let mut image = (*image).clone();
    image.cert = handle.kernel_cert("csv");
    Ok(Program {
        name: "csv".into(),
        image: Arc::new(image),
    })
}

/// Times device calls of the workload's first `PROBE_JOBS` jobs, in
/// batches of `wave`, for `seconds`, cycling through them on both backends,
/// as the runtime issues them: a fresh `Udp` per wave and the kernel's
/// shared decoded table. Only the call is timed, as on the device
/// workloads; allocating the fresh `Udp` (a zeroed 1 MB memory) is the
/// runtime's own per-wave cost, which `jobs_s` includes and which the
/// runtime could stop paying. Each pooled call is followed by the
/// same call without the pool. A backend's rate is the batches' bytes
/// over the sum of each batch's cost (`site_cost` of its sequential
/// calls' CPU time; median pooled wall time). `between` runs before
/// each batch; an error it returns counts as a failed operation.
/// Returns the first
/// batch and the rates as `[sequential by CPU time, pooled by wall
/// time][backend]`.
fn probe_device(
    program: &Program,
    payloads: &[Payload],
    wave: usize,
    seconds: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
    sheet: &mut Sheet,
    tracer: &Tracer,
) -> (CallSet, [[f64; 2]; 2]) {
    let decoded = Arc::new(program.image.predecode());
    let banks = corpus::code_banks(&program.image);
    let staging = Staging::default();
    let batches: Vec<&[Payload]> = payloads[..PROBE_JOBS].chunks_exact(wave).collect();
    // Per batch and backend: the sequential call's CPU seconds, the
    // pooled call's wall seconds, and sequential over pooled wall time.
    let mut secs = vec![[[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]]; batches.len()];
    let mut speedups = vec![[Vec::new(), Vec::new()]; batches.len()];
    let mut modeled = vec![0.0; batches.len()];
    let (mut seq_cpu_ms, mut pooled_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle < 2 || start.elapsed().as_secs_f64() < seconds {
        for (w, batch) in batches.iter().enumerate() {
            if let Err(e) = between() {
                sheet.op(Err(e));
            }
            let inputs: Vec<&[u8]> = batch.iter().map(|p| p.bytes.as_slice()).collect();
            for i in 0..2 {
                let b = (i + cycle) % 2;
                let call = |parallel| {
                    let opts = UdpRunOptions {
                        banks_per_lane: banks,
                        parallel,
                        backend: [ExecBackend::Interpreter, ExecBackend::Compiled][b],
                        ..UdpRunOptions::default()
                    };
                    let mut udp = Udp::new();
                    let c0 = cpu_seconds();
                    let t0 = Instant::now();
                    let result = udp.try_run_data_parallel_shared(
                        &program.image,
                        &decoded,
                        &inputs,
                        &staging,
                        &opts,
                    );
                    let t1 = Instant::now();
                    (result, t0, t1, cpu_seconds() - c0)
                };
                let (pooled, t0, t1, _) = call(true);
                let (sequential, t2, t3, cpu) = call(false);
                let job = pooled_ms.len() as u64;
                tracer.record("device.call", None, job, t0, t1);
                tracer.record("device.seq_call", None, job, t2, t3);
                let wall = t1.duration_since(t0).as_secs_f64();
                pooled_ms.push(wall * 1e3);
                seq_cpu_ms.push(cpu * 1e3);
                secs[w][b][0].push(cpu);
                secs[w][b][1].push(wall);
                speedups[w][b].push(t3.duration_since(t2).as_secs_f64() / wall);
                for result in [pooled, sequential] {
                    sheet.op(match result {
                        Err(e) => Err(format!("device probe: {e}")),
                        Ok(rep) => {
                            modeled[w] = rep.throughput_mbps(UDP_CLOCK_GHZ);
                            let ok = rep.lanes.len() == batch.len()
                                && rep
                                    .lanes
                                    .iter()
                                    .zip(batch.iter())
                                    .all(|(l, p)| l.output == p.expect);
                            if ok {
                                Ok(())
                            } else {
                                Err("device probe output differs from the CPU csv framing".into())
                            }
                        }
                    });
                }
            }
        }
        cycle += 1;
    }
    let bytes: usize = batches
        .iter()
        .flat_map(|b| b.iter())
        .map(|p| p.bytes.len())
        .sum();
    // [sequential by CPU time, pooled by wall time][backend]
    let cost = [site_cost, median];
    let rates = [0, 1].map(|clock| {
        [0, 1].map(|b| {
            bytes as f64 / secs.iter().map(|s| cost[clock](&s[b][clock])).sum::<f64>() / 1e6
        })
    });
    let site_costs =
        [0, 1].map(|b| -> Vec<f64> { secs.iter().map(|s| site_cost(&s[b][0])).collect() });
    let n = pooled_ms.len();
    sheet.put("interp_mbps", rates[0][0], "MB/cpu-s", n / 2);
    sheet.put("compiled_mbps", rates[0][1], "MB/cpu-s", n / 2);
    sheet.put("modeled_mbps", geomean(&modeled), "MB/s", modeled.len());
    let sites = site_costs[0].len() + site_costs[1].len();
    sheet.put("call_p50_ms", call_p50_ms(&site_costs), "cpu-ms", sites);
    sheet.put(
        "pool_speedup",
        pool_speedup(speedups.iter().flatten()),
        "x",
        n,
    );
    sheet.put(
        "cpu.call_p99_ms",
        percentile(&seq_cpu_ms, 0.99),
        "cpu-ms",
        n,
    );
    sheet.put("wall.interp_mbps", rates[1][0], "MB/s", n / 2);
    sheet.put("wall.compiled_mbps", rates[1][1], "MB/s", n / 2);
    sheet.put("wall.call_p50_ms", percentile(&pooled_ms, 0.5), "ms", n);
    sheet.put("wall.call_p99_ms", percentile(&pooled_ms, 0.99), "ms", n);
    let first = batches[0];
    let set = CallSet {
        chunks: first.iter().map(|p| p.bytes.clone()).collect(),
        expect: first
            .iter()
            .map(|p| Expect::Output(p.expect.clone()))
            .collect(),
        staging: Staging::default(),
        banks,
        bytes: first.iter().map(|p| p.bytes.len()).sum(),
    };
    (set, rates)
}

/// Traced-run layer probes of the kernel (predecode, compile,
/// sequential calls, lane runs), reusing the device workloads' probes.
fn probe_kernel(
    program: &Program,
    set: CallSet,
    [cpu, wall]: [[f64; 2]; 2],
    sheet: &mut Sheet,
    tracer: &Tracer,
) {
    sheet.put("prog.csv.interp_mbps", cpu[0], "MB/cpu-s", 1);
    sheet.put("prog.csv.compiled_mbps", cpu[1], "MB/cpu-s", 1);
    let shape = device::Shape {
        probe_reps: 25,
        ..device::SMALL
    };
    device::probe_layers(
        &shape,
        std::slice::from_ref(program),
        &[vec![set]],
        &[wall[0]],
        &[wall[1]],
        sheet,
        tracer,
    );
}

/// Starts a runtime with the `csv` kernel registered; returns it with
/// the time spent assembling and registering (verify + predecode).
fn start_open(tracer: &Tracer, parent: u32) -> Result<(ServeRuntime, f64, f64), String> {
    let rt = ServeRuntime::start(config()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let kernel = udp_serve::csv_kernel();
    let t1 = Instant::now();
    tracer.record("asm.assemble", Some(parent), 0, t0, t1);
    let (image, fallback) = kernel.map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let registered = rt.handle().register_kernel("csv", image, Some(fallback));
    let t2 = Instant::now();
    tracer.record("verify.verify", Some(parent), 0, t1, t2);
    registered.map_err(|e| e.to_string())?;
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((rt, secs(t0, t1), secs(t1, t2)))
}

/// Submits job `i` under a `serve.job` span, which the caller finishes
/// when the result arrives; returns the ticket, the span and when the
/// submission returned.
fn submit(
    handle: &ServeHandle,
    i: usize,
    payloads: &[Payload],
    tracer: &Tracer,
) -> (Result<JobTicket, String>, u32, Instant) {
    let spec = JobSpec::new(
        format!("t{}", i % TENANTS),
        "csv",
        payloads[i % payloads.len()].bytes.clone(),
    );
    let span = tracer.begin("serve.job", None, i as u64);
    let t0 = Instant::now();
    let ticket = handle.submit(spec).map_err(|e| format!("job refused: {e}"));
    let t1 = Instant::now();
    tracer.record("serve.submit", Some(span), i as u64, t0, t1);
    (ticket, span, t1)
}

/// Waits for job `i`'s result and checks it, recording span `name`
/// from `since` to the result under the job's span.
fn collect(
    ticket: JobTicket,
    i: usize,
    (span, name, since): (u32, &'static str, Instant),
    payloads: &[Payload],
    tracer: &Tracer,
) -> (Instant, Result<(), String>) {
    let result = ticket.wait().map_err(|e| e.to_string());
    let end = Instant::now();
    tracer.record(name, Some(span), i as u64, since, end);
    tracer.finish(span);
    (
        end,
        check_output(result, &payloads[i % payloads.len()].expect),
    )
}

pub fn run_open(seed: u64, seconds: f64, sheet: &mut Sheet, tracer: &Tracer) -> Result<(), String> {
    const SETUP_REPS: usize = 101;
    let (mut setups, mut asm, mut reg) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = || -> Result<ServeRuntime, String> {
        let t0 = Instant::now();
        let span = tracer.begin("setup", None, setups.len() as u64);
        let (rt, a, r) = start_open(tracer, span)?;
        tracer.finish(span);
        setups.push(t0.elapsed().as_secs_f64());
        asm.push(a);
        reg.push(r);
        Ok(rt)
    };
    let rt = set_up()?;
    let handle = rt.handle();
    let payloads = mix(seed, true);

    // Saturation: a backlog of BACKLOG jobs is queued with dispatch
    // paused, then released as one full wave and collected; repeated.
    let sat_end = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    let mut done = Timeline::new();
    let (mut i, mut completed) = (0usize, 0usize);
    // Jobs per CPU second of each backlog.
    let mut rates = Vec::new();
    while Instant::now() < sat_end {
        let cpu0 = cpu_seconds();
        handle.pause();
        let mut backlog = Vec::with_capacity(BACKLOG);
        for _ in 0..BACKLOG {
            match submit(&handle, i, &payloads, tracer) {
                (Ok(t), span, _) => backlog.push((t, i, span)),
                (Err(e), span, _) => {
                    tracer.finish(span);
                    sheet.op(Err(e));
                }
            }
            i += 1;
        }
        handle.resume();
        let mut ok = 0;
        let mut end = Instant::now();
        for (ticket, idx, span) in backlog {
            let waited = (span, "serve.wait", Instant::now());
            let outcome;
            (end, outcome) = collect(ticket, idx, waited, &payloads, tracer);
            ok += usize::from(outcome.is_ok());
            sheet.op(outcome);
        }
        // One sample per backlog, so memory does not grow with the rate.
        done.push(end, ok as f64);
        rates.push(ok as f64 / (cpu_seconds() - cpu0));
        completed += ok;
    }
    sheet.put("jobs_s", percentile(&rates, 0.75), "1/cpu-s", completed);
    sheet.put(
        "wall.jobs_s",
        sliced_rate(&[&done], SLICES),
        "1/s",
        completed,
    );

    // Open loop: a generator sends on schedule, a collector waits.
    let open_secs = seconds * 0.25;
    let total = (open_secs * OPEN_RATE) as usize;
    type Sent = (Result<JobTicket, String>, u32, Instant, usize, Instant);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (latency, lags, outcomes) = std::thread::scope(|scope| {
        let gen_handle = handle.clone();
        let payloads = &payloads;
        let generator = scope.spawn(move || {
            let t0 = Instant::now();
            let mut lags = Vec::with_capacity(total);
            for k in 0..total {
                let due = t0 + Duration::from_secs_f64(k as f64 / OPEN_RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lags.push(Instant::now().duration_since(due).as_secs_f64());
                let (ticket, span, sent) = submit(&gen_handle, i + k, payloads, tracer);
                if tx.send((ticket, span, sent, i + k, due)).is_err() {
                    break;
                }
            }
            lags
        });
        let collector = scope.spawn(move || {
            let mut latency = Vec::with_capacity(total);
            let mut outcomes = Vec::with_capacity(total);
            for (ticket, span, sent, idx, due) in rx {
                let outcome = match ticket {
                    Err(e) => {
                        tracer.finish(span);
                        Err(e)
                    }
                    Ok(t) => {
                        let result = (span, "serve.result", sent);
                        let (end, outcome) = collect(t, idx, result, payloads, tracer);
                        latency.push(end.duration_since(due).as_secs_f64() * 1e3);
                        outcome
                    }
                };
                outcomes.push(outcome);
            }
            (latency, outcomes)
        });
        let lags = generator.join().expect("open-loop generator panicked");
        let (latency, outcomes) = collector.join().expect("open-loop collector panicked");
        (latency, lags, outcomes)
    });
    for o in outcomes {
        sheet.op(o);
    }
    sheet.put(
        "wall.job_p50_ms",
        percentile(&latency, 0.5),
        "ms",
        latency.len(),
    );
    sheet.put(
        "wall.job_p99_ms",
        percentile(&latency, 0.99),
        "ms",
        latency.len(),
    );

    let program = kernel_program(&handle)?;
    let stats = rt.shutdown(Shutdown::Drain);
    let probe_secs = seconds * 0.35;
    let mut again = Spread::new(SETUP_REPS - 1, probe_secs);
    let mut resetup = || -> Result<(), String> {
        if again.due() {
            set_up()?.shutdown(Shutdown::Drain);
        }
        Ok(())
    };
    let (set, rates) = probe_device(
        &program,
        &payloads,
        10,
        probe_secs,
        &mut resetup,
        sheet,
        tracer,
    );
    for _ in 0..again.left() {
        set_up()?.shutdown(Shutdown::Drain);
    }
    sheet.put("setup_s", median(&setups), "s", setups.len());

    if tracer.enabled() {
        put_stats(sheet, &stats);
        put_serve_spans(sheet, tracer);
        let lag_ms = ms(&lags);
        sheet.put(
            "serve.gen_lag_ms_p99",
            percentile(&lag_ms, 0.99),
            "ms",
            lag_ms.len(),
        );
        let over = latency.iter().filter(|&&l| l > LATENCY_LIMIT_MS).count();
        sheet.put("serve.over_limit", over as f64, "count", latency.len());
        sheet.put("asm.assemble_ms", median(&asm) * 1e3, "ms", asm.len());
        sheet.put("verify.verify_ms", median(&reg) * 1e3, "ms", reg.len());
        sheet.put(
            "verify.certified",
            f64::from(u8::from(program.image.cert.is_some())),
            "count",
            1,
        );
        probe_kernel(&program, set, rates, sheet, tracer);
    }
    Ok(())
}

/// A journaled runtime serving `csv` from the store under `dir`.
struct Journaled {
    rt: ServeRuntime,
    server: SocketServer,
}

fn start_journaled(dir: &Path, sock: &Path) -> Result<Journaled, String> {
    let store = ArtifactStore::open(dir.join("store")).map_err(|e| e.to_string())?;
    let rt = ServeRuntime::start_journaled(config(), dir.join("journal"), &store)
        .map_err(|e| e.to_string())?;
    let server = SocketServer::bind(sock, rt.handle(), SocketConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(Journaled { rt, server })
}

impl Journaled {
    fn stop(self) -> ServeStats {
        self.server.stop();
        self.rt.shutdown(Shutdown::Drain)
    }
}

/// Cold start on an empty store: build the kernel artifact, start,
/// register, drain; then the warm restart from the journal.
fn setup_journaled(
    dir: &Path,
    sock: &Path,
    tracer: &Tracer,
    parent: u32,
) -> Result<Journaled, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let store = ArtifactStore::open(dir.join("store")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let built = udp_serve::csv_kernel_artifact(&store);
    tracer.record("store.build", Some(parent), 0, t, Instant::now());
    let (artifact, fallback) = built.map_err(|e| e.to_string())?;
    let cold = start_journaled(dir, sock)?;
    cold.rt
        .handle()
        .register_artifact("csv", &artifact, Some(fallback))
        .map_err(|e| e.to_string())?;
    cold.stop();
    let t = Instant::now();
    let warm = start_journaled(dir, sock);
    tracer.record("serve.restart", Some(parent), 0, t, Instant::now());
    warm
}

/// Jobs the socket client can record without reallocating, far above
/// what a phase completes on a 2-vCPU host.
const CLIENT_JOBS: usize = 1 << 17;

/// Completions of one closed-loop phase.
struct Phase {
    /// Each job's latency in milliseconds, stamped at its end.
    done: Timeline,
    /// Each job's CPU seconds, the whole process's: client, socket
    /// server, scheduler and lanes.
    cpu: Vec<f64>,
    jobs: usize,
}

/// One closed-loop socket client sending rows for `seconds`, starting
/// at payload `first`. One client, so that the process's CPU time
/// during a job is that job's, and each wave holds one job.
fn client(
    sock: &Path,
    payloads: &[Payload],
    first: usize,
    seconds: f64,
    sheet: &mut Sheet,
    tracer: &Tracer,
) -> Phase {
    let mut phase = Phase {
        done: Timeline::with_capacity(CLIENT_JOBS),
        cpu: resident(CLIENT_JOBS, 0.0),
        jobs: 0,
    };
    let mut client = match ServeClient::connect(sock, Duration::from_secs(10)) {
        Ok(cl) => cl,
        Err(e) => {
            sheet.op(Err(format!("connect: {e}")));
            return phase;
        }
    };
    if tracer.enabled() {
        for k in 0..100 {
            let t0 = Instant::now();
            let _ = client.call(&Request::Ping);
            tracer.record("socket.ping", None, k, t0, Instant::now());
        }
    }
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let idx = first + phase.jobs;
        let p = &payloads[idx % payloads.len()];
        let spec = JobSpec::new("c0", "csv", p.bytes.clone());
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let reply = client.submit(spec);
        let t1 = Instant::now();
        let cpu = cpu_seconds() - c0;
        tracer.record("serve.result", None, idx as u64, t0, t1);
        let result = match reply {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(remote)) => Err(format!("job refused: {}", remote.message)),
            Err(e) => Err(e.to_string()),
        };
        let outcome = check_output(result, &p.expect);
        if outcome.is_ok() {
            phase
                .done
                .push(t1, t1.duration_since(t0).as_secs_f64() * 1e3);
            phase.cpu.push(cpu);
        }
        sheet.op(outcome);
        phase.jobs += 1;
    }
    phase
}

pub fn run_journaled(
    seed: u64,
    seconds: f64,
    tmp: &Path,
    sheet: &mut Sheet,
    tracer: &Tracer,
) -> Result<(), String> {
    const SETUP_REPS: usize = 15;
    // Relative, so the socket path stays within the platform's limit.
    let sock = tmp.join("s");
    let mut setups = Vec::new();
    let mut set_up = || -> Result<(Journaled, PathBuf), String> {
        let rep = setups.len();
        let dir = tmp.join(format!("setup{rep}"));
        let t0 = Instant::now();
        let span = tracer.begin("setup", None, rep as u64);
        let svc = setup_journaled(&dir, &sock, tracer, span)?;
        tracer.finish(span);
        setups.push(t0.elapsed().as_secs_f64());
        Ok((svc, dir))
    };
    let (svc, dir) = set_up()?;
    let payloads = mix(seed, false);

    let a = client(&sock, &payloads, 0, seconds * 0.35, sheet, tracer);

    // The warm restart: drain, replay the journal, serve again.
    let stats_a = svc.stop();
    let journal = dir.join("journal");
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let restart = tracer.begin("serve.restart", None, 1);
    let t0 = Instant::now();
    let replay = udp_serve::journal::replay(&journal).map_err(|e| e.to_string());
    tracer.record("journal.replay", Some(restart), 1, t0, Instant::now());
    let replayed = replay?.records.len();
    let svc = start_journaled(&dir, &sock)?;
    tracer.finish(restart);

    let b = client(&sock, &payloads, a.jobs, seconds * 0.35, sheet, tracer);
    let stats_b = svc.stop();
    let done = a.done.len() + b.done.len();
    let rates: Vec<f64> = a.cpu.iter().chain(&b.cpu).map(|c| 1.0 / c).collect();
    sheet.put("jobs_s", percentile(&rates, 0.75), "1/cpu-s", done);
    let latency = [a.done.values(), b.done.values()].concat();
    let wall_secs: f64 = [&a.done, &b.done].iter().map(|t| t.seconds()).sum();
    sheet.put("wall.jobs_s", done as f64 / wall_secs, "1/s", done);
    sheet.put(
        "wall.job_p50_ms",
        percentile(&latency, 0.5),
        "ms",
        latency.len(),
    );
    sheet.put(
        "wall.job_p99_ms",
        percentile(&latency, 0.99),
        "ms",
        latency.len(),
    );

    let store = ArtifactStore::open(dir.join("store")).map_err(|e| e.to_string())?;
    let (artifact, _) = udp_serve::csv_kernel_artifact(&store).map_err(|e| e.to_string())?;
    let mut image = (*artifact.image).clone();
    if image.cert.is_none() {
        image.cert = udp_verify::verify_image(
            &image,
            &udp_verify::VerifyOptions::with_banks(artifact.banks_per_lane),
        )
        .cert;
    }
    let program = Program {
        name: "csv".into(),
        image: Arc::new(image),
    };
    let probe_secs = seconds * 0.3;
    let mut again = Spread::new(SETUP_REPS - 1, probe_secs);
    let mut resetup = || -> Result<(), String> {
        if again.due() {
            set_up()?.0.stop();
        }
        Ok(())
    };
    let (set, rates) = probe_device(
        &program,
        &payloads,
        1,
        probe_secs,
        &mut resetup,
        sheet,
        tracer,
    );
    for _ in 0..again.left() {
        set_up()?.0.stop();
    }
    sheet.put("setup_s", median(&setups), "s", setups.len());

    if tracer.enabled() {
        let mut stats = stats_a;
        stats.waves += stats_b.waves;
        stats.completed += stats_b.completed;
        stats.shed_overload += stats_b.shed_overload;
        stats.shed_deadline += stats_b.shed_deadline;
        stats.rejected_quota += stats_b.rejected_quota;
        stats.rejected_quarantined += stats_b.rejected_quarantined;
        stats.rejected_other += stats_b.rejected_other;
        put_stats(sheet, &stats);
        put_serve_spans(sheet, tracer);
        let us =
            |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e6).collect() };
        sheet.put(
            "socket.ping_us",
            median(&us("socket.ping")),
            "us",
            us("socket.ping").len(),
        );
        sheet.put(
            "journal.replay_ms",
            median(&tracer.durations("journal.replay")) * 1e3,
            "ms",
            replayed,
        );
        sheet.put("journal.bytes", journal_bytes as f64, "bytes", 1);
        probe_journal(&tmp.join("append-probe"), sheet, tracer);
        probe_wire(&payloads, sheet, tracer);
        probe_store(&dir, &artifact.key, sheet, tracer);
        probe_kernel(&program, set, rates, sheet, tracer);
    }
    Ok(())
}

/// Synced journal appends of the record every served job writes.
fn probe_journal(path: &Path, sheet: &mut Sheet, tracer: &Tracer) {
    let Ok(mut writer) = udp_serve::JournalWriter::open(path, 0, true) else {
        sheet.op(Err("journal probe: cannot open".into()));
        return;
    };
    for k in 0..200u64 {
        let rec = udp_serve::JournalRecord::Charge {
            tenant: "c0".into(),
            cycles: 1000 + k,
        };
        let t0 = Instant::now();
        writer.append(&rec);
        tracer.record("journal.append", None, k, t0, Instant::now());
    }
    let us: Vec<f64> = tracer
        .durations("journal.append")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    sheet.put(
        "journal.append_us_p50",
        percentile(&us, 0.5),
        "us",
        us.len(),
    );
    sheet.put(
        "journal.append_us_p99",
        percentile(&us, 0.99),
        "us",
        us.len(),
    );
}

/// Encode + decode of each job's request and response frames.
fn probe_wire(payloads: &[Payload], sheet: &mut Sheet, tracer: &Tracer) {
    for (k, p) in payloads.iter().enumerate().take(500) {
        let req = Request::Submit(JobSpec::new("c0", "csv", p.bytes.clone()));
        let resp = Ok(JobOutput {
            output: p.expect.clone(),
            cycles: 1,
            outcome: JobOutcome::Clean,
        });
        let t0 = Instant::now();
        let a = udp_serve::wire::decode_request(&udp_serve::wire::encode_request(&req));
        let b = udp_serve::wire::decode_response(&udp_serve::wire::encode_response(&resp));
        tracer.record("wire.codec", None, k as u64, t0, Instant::now());
        if a.is_err() || b.is_err() {
            sheet.op(Err("wire probe: a frame failed to decode".into()));
        }
    }
    let us: Vec<f64> = tracer
        .durations("wire.codec")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    sheet.put("wire.codec_us", median(&us), "us", us.len());
}

/// Cold artifact build (in the setups) and warm integrity-checked loads.
fn probe_store(dir: &Path, key: &udp_store::ArtifactKey, sheet: &mut Sheet, tracer: &Tracer) {
    if let Ok(store) = ArtifactStore::open(dir.join("store")) {
        for k in 0..20u64 {
            let t0 = Instant::now();
            let loaded = store.load(key);
            tracer.record("store.load", None, k, t0, Instant::now());
            if loaded.is_err() {
                sheet.op(Err("store probe: artifact failed to load".into()));
            }
        }
    }
    let build = tracer.durations("store.build");
    let load = tracer.durations("store.load");
    sheet.put("store.build_ms", median(&build) * 1e3, "ms", build.len());
    sheet.put("store.load_ms", median(&load) * 1e3, "ms", load.len());
}
