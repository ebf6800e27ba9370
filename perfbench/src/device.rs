//! The device workloads: every corpus program on both backends, called
//! through `Udp::try_run_data_parallel` with the worker pool on, each
//! call followed by the same call without it.
//!
//! `device-stream` gives each call 64 large chunks, so lane execution
//! dominates; `device-small` makes thousands of calls of 8 short rows
//! on one reused `Udp` per program, so the per-call setup dominates
//! (predecode, compile and pool spawn happen on every call).
//!
//! Rates and call costs come from the sequential calls, by CPU time;
//! `pool_speedup` from sequential over pooled wall time. A program's
//! rate is its input sets' bytes over the sum of their call-site costs
//! (`site_cost`), and `call_p50_ms` comes from the same site costs.

use crate::corpus::{self, CallSet, Program};
use crate::measure::{
    call_p50_ms, cpu_seconds, geomean, median, percentile, pool_speedup, site_cost, Rng, Sheet,
    Spread, Tracer,
};
use std::sync::Arc;
use std::time::Instant;
use udp_asm::{DecodedProgram, ProgramImage};
use udp_isa::mem::BANK_WORDS;
use udp_sim::energy::UDP_CLOCK_GHZ;
use udp_sim::{BitStream, ExecBackend, LocalMemory, OutputSink, Udp, UdpRunOptions, UdpRunReport};

/// How a device workload cuts its input into calls.
pub struct Shape {
    /// Chunks (lanes' inputs) per call.
    pub chunks: usize,
    /// Approximate bytes per chunk.
    pub chunk_bytes: usize,
    /// Distinct input sets per program, cycled through.
    pub sets: usize,
    /// Calls per program and backend in one round.
    pub calls_per_visit: usize,
    /// Repetitions of each traced layer probe.
    pub probe_reps: usize,
}

pub const STREAM: Shape = Shape {
    chunks: 64,
    chunk_bytes: 8 * 1024,
    sets: 1,
    calls_per_visit: 1,
    probe_reps: 3,
};

pub const SMALL: Shape = Shape {
    chunks: 8,
    chunk_bytes: 256,
    sets: 8,
    calls_per_visit: 4,
    probe_reps: 25,
};

const BACKENDS: [ExecBackend; 2] = [ExecBackend::Interpreter, ExecBackend::Compiled];
/// Corpus builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Seed of the pinned-digest inputs, independent of `--seed`.
const PIN_SEED: u64 = 0x5EED_D16E;
/// Digest of each program's output on the pin inputs, one
/// `name digest` pair per line; `--write-digests` regenerates it.
const PINNED: &str = include_str!("../digests.txt");

fn backend_name(b: ExecBackend) -> &'static str {
    match b {
        ExecBackend::Interpreter => "interp",
        ExecBackend::Compiled => "compiled",
    }
}

fn run_opts(set: &CallSet, backend: ExecBackend, parallel: bool) -> UdpRunOptions {
    UdpRunOptions {
        banks_per_lane: set.banks,
        parallel,
        backend,
        ..UdpRunOptions::default()
    }
}

/// Times of a run's corpus builds: the run's set-up, then `SETUP_REPS`
/// - 1 more spread over the measured phase.
#[derive(Default)]
struct Setups {
    total: Vec<f64>,
    asm: Vec<f64>,
    verify: Vec<f64>,
    certified: usize,
}

impl Setups {
    /// Builds the corpus once, recording its times.
    fn build(&mut self, tracer: &Tracer) -> Result<Vec<Program>, String> {
        let span = tracer.begin("setup", None, self.total.len() as u64);
        let (programs, times) = corpus::build(tracer, span)?;
        tracer.finish(span);
        self.total.push(times.total_s);
        self.asm.push(times.assemble_s);
        self.verify.push(times.verify_s);
        self.certified = times.certified;
        Ok(programs)
    }

    fn put(&self, sheet: &mut Sheet, tracer: &Tracer) {
        sheet.put("setup_s", median(&self.total), "s", self.total.len());
        if tracer.enabled() {
            let (asm, verify) = (&self.asm, &self.verify);
            sheet.put("asm.assemble_ms", median(asm) * 1e3, "ms", asm.len());
            sheet.put("verify.verify_ms", median(verify) * 1e3, "ms", verify.len());
            sheet.put("verify.certified", self.certified as f64, "count", 1);
        }
    }
}

/// Per program and backend, one entry per call pair: the pooled call's
/// rate by wall time, and sequential over pooled wall time.
#[derive(Default)]
struct Rates {
    pooled_wall: Vec<f64>,
    speedup: Vec<f64>,
}

/// Checks a call's report: the first of an input set against the CPU
/// references, every later one against the first.
fn check_call(
    result: Result<UdpRunReport, udp_sim::SimError>,
    first: &mut Option<UdpRunReport>,
    program: &Program,
    set: &CallSet,
    how: &str,
) -> Result<(), String> {
    match (result, first.as_ref()) {
        (Err(e), _) => Err(format!("{}: {e}", program.name)),
        (Ok(rep), Some(want)) if rep == *want => Ok(()),
        (Ok(_), Some(_)) => Err(format!(
            "{} {how}: report differs from the first run of the same input",
            program.name
        )),
        (Ok(rep), None) => {
            let checked = set.check(program, &rep);
            *first = Some(rep);
            checked
        }
    }
}

pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    sheet: &mut Sheet,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut setups = Setups::default();
    let programs = setups.build(tracer)?;

    let mut rng = Rng::new(seed);
    let sets: Vec<Vec<CallSet>> = programs
        .iter()
        .map(|p| {
            (0..shape.sets)
                .map(|_| corpus::call_set(p, &mut rng, shape.chunks, shape.chunk_bytes))
                .collect()
        })
        .collect();

    let mut udps: Vec<Udp> = programs.iter().map(|_| Udp::new()).collect();
    let mut rates: Vec<[Rates; 2]> = programs.iter().map(|_| Default::default()).collect();
    // CPU seconds of each sequential call, per program, input set and
    // backend: one call site each.
    let mut site_cpu: Vec<Vec<[Vec<f64>; 2]>> = sets
        .iter()
        .map(|s| s.iter().map(|_| Default::default()).collect())
        .collect();
    // The first report of each input set; every later call of the set,
    // on either backend, pooled or not, must reproduce it exactly.
    let mut first: Vec<Vec<Option<UdpRunReport>>> = sets
        .iter()
        .map(|s| s.iter().map(|_| None).collect())
        .collect();
    // CPU milliseconds of each sequential call and wall milliseconds of
    // each pooled call.
    let (mut seq_cpu_ms, mut pooled_ms) = (Vec::new(), Vec::new());
    let (mut cpu_total, mut pooled_wall_s) = (0.0, 0.0);

    let mut again = Spread::new(SETUP_REPS - 1, seconds);
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for (p, program) in programs.iter().enumerate() {
            if again.due() {
                setups.build(tracer)?;
            }
            for i in 0..2 {
                // Alternate which backend goes first, so neither always
                // runs on a cache the other warmed.
                let b = (i + round) % 2;
                let how = backend_name(BACKENDS[b]);
                for c in 0..shape.calls_per_visit {
                    let s = (round * shape.calls_per_visit + c) % shape.sets;
                    let set = &sets[p][s];
                    let inputs = set.inputs();
                    let mut call = |parallel| {
                        let opts = run_opts(set, BACKENDS[b], parallel);
                        let c0 = cpu_seconds();
                        let t0 = Instant::now();
                        let result = udps[p].try_run_data_parallel(
                            &program.image,
                            &inputs,
                            &set.staging,
                            &opts,
                        );
                        let t1 = Instant::now();
                        (result, t0, t1, cpu_seconds() - c0)
                    };
                    // The pooled call, then the same call sequentially.
                    let (pooled, t0, t1, _) = call(true);
                    let (sequential, _, t2, cpu) = call(false);
                    let job = pooled_ms.len() as u64;
                    tracer.record("device.call", None, job, t0, t1);
                    tracer.record("device.seq_call", None, job, t1, t2);
                    let wall = t1.duration_since(t0).as_secs_f64();
                    let seq_wall = t2.duration_since(t1).as_secs_f64();
                    pooled_ms.push(wall * 1e3);
                    pooled_wall_s += wall;
                    seq_cpu_ms.push(cpu * 1e3);
                    cpu_total += cpu;
                    site_cpu[p][s][b].push(cpu);
                    let r = &mut rates[p][b];
                    r.pooled_wall.push(set.bytes as f64 / wall / 1e6);
                    r.speedup.push(seq_wall / wall);
                    let first = &mut first[p][s];
                    sheet.op(check_call(pooled, first, program, set, how));
                    sheet.op(check_call(sequential, first, program, set, how));
                }
            }
        }
        round += 1;
    }
    for _ in 0..again.left() {
        setups.build(tracer)?;
    }
    setups.put(sheet, tracer);
    check_pinned_digests(&programs, sheet);

    let modeled: Vec<f64> = first
        .iter()
        .map(|reps| {
            let xs: Vec<f64> = reps
                .iter()
                .flatten()
                .map(|r| r.throughput_mbps(UDP_CLOCK_GHZ))
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        })
        .collect();
    // Per program and backend: the bytes of its called input sets over
    // the sum of their sites' costs.
    let seq_rate = |b: usize| -> Vec<f64> {
        (0..programs.len())
            .map(|p| {
                let called = || {
                    sets[p]
                        .iter()
                        .zip(&site_cpu[p])
                        .filter(|(_, c)| !c[b].is_empty())
                };
                let bytes: usize = called().map(|(set, _)| set.bytes).sum();
                let cost: f64 = called().map(|(_, c)| site_cost(&c[b])).sum();
                bytes as f64 / cost / 1e6
            })
            .collect()
    };
    let (interp, compiled) = (seq_rate(0), seq_rate(1));
    // Per program and backend, the median pooled rate over its calls.
    let pooled =
        [0, 1].map(|b| -> Vec<f64> { rates.iter().map(|r| median(&r[b].pooled_wall)).collect() });
    let site_costs = [0, 1].map(|b| -> Vec<f64> {
        site_cpu
            .iter()
            .flatten()
            .filter(|c| !c[b].is_empty())
            .map(|c| site_cost(&c[b]))
            .collect()
    });
    let n = pooled_ms.len();
    sheet.put("interp_mbps", geomean(&interp), "MB/cpu-s", n / 2);
    sheet.put("compiled_mbps", geomean(&compiled), "MB/cpu-s", n / 2);
    sheet.put("modeled_mbps", geomean(&modeled), "MB/s", programs.len());
    let sites = site_costs[0].len() + site_costs[1].len();
    sheet.put("call_p50_ms", call_p50_ms(&site_costs), "cpu-ms", sites);
    // A device workload's job is one (sequential) device call.
    sheet.put("jobs_s", n as f64 / cpu_total, "1/cpu-s", n);
    let speedup = pool_speedup(rates.iter().flat_map(|r| [&r[0].speedup, &r[1].speedup]));
    sheet.put("pool_speedup", speedup, "x", n);
    sheet.put(
        "cpu.call_p99_ms",
        percentile(&seq_cpu_ms, 0.99),
        "cpu-ms",
        n,
    );
    sheet.put("wall.interp_mbps", geomean(&pooled[0]), "MB/s", n / 2);
    sheet.put("wall.compiled_mbps", geomean(&pooled[1]), "MB/s", n / 2);
    sheet.put("wall.call_p50_ms", percentile(&pooled_ms, 0.5), "ms", n);
    sheet.put("wall.call_p99_ms", percentile(&pooled_ms, 0.99), "ms", n);
    sheet.put("wall.jobs_s", n as f64 / pooled_wall_s, "1/s", n);

    if tracer.enabled() {
        for (p, program) in programs.iter().enumerate() {
            let calls: usize = site_cpu[p].iter().map(|c| c[0].len()).sum();
            sheet.put(
                format!("prog.{}.interp_mbps", program.name),
                interp[p],
                "MB/cpu-s",
                calls,
            );
            sheet.put(
                format!("prog.{}.compiled_mbps", program.name),
                compiled[p],
                "MB/cpu-s",
                calls,
            );
        }
        probe_layers(
            shape, &programs, &sets, &pooled[0], &pooled[1], sheet, tracer,
        );
    }
    Ok(())
}

/// Runs each program once on its pin inputs and compares the output
/// digest with the pinned one.
fn check_pinned_digests(programs: &[Program], sheet: &mut Sheet) {
    for program in programs {
        let got = pin_digest(program);
        let want = PINNED
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(n, _)| *n == program.name)
            .map(|(_, d)| d.trim());
        sheet.op(match (got, want) {
            (Ok(got), Some(want)) if format!("{got:016x}") == want => Ok(()),
            (Ok(got), Some(want)) => Err(format!(
                "{}: output digest {got:016x} differs from the pinned {want}",
                program.name
            )),
            (Ok(_), None) => Err(format!("{}: no pinned digest", program.name)),
            (Err(e), _) => Err(e),
        });
    }
}

/// Digest of `program`'s interpreter output on its pin inputs.
fn pin_digest(program: &Program) -> Result<u64, String> {
    let set = corpus::call_set(program, &mut Rng::new(PIN_SEED), 4, 1024);
    let rep = Udp::new()
        .try_run_data_parallel(
            &program.image,
            &set.inputs(),
            &set.staging,
            &run_opts(&set, ExecBackend::Interpreter, false),
        )
        .map_err(|e| format!("{}: {e}", program.name))?;
    set.check(program, &rep)?;
    Ok(corpus::digest(&rep, &set))
}

/// The contents of `digests.txt` for the corpus as it builds now.
pub fn write_digests() -> Result<String, String> {
    let (programs, _) = corpus::build(&Tracer::new(false), 0)?;
    let mut out = String::new();
    for p in &programs {
        out.push_str(&format!("{} {:016x}\n", p.name, pin_digest(p)?));
    }
    Ok(out)
}

/// Times `f` `reps` times under span `name`; returns the median in s.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: u32,
    job: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let t1 = Instant::now();
        tracer.record(name, Some(parent), job, t0, t1);
        secs.push(t1.duration_since(t0).as_secs_f64());
    }
    median(&secs)
}

/// Σ `Lane::run` over a call's chunks, each on a freshly loaded window,
/// timing only the lane runs.
fn lane_runs(
    image: &ProgramImage,
    decoded: &Arc<DecodedProgram>,
    set: &CallSet,
    tracer: &Tracer,
    parent: u32,
    job: u64,
) -> f64 {
    let cfg = set.lane_config(image);
    let mut mem = LocalMemory::with_words(set.banks * BANK_WORDS);
    let mut total = 0.0;
    for chunk in &set.chunks {
        // The window is loaded outside the timed region, so lane runs do
        // not pay first-touch faults the engine's reused windows avoid.
        let mut lane = set.lane(image, decoded, &mut mem);
        let mut stream = BitStream::new(chunk);
        let mut out = OutputSink::with_capacity(chunk.len());
        let t0 = Instant::now();
        let rep = lane.run(&mut mem, &mut stream, &mut out, &cfg);
        let t1 = Instant::now();
        tracer.record("lane.run", Some(parent), job, t0, t1);
        total += t1.duration_since(t0).as_secs_f64();
        std::hint::black_box(rep.cycles);
    }
    total
}

/// The traced run's per-layer probes: predecode, compile, sequential
/// calls and bare lane runs of every program on its first input set.
pub fn probe_layers(
    shape: &Shape,
    programs: &[Program],
    sets: &[Vec<CallSet>],
    pooled_interp: &[f64],
    pooled_compiled: &[f64],
    sheet: &mut Sheet,
    tracer: &Tracer,
) {
    let reps = shape.probe_reps;
    let (mut predecode, mut compile, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seq_interp, mut seq_compiled) = (Vec::new(), Vec::new());
    let mut declined = 0usize;
    for (p, program) in programs.iter().enumerate() {
        let image = &program.image;
        let job = p as u64;
        let span = tracer.begin("probe", None, job);
        let pre = timed(tracer, "asm.predecode", span, job, reps, || {
            image.predecode()
        });
        let with_compile = timed(tracer, "compiled.compile", span, job, reps, || {
            udp_sim::compiled_decline_reason(image)
        });
        declined += usize::from(udp_sim::compiled_decline_reason(image).is_some());
        predecode.push(pre);
        compile.push((with_compile - pre).max(0.0));

        let set = &sets[p][0];
        let inputs = set.inputs();
        let mut udp = Udp::new();
        let mut seq = [0.0; 2];
        for (b, backend) in BACKENDS.into_iter().enumerate() {
            let opts = run_opts(set, backend, false);
            seq[b] = timed(tracer, "sim.seq_call", span, job, reps, || {
                udp.try_run_data_parallel(image, &inputs, &set.staging, &opts)
            });
        }
        seq_interp.push(set.bytes as f64 / seq[0] / 1e6);
        seq_compiled.push(set.bytes as f64 / seq[1] / 1e6);
        let decoded = Arc::new(image.predecode());
        let mut lane_secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            lane_secs.push(lane_runs(image, &decoded, set, tracer, span, job));
        }
        overhead.push(seq[0] - pre - median(&lane_secs));
        tracer.finish(span);
    }
    let n = programs.len();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    sheet.put("asm.predecode_us", mean(&predecode) * 1e6, "us", n * reps);
    sheet.put("compiled.compile_us", mean(&compile) * 1e6, "us", n * reps);
    sheet.put("compiled.declined", declined as f64, "count", n);
    let (si, sc) = (geomean(&seq_interp), geomean(&seq_compiled));
    sheet.put("sim.seq_interp_mbps", si, "MB/s", n * reps);
    sheet.put("sim.seq_compiled_mbps", sc, "MB/s", n * reps);
    sheet.put("pool.speedup_interp", geomean(pooled_interp) / si, "x", n);
    sheet.put(
        "pool.speedup_compiled",
        geomean(pooled_compiled) / sc,
        "x",
        n,
    );
    sheet.put(
        "sim.call_overhead_us",
        mean(&overhead) * 1e6,
        "us",
        n * reps,
    );
}
