//! The repository benchmark: one command, one workload per run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <k> --workload <name> [--seed <n>] [--seconds <s>]
//! perfbench --write-digests
//! ```
//!
//! A run generates its inputs from `--seed`, runs the workload in a
//! child process of its own (so `peak_rss_mb`, pool threads and warm
//! caches belong to that workload alone) with its files under a
//! per-run directory in `.bench_tmp/` that is removed afterwards,
//! checks every output, prints each metric with its unit and sample
//! count, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload untraced and then traced, each for half the time, reports
//! the per-layer metrics of the traced run plus `trace.overhead_frac`
//! (untraced over traced `jobs_s`, minus one), and writes the spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl`.
//!
//! `--steady k` runs the workload `k` times on seeds `seed..seed+k`
//! and again on `k` held-out seeds that tuning never used, and prints each
//! end-to-end metric's median and quartile spread over median per set.
//!
//! The exit code is nonzero when any output is wrong or any operation
//! failed.

// The process CPU clock is read through the C library's
// `clock_gettime` with the 64-bit Linux `timespec` layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures on 64-bit Linux only");

mod corpus;
mod device;
mod measure;
mod serve;

use measure::{median, peak_rss_mb, quartiles, Metric, Sheet, Tracer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Workloads; `BENCHMARK.json` records why each was chosen.
const WORKLOADS: &[&str] = &[
    "device-stream",
    "device-small",
    "serve-open",
    "serve-journaled",
];

/// End-to-end metrics. Device rates and call costs are those of
/// sequential calls, per CPU second of the workload process: on a
/// shared host, hypervisor steal moves wall-clock rates, and the CPU
/// time of pooled calls (thread spawns, page faults, cross-CPU
/// wake-ups), far more between runs. What the pool gains is
/// `pool_speedup`, each pooled call's wall time over the same call's
/// run sequentially right after it. Rates and `call_p50_ms` come from
/// call sites (one input set on one backend each) and their
/// `site_cost`; `call_p50_ms` is each backend's median site, geomean
/// over the backends. Call tails are per-layer (`cpu.call_p99_ms`,
/// `wall.call_p99_ms`): a p99 held no bound on all four workloads.
/// Serve `jobs_s` is per CPU second of the whole serving process. The
/// wall-clock figures are `wall.*` per-layer metrics, printed in the
/// table of every run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "interp_mbps",
    "compiled_mbps",
    "modeled_mbps",
    "call_p50_ms",
    "jobs_s",
    "pool_speedup",
    "peak_rss_mb",
];

/// Per-layer metrics besides the per-program rates: name and unit.
/// A workload that bypasses a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("wall.interp_mbps", "MB/s"),
    ("wall.compiled_mbps", "MB/s"),
    ("wall.call_p50_ms", "ms"),
    ("wall.call_p99_ms", "ms"),
    ("wall.jobs_s", "1/s"),
    ("wall.job_p50_ms", "ms"),
    ("wall.job_p99_ms", "ms"),
    ("cpu.call_p99_ms", "cpu-ms"),
    ("host.steal_frac", "frac"),
    ("asm.assemble_ms", "ms"),
    ("asm.predecode_us", "us"),
    ("verify.verify_ms", "ms"),
    ("verify.certified", "count"),
    ("compiled.compile_us", "us"),
    ("compiled.declined", "count"),
    ("sim.seq_interp_mbps", "MB/s"),
    ("sim.seq_compiled_mbps", "MB/s"),
    ("pool.speedup_interp", "x"),
    ("pool.speedup_compiled", "x"),
    ("sim.call_overhead_us", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.result_ms_p50", "ms"),
    ("serve.result_ms_p99", "ms"),
    ("serve.jobs_per_wave", "jobs"),
    ("serve.waves", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("serve.over_limit", "count"),
    ("wire.codec_us", "us"),
    ("socket.ping_us", "us"),
    ("journal.append_us_p50", "us"),
    ("journal.append_us_p99", "us"),
    ("journal.replay_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("store.build_ms", "ms"),
    ("store.load_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Kills a child that overruns this, so a hung workload fails instead
/// of outliving the run's time limit.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

/// First of the `--steady` held-out seeds.
const HOLDOUT_SEED: u64 = 0x4F1D_0000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    tmp: Option<PathBuf>,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
        tmp: None,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let num = |s: String| s.parse::<u64>().map_err(|e| format!("{s}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => a.seed = num(value("a number")?)?,
            "--seconds" => {
                let s = value("a number")?;
                a.seconds = s.parse::<f64>().map_err(|e| format!("{s}: {e}"))?;
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--steady" => a.steady = Some(num(value("a count")?)? as usize),
            "--child" => a.child = true,
            "--tmp" => a.tmp = Some(PathBuf::from(value("a directory")?)),
            "--write-digests" => {
                print!("{}", device::write_digests()?);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = if args.child {
        child_main(&args)
    } else if let Some(k) = args.steady {
        steady_main(&args, k)
    } else {
        run_main(&args)
    };
    std::process::exit(code);
}

/// All CPU time of the host so far, and the part of it the hypervisor
/// gave to other guests (steal), in clock ticks, from `/proc/stat`.
fn host_ticks() -> [f64; 2] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    [ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0.0)]
}

/// Every per-layer metric name with its unit, per-program rates included.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for prog in corpus::names() {
        names.push((format!("prog.{prog}.interp_mbps"), "MB/cpu-s"));
        names.push((format!("prog.{prog}.compiled_mbps"), "MB/cpu-s"));
    }
    names
}

/// Runs one workload in this process and reports through stdout lines
/// the parent reads: `@metric name value unit samples`, `@ops
/// attempted failed`, `@fail reason`.
fn child_main(args: &Args) -> i32 {
    let host0 = host_ticks();
    let tracer = Tracer::new(args.trace);
    let mut sheet = Sheet::default();
    let tmp = args
        .tmp
        .clone()
        .unwrap_or_else(|| PathBuf::from(".bench_tmp"));
    let result = match args.workload.as_str() {
        "device-stream" => device::run(
            &device::STREAM,
            args.seed,
            args.seconds,
            &mut sheet,
            &tracer,
        ),
        "device-small" => device::run(&device::SMALL, args.seed, args.seconds, &mut sheet, &tracer),
        "serve-open" => serve::run_open(args.seed, args.seconds, &mut sheet, &tracer),
        _ => serve::run_journaled(args.seed, args.seconds, &tmp, &mut sheet, &tracer),
    };
    if let Err(e) = result {
        sheet.op(Err(e));
    }
    sheet.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let host = host_ticks();
    let steal_frac = (host[1] - host0[1]) / (host[0] - host0[0]).max(1.0);
    sheet.put("host.steal_frac", steal_frac, "frac", 1);
    if args.trace {
        for (name, unit) in per_layer_names() {
            if name != "trace.overhead_frac" && sheet.get(&name).is_none() {
                sheet.put(name, 0.0, unit, 0);
            }
        }
        let out = PathBuf::from(".bench_out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&out) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), out.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", out.display()),
        }
    }
    for m in &sheet.metrics {
        println!("@metric {} {} {} {}", m.name, m.value, m.unit, m.samples);
    }
    for f in &sheet.failures {
        println!("@fail {}", f.replace('\n', " "));
    }
    println!("@ops {} {}", sheet.attempted, sheet.failed);
    0
}

/// What a child reported.
#[derive(Default)]
struct ChildResult {
    metrics: BTreeMap<String, Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    complete: bool,
}

/// Runs the workload in a child process and collects its report.
fn run_child(args: &Args, seed: u64, seconds: f64, trace: bool, tmp: &Path) -> ChildResult {
    let exe = std::env::current_exe().expect("current executable path");
    let spawned = Command::new(exe)
        .args(["--child", "--workload", &args.workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--tmp")
        .arg(tmp)
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            return ChildResult {
                failures: vec![format!("cannot start the workload process: {e}")],
                ..ChildResult::default()
            }
        }
    };
    let stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut r = ChildResult::default();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let mut f = line.split_whitespace();
            match f.next() {
                Some("@metric") => {
                    let parts: Vec<&str> = f.collect();
                    if let [name, value, unit, samples] = parts[..] {
                        r.metrics.insert(
                            name.to_string(),
                            Metric {
                                name: name.to_string(),
                                value: value.parse().unwrap_or(f64::NAN),
                                unit: unit.to_string(),
                                samples: samples.parse().unwrap_or(0),
                            },
                        );
                    }
                }
                Some("@ops") => {
                    r.attempted = f.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                    r.failed = f.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                    r.complete = true;
                }
                Some("@fail") => r.failures.push(line[6..].to_string()),
                _ => println!("{line}"),
            }
        }
        r
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if start.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(Duration::from_millis(50))
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let mut r = reader.join().expect("child reader panicked");
    match status {
        Some(s) if s.success() => {}
        Some(s) => {
            r.complete = false;
            r.failures.push(format!("workload process exited with {s}"));
        }
        None => {
            r.complete = false;
            r.failures
                .push(format!("workload process killed after {CHILD_LIMIT:?}"));
        }
    }
    r
}

/// A fresh per-run directory under `.bench_tmp/`.
fn run_dir(workload: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    PathBuf::from(".bench_tmp").join(format!("{workload}-{}-{nanos}", std::process::id()))
}

/// Runs `f` with a per-run directory that is removed afterwards.
fn with_run_dir<T>(workload: &str, f: impl FnOnce(&Path) -> T) -> T {
    let dir = run_dir(workload);
    let _ = std::fs::create_dir_all(&dir);
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds when no other run is using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn run_main(args: &Args) -> i32 {
    let (result, metrics) = with_run_dir(&args.workload, |dir| {
        if args.trace {
            let plain = run_child(args, args.seed, args.seconds / 2.0, false, dir);
            let mut traced = run_child(args, args.seed, args.seconds / 2.0, true, dir);
            let jobs = |r: &ChildResult| r.metrics.get("jobs_s").map_or(f64::NAN, |m| m.value);
            let overhead = jobs(&plain) / jobs(&traced) - 1.0;
            traced.metrics.insert(
                "trace.overhead_frac".into(),
                Metric {
                    name: "trace.overhead_frac".into(),
                    value: overhead,
                    unit: "frac".into(),
                    samples: 2,
                },
            );
            traced.attempted += plain.attempted;
            traced.failed += plain.failed;
            traced.complete &= plain.complete;
            traced.failures.extend(plain.failures);
            let names: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
            (traced, names)
        } else {
            let plain = run_child(args, args.seed, args.seconds, false, dir);
            (plain, END_TO_END.iter().map(|n| n.to_string()).collect())
        }
    });

    let mut correct = result.complete && result.failed == 0;
    let mut body = Vec::new();
    for name in &metrics {
        match result.metrics.get(name) {
            Some(m) => {
                println!(
                    "{:<34} {:>14.4} {:<9} n={}",
                    m.name, m.value, m.unit, m.samples
                );
                body.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                ));
            }
            None => {
                correct = false;
                println!("{name:<34} missing");
            }
        }
    }
    // Wall-clock figures and host steal ride along in the table, outside
    // the JSON.
    for m in result.metrics.values() {
        let aside = m.name.starts_with("wall.") || m.name.starts_with("host.");
        if aside && !metrics.contains(&m.name) {
            println!(
                "{:<34} {:>14.4} {:<9} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let attempted = result.attempted.max(1);
    println!(
        "{:<34} {:>14.6} {:<9} n={}",
        "fail_frac",
        result.failed as f64 / attempted as f64,
        "frac",
        result.attempted
    );
    for f in &result.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Runs the workload on `k` tuning seeds and `k` held-out seeds and
/// prints each end-to-end metric's median and IQR/median per set.
fn steady_main(args: &Args, k: usize) -> i32 {
    let sets = [("tuning", args.seed), ("holdout", HOLDOUT_SEED)];
    let mut medians: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut ok = true;
    for (label, base) in sets {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..k as u64 {
            let r = with_run_dir(&args.workload, |dir| {
                run_child(args, base + i, args.seconds, false, dir)
            });
            ok &= r.complete && r.failed == 0;
            for name in END_TO_END {
                if let Some(m) = r.metrics.get(*name) {
                    values.entry(name).or_default().push(m.value);
                }
            }
        }
        println!(
            "{} {label} seeds {base}..{}:",
            args.workload,
            base + k as u64
        );
        let mut meds = BTreeMap::new();
        for (name, xs) in &values {
            let spread = quartiles(xs).map_or(f64::NAN, |(q1, q2, q3)| (q3 - q1) / q2);
            let med = median(xs);
            let runs: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "  {name:<16} median {med:>12.4}  iqr/median {spread:>8.4}  runs [{}]",
                runs.join(" ")
            );
            meds.insert(*name, med);
        }
        medians.push(meds);
    }
    println!("{} holdout median vs tuning median:", args.workload);
    for (name, a) in &medians[0] {
        if let Some(b) = medians[1].get(name) {
            println!("  {name:<16} {:>+8.4}", b / a - 1.0);
        }
    }
    if ok {
        0
    } else {
        1
    }
}
