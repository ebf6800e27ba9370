//! What every workload shares: the metric sheet it fills, the span
//! recorder of the traced run, and the order statistics both use.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One named measurement with its unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Everything one workload run reports: operation counts and metrics.
#[derive(Debug, Default)]
pub struct Sheet {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reasons for each failed operation (capped).
    pub failures: Vec<String>,
}

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str, samples: usize) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} set twice");
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counts one attempted operation; `Err` counts it failed too.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<u32>,
    /// The operation (device call or served job) the span belongs to.
    pub job: u64,
}

/// In-memory span recorder. Disabled, `record` costs one branch; the
/// untraced run measures end-to-end numbers with it disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its id (0 when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            name,
            start,
            end,
            parent,
            job,
        });
        id
    }

    /// Opens a span now; [`Tracer::finish`] closes it. For spans that
    /// are parents of others, whose end is not known when children
    /// are recorded.
    pub fn begin(&self, name: &'static str, parent: Option<u32>, job: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, job, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn finish(&self, id: u32) {
        if id == 0 {
            return;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        if let Some(s) = spans.get_mut(id as usize - 1) {
            s.end = Instant::now();
        }
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.duration_since(s.start).as_secs_f64())
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"job\":{}}}",
                s.id,
                s.name,
                us(s.start),
                us(s.end),
                parent,
                s.job
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// An empty vector whose room for `n` items is written once, so that
/// it is resident from the start. Filling reserved but untouched room
/// would grow peak RSS with the number of items, that is with the
/// throughput: serve-journaled's client records moved `peak_rss_mb`
/// between 11 and 15.5 MB.
pub fn resident<T: Clone>(n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, fill);
    v.clear();
    v
}

/// Samples of one measured phase, stamped with when each completed.
/// Rates are taken per time slice and the median over slices is
/// reported, so a burst of load from outside the benchmark moves one
/// slice rather than the run's figure.
pub struct Timeline {
    start: Instant,
    end: Instant,
    samples: Vec<(Instant, f64)>,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline::with_capacity(0)
    }

    /// A timeline with resident room for `n` samples (see `resident`).
    pub fn with_capacity(n: usize) -> Timeline {
        let now = Instant::now();
        Timeline {
            start: now,
            end: now,
            samples: resident(n, (now, 0.0)),
        }
    }

    pub fn push(&mut self, at: Instant, value: f64) {
        self.samples.push((at, value));
        self.end = self.end.max(at);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Seconds from the start to the last sample.
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// `n` equal time slices of the phase: (seconds, values) each.
    fn slices(&self, n: usize) -> Vec<(f64, Vec<f64>)> {
        let total = self.end.duration_since(self.start).as_secs_f64();
        let mut out: Vec<(f64, Vec<f64>)> =
            (0..n).map(|_| (total / n as f64, Vec::new())).collect();
        for &(at, v) in &self.samples {
            let t = at.duration_since(self.start).as_secs_f64();
            let i = ((t / total * n as f64) as usize).min(n - 1);
            out[i].1.push(v);
        }
        out
    }
}

/// Median over the slices of `phases` of completions per second, where
/// each sample's value is how many completed at its time.
pub fn sliced_rate(phases: &[&Timeline], per_phase: usize) -> f64 {
    let per: Vec<f64> = phases
        .iter()
        .flat_map(|t| t.slices(per_phase))
        .filter(|(secs, _)| *secs > 0.0)
        .map(|(secs, v)| v.iter().sum::<f64>() / secs)
        .collect();
    median(&per)
}

/// Repetitions of a workload's set-up, spread evenly over a phase of
/// the run. The run's own set-up comes first; the repetitions that
/// follow it back to back all see the host as it was during those few
/// milliseconds (serve-open's 101 set-ups read 0.35 ms in some runs
/// and 0.7 ms in others, each run within 5%), so `setup_s`, the
/// median over all of them, takes the rest at evenly spaced times.
pub struct Spread {
    start: Instant,
    seconds: f64,
    reps: usize,
    done: usize,
}

impl Spread {
    /// `reps` repetitions over the `seconds` from now.
    pub fn new(reps: usize, seconds: f64) -> Spread {
        Spread {
            start: Instant::now(),
            seconds,
            reps,
            done: 0,
        }
    }

    /// Whether the next repetition is due, counting it if so.
    pub fn due(&mut self) -> bool {
        let at = self.seconds * self.done as f64 / self.reps as f64;
        let due = self.done < self.reps && self.start.elapsed().as_secs_f64() >= at;
        self.done += usize::from(due);
        due
    }

    /// Repetitions not yet made, which the phase ended before.
    pub fn left(&self) -> usize {
        self.reps - self.done
    }
}

/// A call site's cost (one input set on one backend): the lower decile
/// of the CPU times of its calls, which are spread over the whole run.
/// Other tenants of a shared host slow a call, through the caches and
/// memory bandwidth they share, and never speed one up: with two
/// memory-copying processes beside serve-journaled's one-row calls,
/// the median call time rose 17% and the lower decile held within 1%.
pub fn site_cost(cpu: &[f64]) -> f64 {
    percentile(cpu, 0.1)
}

/// `call_p50_ms` from each backend's site costs in seconds: per
/// backend the median site, then the geometric mean over the backends.
/// One median over both backends' sites would fall between their two
/// modes, on whichever single site is the faster backend's slowest.
pub fn call_p50_ms(site_costs: &[Vec<f64>; 2]) -> f64 {
    geomean(&[median(&site_costs[0]), median(&site_costs[1])]) * 1e3
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The pool's speedup: per call site, the upper quartile of its
/// sequential-over-pooled wall-time ratios, then the geometric mean
/// over sites. A pooled call waits for its slowest lane, so time the
/// hypervisor takes from either vCPU drags its ratio down; the upper
/// quartile holds the calls it spared.
pub fn pool_speedup<'a>(ratios: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let per: Vec<f64> = ratios.into_iter().map(|r| percentile(r, 0.75)).collect();
    geomean(&per)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, which is how run-to-run spread
/// is judged. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// CPU time consumed so far by this process, all its threads included
/// (`CLOCK_PROCESS_CPUTIME_ID`), in seconds. Unlike wall time it leaves
/// out time the host's hypervisor gave to other guests, which on a
/// shared host moves wall-clock rates far more than any code change.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of 64-bit Linux (`time_t` and `long` are both 64 bits), and
    // the clock id is a valid constant; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic xorshift64* generator: the only source of benchmark
/// randomness besides the seeded workload generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a 64 over a sequence of byte slices.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.99), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
