//! Host-time benchmark of the Count2Multiply simulator.
//!
//! ```text
//! perfbench --workload <serve_sweep|kernel_cold|bit_accurate> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--corrupt-reference] [--spans-out <file>]
//! ```
//!
//! One caller drives one workload in a closed loop: the next op starts
//! when the previous one returns. Every input is generated here from
//! `--seed`; the simulator only receives the generated inputs. Each op
//! is timed with tracing off, and its output is checked after the timer
//! stops. All times are host time (what the simulator takes), never
//! simulated time.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced for the same number of ops, and
//! prints the per-layer metrics and the tracing overhead. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits with 1 when any op failed its check, 2 on bad
//! arguments.

mod bit_accurate;
mod kernel_cold;
mod serve_sweep;
mod spans;
mod util;

use spans::Tracer;
use std::time::{Duration, Instant};

/// The measured phase lasts at least `--seconds` and this many ops, so
/// the p99 has far more than ten samples beyond it. `peak_rss_mb` is
/// read once this many ops ran: a fixed amount of work, so cache growth
/// shows without depending on how many ops the run's host time allowed.
const MIN_OPS: usize = 2000;
/// A measured phase stops here even short of `MIN_OPS`, so a run
/// always ends well inside the 180 s a run may take.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Set-ups per `--trace 0` run; `setup_s` is their median. The first
/// runs before the measured phase, the others are spread through it, so
/// that they sample the shared host's speed at different moments rather
/// than all within one short stretch of it.
const SETUP_REPEATS: usize = 5;
/// The simulated-output digest covers ops `0..DIGEST_OPS`.
const DIGEST_OPS: u64 = 1000;
/// Set-up ends with one untimed pass over the rotation on op ids from
/// here, so lazy set-up and cache fills finish before timing starts
/// without replaying any measured op's inputs.
const WARMUP_ID: u64 = 1 << 62;

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// never enters reads 0.
const PER_LAYER: [(&str, &str); 25] = [
    ("serve.runtime.run_ms", "ms"),
    ("serve.runtime.self_ms", "ms"),
    ("serve.runtime.sim_req_per_s", "1/s"),
    ("serve.runtime.batches", "count"),
    ("core.engine.hit_launch_us", "us"),
    ("core.engine.stream_lookup_us", "us"),
    ("dram.request_queue.req_per_s", "1/s"),
    ("core.cache.plan_hit_ratio", "ratio"),
    ("core.cache.stream_hit_ratio", "ratio"),
    ("core.cache.report_hit_ratio", "ratio"),
    ("core.engine.cold_launch_us.gemv", "us"),
    ("core.engine.cold_launch_us.gemm", "us"),
    ("core.engine.cold_launch_us.batch", "us"),
    ("jc.iarm.seqs_per_s", "1/s"),
    ("jc.iarm.seqs", "count"),
    ("core.shard.plan_us", "us"),
    ("core.engine.fold_us", "us"),
    ("jc.bank.increments_per_s", "1/s"),
    ("jc.bank.ambit_ops", "count"),
    ("ecc.protect.retry_ratio", "ratio"),
    ("core.kernels.gemv_us", "us"),
    ("jc.ambit_lower.lower_us", "us"),
    ("cim.ambit.cmds_per_s", "1/s"),
    ("dram.scheduler.cmds_per_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload <serve_sweep|kernel_cold|bit_accurate> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--corrupt-reference] [--spans-out <file>]";

/// Input scale. `Tiny` shrinks every op for the benchmark's own test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

pub struct Args {
    workload: String,
    pub seed: u64,
    seconds: u64,
    trace: bool,
    pub size: Size,
    /// Corrupts one reference on purpose, to show the check can fail.
    pub corrupt: bool,
    spans_out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut size, mut corrupt, mut spans_out) = (Size::Full, false, None);
        while let Some(flag) = it.next() {
            if flag == "--corrupt-reference" {
                corrupt = true;
                continue;
            }
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = Some(num(&val)?),
                "--seconds" => seconds = Some(num(&val)?),
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                    });
                }
                "--size" => {
                    size = match val.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("--size takes full or tiny, got {val}")),
                    };
                }
                "--spans-out" => spans_out = Some(val),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds must be within 1..=60, got {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            size,
            corrupt,
            spans_out,
        })
    }

    fn min_ops(&self, cycle: usize) -> usize {
        match self.size {
            Size::Full => MIN_OPS,
            Size::Tiny => 4 * cycle,
        }
    }
}

/// One op's outcome: host time of the timed region, whether its checks
/// passed, and a digest of the simulated output it produced.
pub struct OpResult {
    pub ns: u64,
    pub ok: bool,
    pub digest: u64,
}

pub trait Workload {
    /// Ops per pass over the workload's fixed rotation of
    /// configurations; measured phases end on a whole pass.
    fn cycle(&self) -> usize;
    /// Runs op `id`. Inputs are made before the timer starts and the
    /// checks run after it stops. With a tracer, each layer call is
    /// wrapped in a span (replayed after the op where the call is
    /// internal to the simulator) and per-layer counts are kept.
    fn op(&mut self, id: u64, tracer: Option<&mut Tracer>) -> OpResult;
    /// Per-layer metrics of the traced ops.
    fn layer_metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64)>;
}

fn main() {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "serve_sweep" => run(&args, process_start, serve_sweep::ServeSweep::setup),
        "kernel_cold" => run(&args, process_start, kernel_cold::KernelCold::setup),
        "bit_accurate" => run(&args, process_start, bit_accurate::BitAccurate::setup),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Outcome tally of a run of ops.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    times_ns: Vec<u64>,
    digest_ops: u64,
    digest: u64,
}

impl Tally {
    fn record(&mut self, id: u64, r: &OpResult) {
        self.attempted += 1;
        self.failed += usize::from(!r.ok);
        self.times_ns.push(r.ns);
        if id < DIGEST_OPS {
            self.digest = self.digest.rotate_left(5) ^ r.digest;
            self.digest_ops += 1;
        }
    }
}

/// Runs ops `first..` until at least `min_time` has passed and
/// `min_ops` ran, ending on a whole cycle (or at the hard cap). Once
/// `min_ops` ops ran, `extra_setups` calls of `set_up` are spread evenly
/// over the rest of `min_time`, between ops; their time does not count
/// as phase time. Returns the op count and the peak RSS once `min_ops`
/// ops ran, which is before any of those set-ups.
fn phase<W: Workload>(
    w: &mut W,
    first: u64,
    min_time: Duration,
    min_ops: usize,
    tally: &mut Tally,
    extra_setups: usize,
    set_up: &mut dyn FnMut(),
) -> (usize, f64) {
    let cycle = w.cycle();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let (mut done, mut setups) = (0usize, 0usize);
    let mut rss = 0.0;
    // When `min_ops` ops had run, and the gap between set-ups from then.
    let mut schedule = None;
    loop {
        let id = first + done as u64;
        let r = w.op(id, None);
        tally.record(id, &r);
        done += 1;
        if done == min_ops {
            rss = peak_rss_mb();
            let at = start.elapsed() - paused;
            schedule = Some((at, min_time.saturating_sub(at) / (extra_setups as u32 + 1)));
        }
        if done.is_multiple_of(cycle) {
            let el = start.elapsed() - paused;
            if let Some((at, gap)) = schedule {
                if setups < extra_setups && el >= at + gap * (setups as u32 + 1) {
                    let t = Instant::now();
                    set_up();
                    paused += t.elapsed();
                    setups += 1;
                    continue;
                }
            }
            if (el >= min_time && done >= min_ops && setups == extra_setups) || el >= HARD_CAP {
                return (done, if rss > 0.0 { rss } else { peak_rss_mb() });
            }
        }
    }
}

/// One set-up: the workload's construction and its warm-up pass.
fn set_up<W: Workload>(args: &Args, setup: fn(&Args) -> W) -> W {
    let mut w = setup(args);
    for i in 0..w.cycle() {
        w.op(WARMUP_ID + i as u64, None);
    }
    w
}

fn run<W: Workload>(args: &Args, process_start: Instant, setup: fn(&Args) -> W) -> i32 {
    let threads = rayon::current_num_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "threads: 1 caller (closed loop) + engine pool of {threads} (nproc {nproc}); the caller blocks while the pool runs"
    );
    let mut w = set_up(args, setup);
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    let cycle = w.cycle();
    let seconds = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        // Untraced for half the time, then traced for the same op
        // count on fresh op ids (a repeated id would hit the caches).
        let t = Instant::now();
        let (n, _) = phase(&mut w, 0, seconds / 2, cycle, &mut tally, 0, &mut || {});
        let untraced_s = t.elapsed().as_secs_f64();
        let mut tracer = Tracer::new();
        let t = Instant::now();
        for i in 0..n {
            let id = (n + i) as u64;
            let r = w.op(id, Some(&mut tracer));
            tally.record(id, &r);
        }
        let traced_s = t.elapsed().as_secs_f64();
        let (untraced_rate, traced_rate) = (n as f64 / untraced_s, n as f64 / traced_s);
        let overhead = 100.0 * (untraced_rate - traced_rate) / untraced_rate;
        println!(
            "tracing: {n} ops untraced at {untraced_rate:.3} ops/s, {n} ops traced at {traced_rate:.3} ops/s (overhead {overhead:.2}%)"
        );
        let layer = w.layer_metrics(&tracer);
        for (name, unit) in PER_LAYER {
            let value = if name == "bench.trace_overhead_pct" {
                overhead
            } else {
                layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v)
            };
            metrics.push((name, unit, value));
        }
        if let Some(path) = &args.spans_out {
            match tracer.write_json(path) {
                Ok(()) => println!("spans: written to {path}"),
                Err(e) => eprintln!("perfbench: cannot write spans to {path}: {e}"),
            }
        }
    } else {
        let min_ops = args.min_ops(cycle);
        let extra = SETUP_REPEATS - 1;
        let (n, rss) = phase(&mut w, 0, seconds, min_ops, &mut tally, extra, &mut || {
            let t = Instant::now();
            let fresh = set_up(args, setup);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(fresh);
        });
        let stats = latency_stats(&tally.times_ns);
        let setup_median = median(&mut setup_s.clone());
        println!(
            "ops: {n} timed ({} passes of {cycle}); latency samples {n}, {} beyond p99",
            n / cycle,
            stats.beyond_p99
        );
        println!(
            "peak_rss_mb: {rss:.3} after {min_ops} ops, {:.3} at the end",
            peak_rss_mb()
        );
        println!("setup_s samples: {setup_s:?} (median reported)");
        metrics.extend([
            ("ops_per_s", "1/s", stats.ops_per_s),
            ("op_p50_ms", "ms", stats.p50_ms),
            ("op_p99_ms", "ms", stats.p99_ms),
            ("setup_s", "s", setup_median),
            ("peak_rss_mb", "MB", rss),
            (
                "success_ratio",
                "ratio",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            ),
        ]);
    }
    let error_rate = tally.failed as f64 / tally.attempted as f64;
    println!(
        "error_rate: {error_rate} ({} failed / {} attempted)",
        tally.failed, tally.attempted
    );
    println!(
        "sim_digest: {:016x} over ops 0..{}",
        tally.digest, tally.digest_ops
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    i32::from(tally.failed > 0)
}

struct LatencyStats {
    ops_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    beyond_p99: usize,
}

/// Throughput (ops per host second spent in ops) and nearest-rank
/// latency percentiles of the measured ops.
fn latency_stats(times_ns: &[u64]) -> LatencyStats {
    let mut t = times_ns.to_vec();
    t.sort_unstable();
    let n = t.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    LatencyStats {
        ops_per_s: n as f64 / (t.iter().sum::<u64>() as f64 / 1e9),
        p50_ms: t[rank(0.5) - 1] as f64 / 1e6,
        p99_ms: t[rank(0.99) - 1] as f64 / 1e6,
        beyond_p99: n - rank(0.99),
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
