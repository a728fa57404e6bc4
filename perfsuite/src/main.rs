//! # japonica-perfsuite
//!
//! One benchmark command over the public APIs of `japonica` (compiler and
//! heterogeneous runtime), `japonica-serve` and `japonica-session`:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfsuite/Cargo.toml -- \
//!     --workload table2|serve_unique|serve_dup|session_edit \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every operation's output is checked against an independent reference
//! outside the timed spans. The last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); the lines before
//! it give each metric with its sample count. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs a fixed, seed-determined amount of
//! work, records spans around every call into a layer and reports the
//! per-layer metrics, writing the spans to `perfsuite/out/`. See
//! `perfsuite/README.md` for what each metric means and should move.

mod common;
mod serve;
mod session;
mod stats;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["table2", "serve_unique", "serve_dup", "session_edit"];

/// The percentile `tail_ms` reports on every workload. Fixed, so it cannot
/// jump between runs; each workload leaves far more than 10 samples
/// beyond it. Higher percentiles swing with the machine's contention
/// more than any bound allows, so they are printed but not gated.
const TAIL_PCT: f64 = 90.0;

/// End-to-end metrics (`--trace 0`), as listed in BENCHMARK.json.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cell_geomean_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), as listed in BENCHMARK.json. A
/// workload that does not reach a layer reports it as 0 and names it on
/// the `not-applicable` line.
const PER_LAYER: [(&str, &str); 36] = [
    ("frontend.compile_source_ms", "ms"),
    ("analysis.analyze_program_ms", "ms"),
    ("analysis.build_pdg_ms", "ms"),
    ("lint.lint_ms", "ms"),
    ("cpuexec.serial_ms", "ms"),
    ("cpuexec.cpu16_ms", "ms"),
    ("gpusim.gpu_ms", "ms"),
    ("scheduler.sharing_ms", "ms"),
    ("scheduler.stealing_ms", "ms"),
    ("gpusim.gpu_iters", "count"),
    ("cpuexec.cpu_iters", "count"),
    ("scheduler.bytes_moved", "bytes"),
    ("scheduler.stolen_tasks", "count"),
    ("tls.violations", "count"),
    ("tls.recovered_iters", "count"),
    ("profiler.loops_profiled", "count"),
    ("serve.submit_us", "us"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_tail_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.executions", "count"),
    ("serve.dedup_joins", "count"),
    ("serve.dedup_join_ratio", "ratio"),
    ("serve.program_cache_hit_ratio", "ratio"),
    ("serve.kernel_cache_hit_ratio", "ratio"),
    ("serve.sm_occupancy", "ratio"),
    ("session.open_ms", "ms"),
    ("session.load_p50_ms", "ms"),
    ("session.load_tail_ms", "ms"),
    ("session.run_ms", "ms"),
    ("session.close_ms", "ms"),
    ("session.reused_kernels", "count"),
    ("session.recompiled_kernels", "count"),
    ("session.invalidations", "count"),
    ("session.reuse_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// State shared by every workload: arguments, tracer, check counters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: trace::Tracer,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    process_start: Instant,
}

impl Ctx {
    /// Count one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    /// Fixed work for a traced run: `per_second` units for each second
    /// asked for, at least `min`. A function of the arguments only, so two
    /// traced runs with one seed do identical work.
    pub fn traced_work(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds * per_second).round() as usize).max(min)
    }

    /// Run `setup` `reps` times, tearing the previous state down (untimed)
    /// before each repetition; keeps the last state. The first repetition
    /// is timed from process start. `setup_s` is the median.
    pub fn repeated_setup<S>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut(&mut Ctx, usize) -> S,
        mut teardown: impl FnMut(S),
    ) -> (S, Vec<f64>) {
        let mut times = Vec::new();
        let mut state = None;
        for rep in 0..reps {
            if let Some(old) = state.take() {
                teardown(old);
            }
            let t0 = if rep == 0 {
                self.process_start
            } else {
                Instant::now()
            };
            self.tracer.select_all();
            let s = setup(self, rep);
            times.push(t0.elapsed().as_secs_f64());
            state = Some(s);
        }
        (state.expect("at least one set-up"), times)
    }
}

/// One timed operation.
pub struct Sample {
    /// Index into [`Outcome::classes`].
    pub class: usize,
    pub ms: f64,
    /// Whether the operation's spans were recorded.
    pub traced: bool,
    /// When the generator saw the operation complete.
    pub done: Instant,
}

/// What a workload measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Names of the operation classes.
    pub classes: Vec<String>,
    /// `cell_geomean_ms` is the geometric mean of the medians of the first
    /// `cells` classes; later classes are bookkeeping operations.
    pub cells: usize,
    /// Start and wall seconds of the timed phase.
    pub started: Instant,
    pub elapsed_s: f64,
    /// Operations per throughput block: `jobs_per_s` is the median over
    /// consecutive blocks of this many completions, so a slow phase of
    /// the machine moves it only if it covers half the run.
    pub block: usize,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Configuration lines to print.
    pub config: Vec<String>,
}

/// Per class, the median of the samples' times (only traced or only
/// untraced samples when `traced` is given); `None` for an empty class.
fn class_medians(samples: &[Sample], classes: usize, traced: Option<bool>) -> Vec<Option<f64>> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for s in samples {
        if traced.is_none_or(|t| t == s.traced) {
            per[s.class].push(s.ms);
        }
    }
    per.iter()
        .map(|v| (!v.is_empty()).then(|| stats::median(v)))
        .collect()
}

/// Traced-minus-untraced operation time as a percentage: the geometric
/// mean over classes of median traced / median untraced, minus one.
pub fn trace_overhead_pct(samples: &[Sample], classes: usize) -> f64 {
    let ratios: Vec<f64> = class_medians(samples, classes, Some(true))
        .into_iter()
        .zip(class_medians(samples, classes, Some(false)))
        .filter_map(|(t, u)| Some(t? / u?))
        .collect();
    (stats::geomean(&ratios) - 1.0) * 100.0
}

impl Outcome {
    /// Median over consecutive blocks of `block` completions of each
    /// block's completions per second; the plain rate when no block is
    /// complete. Returns the rate and the number of blocks.
    fn jobs_per_s(&self) -> (f64, usize) {
        let mut done: Vec<Instant> = self.samples.iter().map(|s| s.done).collect();
        done.sort();
        let mut rates = Vec::new();
        let mut from = self.started;
        for chunk in done.chunks_exact(self.block.max(1)) {
            let to = chunk[chunk.len() - 1];
            rates.push(chunk.len() as f64 / to.duration_since(from).as_secs_f64().max(1e-9));
            from = to;
        }
        if rates.is_empty() {
            return (done.len() as f64 / self.elapsed_s.max(1e-9), 0);
        }
        (stats::median(&rates), rates.len())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

/// Peak resident set of this process in MB (`VmHWM`).
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

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            eprintln!(
                "usage: perfsuite --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        process_start,
    };
    let out = match args.workload.as_str() {
        "table2" => table2::run(&mut ctx),
        "serve_unique" => serve::run(&mut ctx, serve::Mix::Unique),
        "serve_dup" => serve::run(&mut ctx, serve::Mix::Dup),
        _ => session::run(&mut ctx),
    };
    let rss = peak_rss_mb();

    println!(
        "perfsuite workload={} seed={} seconds={} trace={} nproc={} engine=bytecode host_threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for line in &out.config {
        println!("  config {line}");
    }
    let all: Vec<f64> = out.samples.iter().map(|s| s.ms).collect();
    let sorted = stats::sorted(&all);
    let n = sorted.len();
    let p50 = stats::percentile(&sorted, 50.0);
    let (jobs_per_s, blocks) = out.jobs_per_s();
    let medians: Vec<f64> = class_medians(&out.samples, out.classes.len(), None)
        .into_iter()
        .take(out.cells)
        .flatten()
        .collect();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = out.layers.clone();
        layers
            .entry("trace.overhead_pct")
            .or_insert_with(|| trace_overhead_pct(&out.samples, out.classes.len()));
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !layers.contains_key(name))
            .collect();
        for (name, unit) in PER_LAYER {
            if let Some(v) = layers.get(name) {
                println!("  layer {name} = {v} {unit}");
            }
        }
        println!("  not-applicable (reported as 0): {}", missing.join(" "));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write(&path) {
            Ok(n) => println!("  {n} spans written to {}", path.display()),
            Err(e) => eprintln!("perfsuite: cannot write {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, layers.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    } else {
        let tail = stats::percentile(&sorted, TAIL_PCT);
        let beyond = stats::beyond(&sorted, TAIL_PCT);
        let setup = stats::median(&out.setup_s);
        let geo = stats::geomean(&medians);
        let values = [setup, rss, jobs_per_s, p50, tail, geo];
        let notes = [
            format!("median of {} set-ups {:?}", out.setup_s.len(), out.setup_s),
            "VmHWM of the benchmark process".to_string(),
            format!(
                "median over {blocks} blocks of {} ops; {n} ops in {:.3} s of timed run",
                out.block, out.elapsed_s
            ),
            format!("n={n}"),
            format!(
                "p{} of n={n}, {beyond} samples beyond; p90={} p95={} p99={} p99.9={}",
                TAIL_PCT,
                stats::percentile(&sorted, 90.0),
                stats::percentile(&sorted, 95.0),
                stats::percentile(&sorted, 99.0),
                stats::percentile(&sorted, 99.9)
            ),
            format!(
                "geomean over {} classes of each class's median",
                medians.len()
            ),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .zip(&notes)
            .map(|(((name, unit), v), note)| {
                println!("  metric {name} = {v} {unit} ({note})");
                (*name, v, *unit)
            })
            .collect()
    };
    for e in &ctx.errors {
        eprintln!("perfsuite: FAILED {e}");
    }
    if ctx.attempted == 0 {
        ctx.check(Err("no operation ran".to_string()));
    }
    let correct = ctx.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.attempted,
        ctx.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
