//! `serve_unique` and `serve_dup`: one generator thread keeps a fixed
//! window of jobs outstanding on a running `Serve` (a closed loop with more
//! jobs in flight than workers, so a queue stands), over three weighted
//! QoS tenants with execution dedup and program-hash batching enabled.
//!
//! - `serve_unique` gives every job freshly generated inputs, so dedup can
//!   never hit: the bypass case for any dedup or batching change.
//! - `serve_dup` draws every job from a small seeded pool of (program,
//!   input, slice) shapes, so nearly every job joins a leader or a
//!   memoized verdict.

use crate::common::{checked, table2_sources, trace_compile_layers, Checked, Rng, SCALE};
use crate::{nproc, stats, trace_overhead_pct, Ctx, Outcome, Sample};
use japonica_serve::{
    BatchConfig, DedupConfig, JobHandle, JobRequest, JobResult, QosConfig, ResourceRequest, Serve,
    ServeConfig, ServeError,
};
use japonica_workloads::{outputs_match, Workload};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    Unique,
    Dup,
}

/// Jobs the generator keeps outstanding: twice the workers here, so two
/// jobs always queue; a deeper window only lets DWRR starve the weight-2
/// tenant longer, which made latency vary between runs.
const WINDOW: usize = 4;
/// Large enough that no tenant's share (capacity × weight / 14) is below
/// the window, so the closed loop is never refused.
const QUEUE_CAPACITY: usize = 64;
/// DWRR weights of the three tenants.
const WEIGHTS: [u32; 3] = [8, 4, 2];
/// Device slices (SMs, CPU slots) a job may lease; any two fit at once.
const SLICES: [(u32, u32); 2] = [(7, 8), (4, 4)];
/// Pause between polls of the outstanding jobs when none has finished
/// (unique, dup): well under a job's latency, rarely enough that the
/// generator does not take a CPU from the workers.
const POLL: [Duration; 2] = [Duration::from_millis(1), Duration::from_micros(100)];
/// Set-ups per run.
const SETUP_REPS: usize = 5;
/// Jobs per throughput block (unique, dup): a whole deck of (program,
/// slice, tenant) triples for unique (about 2 s), about a second for dup.
const BLOCK: [usize; 2] = [66, 4096];
/// Nominal completed jobs per second (unique, dup), sizing traced runs.
const TRACED_JOBS_PER_S: [f64; 2] = [30.0, 4500.0];
/// One job in this many is traced (unique, dup).
const TRACE_STRIDE: [usize; 2] = [2, 16];

/// One job shape: program, inputs with their reference outputs, slice.
struct Shape {
    app: usize,
    io: Checked,
    slice: ResourceRequest,
}

fn shape(rng: &mut Rng, app: usize, slice: usize) -> Rc<Shape> {
    let (sms, cpus) = SLICES[slice % SLICES.len()];
    Rc::new(Shape {
        app,
        io: checked(&Workload::all()[app], SCALE, rng.next()),
        slice: ResourceRequest::new(sms, cpus),
    })
}

fn config() -> ServeConfig {
    ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        workers: nproc(),
        qos: QosConfig {
            weights: WEIGHTS.to_vec(),
        },
        dedup: DedupConfig {
            enabled: true,
            ..DedupConfig::default()
        },
        batch: BatchConfig::enabled(),
        ..ServeConfig::default()
    }
}

fn request(s: &Shape, tenant: u32) -> JobRequest {
    let w = &Workload::all()[s.app];
    JobRequest::new(
        w.source,
        w.entry,
        s.io.inst.args.clone(),
        s.io.inst.heap.clone(),
        s.slice,
    )
    .with_subloops(w.subloops)
    .with_tenant(tenant)
}

struct Pending {
    handle: JobHandle,
    shape: Rc<Shape>,
    op: usize,
    submit_ms: f64,
    span: Option<usize>,
    traced: bool,
}

/// Per-job samples the service reports alongside each result.
#[derive(Default)]
struct JobTimes {
    queue_ms: Vec<f64>,
    /// `latency_s − queued_s`: the job's own service time, which queueing
    /// behind other jobs does not move, so tracing overhead is measured
    /// on it.
    exec: Vec<Sample>,
}

fn submit(
    ctx: &mut Ctx,
    serve: &Serve,
    window: &mut VecDeque<Pending>,
    shape: Rc<Shape>,
    tenant: u32,
    op: usize,
) {
    let traced = ctx.tracer.select(op);
    let req = request(&shape, tenant);
    let span = ctx.tracer.begin("serve.job", op as u64, None);
    let sub = ctx.tracer.begin("serve.submit", op as u64, span);
    let t = Instant::now();
    let r = serve.submit(req);
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.end(sub);
    match r {
        Ok(handle) => window.push_back(Pending {
            handle,
            shape,
            op,
            submit_ms,
            span,
            traced,
        }),
        Err(e) => {
            ctx.tracer.end(span);
            ctx.check(Err(format!("job {op} refused: {e}")));
        }
    }
}

/// Check a finished job's outputs and record its samples.
fn harvest(
    ctx: &mut Ctx,
    p: Pending,
    result: Result<JobResult, ServeError>,
    samples: &mut Vec<Sample>,
    times: &mut JobTimes,
) {
    ctx.tracer.select(p.op);
    let chk = ctx.tracer.begin("serve.check", p.op as u64, p.span);
    let name = Workload::all()[p.shape.app].name;
    let verdict = result
        .map_err(|e| e.to_string())
        .and_then(|r| outputs_match(&r.heap, &p.shape.io.expected, &p.shape.io.inst).map(|()| r))
        .map_err(|e| match p.op {
            usize::MAX => format!("warm-up job ({name}): {e}"),
            op => format!("job {op} ({name}): {e}"),
        });
    ctx.tracer.end(chk);
    ctx.tracer.end(p.span);
    match verdict {
        Ok(r) => {
            ctx.check(Ok(()));
            let (class, traced, done) = (p.shape.app, p.traced, Instant::now());
            samples.push(Sample {
                class,
                ms: r.latency_s * 1e3 + p.submit_ms,
                traced,
                done,
            });
            times.queue_ms.push(r.queued_s * 1e3);
            times.exec.push(Sample {
                class,
                ms: (r.latency_s - r.queued_s) * 1e3,
                traced,
                done,
            });
        }
        Err(e) => {
            ctx.check(Err(e));
        }
    }
}

/// Harvest every outstanding job that has finished, in any order; sleeps
/// for `pause` when none has.
fn poll(
    ctx: &mut Ctx,
    window: &mut VecDeque<Pending>,
    pause: Duration,
    samples: &mut Vec<Sample>,
    times: &mut JobTimes,
) {
    let mut i = 0;
    let mut found = false;
    while i < window.len() {
        match window[i].handle.try_wait() {
            Some(result) => {
                let p = window.remove(i).expect("index in range");
                harvest(ctx, p, result, samples, times);
                found = true;
            }
            None => i += 1,
        }
    }
    if !found {
        std::thread::sleep(pause);
    }
}

struct State {
    serve: Serve,
    pool: Vec<Rc<Shape>>,
}

pub fn run(ctx: &mut Ctx, mix: Mix) -> Outcome {
    let napps = Workload::all().len();
    let dup = (mix == Mix::Dup) as usize;
    ctx.tracer.set_stride(TRACE_STRIDE[dup]);
    let mut layers = BTreeMap::new();
    let (state, setup_s) = ctx.repeated_setup(
        SETUP_REPS,
        |ctx, rep| {
            if rep == 0 {
                trace_compile_layers(ctx, &table2_sources(), &mut layers);
            }
            let serve = Serve::start(config());
            // The dup pool holds one shape per program, so only the input
            // values, never the program mix, change with the seed.
            let mut rng = Rng::new(ctx.seed, 0x5e7e_0001);
            let pool: Vec<Rc<Shape>> = (0..napps).map(|app| shape(&mut rng, app, app)).collect();
            // Warm-up: every pool shape once, so the program, kernel and
            // (for dup) dedup caches are filled.
            let mut window = VecDeque::new();
            for (i, s) in pool.iter().cloned().enumerate() {
                submit(
                    ctx,
                    &serve,
                    &mut window,
                    s,
                    (i % WEIGHTS.len()) as u32,
                    usize::MAX,
                );
            }
            let (mut sink, mut times) = (Vec::new(), JobTimes::default());
            while !window.is_empty() {
                poll(ctx, &mut window, POLL[dup], &mut sink, &mut times);
            }
            State { serve, pool }
        },
        |old| drop(old.serve.shutdown()),
    );
    let State { serve, pool } = state;

    let limit = ctx
        .tracer
        .on()
        .then(|| ctx.traced_work(TRACED_JOBS_PER_S[dup], 4 * WINDOW));
    let mut rng = Rng::new(ctx.seed, 0x5e7e_0002);
    let mut window = VecDeque::new();
    let mut samples = Vec::new();
    let mut times = JobTimes::default();
    let mut submitted = 0usize;
    let mut deck: Vec<usize> = Vec::new();
    let t0 = Instant::now();
    loop {
        let stop = match limit {
            Some(n) => submitted >= n,
            None => t0.elapsed().as_secs_f64() >= ctx.seconds,
        };
        if !stop && window.len() < WINDOW {
            // (program, slice, tenant) triples are dealt from a shuffled
            // deck, so every run sees the same mix whatever the seed.
            if deck.is_empty() {
                deck = (0..napps * SLICES.len() * WEIGHTS.len()).collect();
                rng.shuffle(&mut deck);
            }
            let d = deck.pop().expect("deck refilled");
            let (app, slice) = (d % napps, d / napps % SLICES.len());
            let tenant = (d / napps / SLICES.len()) as u32;
            let s = match mix {
                Mix::Dup => Rc::clone(&pool[app]),
                Mix::Unique => shape(&mut rng, app, slice),
            };
            submit(ctx, &serve, &mut window, s, tenant, submitted);
            submitted += 1;
            continue;
        }
        if window.is_empty() {
            break;
        }
        poll(ctx, &mut window, POLL[dup], &mut samples, &mut times);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let st = serve.shutdown();

    let ratio = |a: u64, b: u64| a as f64 / (b.max(1)) as f64;
    let join_ratio = ratio(st.dedup_joins, st.completed);
    ctx.check(if st.rejected_full == 0 && st.accounts_for_every_job() {
        Ok(())
    } else {
        Err(format!(
            "service refused {} jobs as queue-full or broke its accounting",
            st.rejected_full
        ))
    });
    ctx.check(match mix {
        Mix::Unique if st.dedup_joins != 0 => Err(format!(
            "serve_unique must bypass dedup, but {} jobs joined",
            st.dedup_joins
        )),
        Mix::Dup if join_ratio <= 0.5 => Err(format!(
            "serve_dup must be dedup-dominated, but only {join_ratio:.3} of jobs joined"
        )),
        _ => Ok(()),
    });

    if ctx.tracer.on() {
        let submit_ms: Vec<f64> = ctx
            .tracer
            .by_name()
            .get("serve.submit")
            .into_iter()
            .flatten()
            .map(|(_, ms)| *ms)
            .collect();
        let queue = stats::sorted(&times.queue_ms);
        let (khits, kmiss) = st
            .device_kernels
            .iter()
            .fold((0, 0), |(h, m), d| (h + d.hits, m + d.misses));
        layers.extend([
            ("serve.submit_us", stats::median(&submit_ms) * 1e3),
            ("serve.queue_p50_ms", stats::percentile(&queue, 50.0)),
            (
                "serve.queue_tail_ms",
                stats::percentile(&queue, stats::tail_pct_for(queue.len())),
            ),
            (
                "serve.exec_ms",
                stats::median(&times.exec.iter().map(|s| s.ms).collect::<Vec<_>>()),
            ),
            ("serve.executions", st.executions as f64),
            ("serve.dedup_joins", st.dedup_joins as f64),
            ("serve.dedup_join_ratio", join_ratio),
            (
                "serve.program_cache_hit_ratio",
                ratio(
                    st.program_cache_hits,
                    st.program_cache_hits + st.program_cache_misses,
                ),
            ),
            ("serve.kernel_cache_hit_ratio", ratio(khits, khits + kmiss)),
            ("serve.sm_occupancy", st.sm_occupancy),
        ]);
        // Executed jobs' own service time is what tracing could slow; dup
        // jobs join memoized verdicts and have none, so their latency is
        // compared instead (the default).
        if mix == Mix::Unique {
            layers.insert("trace.overhead_pct", trace_overhead_pct(&times.exec, napps));
        }
    }

    Outcome {
        setup_s,
        samples,
        classes: Workload::all().iter().map(|w| w.name.to_string()).collect(),
        cells: napps,
        started: t0,
        elapsed_s,
        block: BLOCK[dup],
        layers,
        config: vec![
            format!(
                "workers={} window={WINDOW} queue_capacity={QUEUE_CAPACITY} tenants={WEIGHTS:?} dedup=on batch=on scale={SCALE} slices={SLICES:?}",
                nproc()
            ),
            format!(
                "submitted={submitted} executions={} dedup_joins={} (ratio base: {} completed incl. warm-up) rejected_full={}",
                st.executions, st.dedup_joins, st.completed, st.rejected_full
            ),
            match mix {
                Mix::Dup => format!("pool={napps} shapes, one per program"),
                Mix::Unique => "every job has freshly generated inputs".to_string(),
            },
        ],
    }
}
