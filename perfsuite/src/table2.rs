//! `table2`: every Table II application under serial / cpu16 / gpu /
//! sharing / stealing, compiled once in set-up, with the 55 cells run in a
//! fresh seeded order on every pass so a slow phase of the machine falls
//! on all cells alike.

use crate::common::{checked, table2_sources, trace_compile_layers, Checked, Rng, SCALE};
use crate::{stats, Ctx, Outcome, Sample};
use japonica::ir::{Heap, Scheme};
use japonica::{run_baseline, Baseline, Compiled, RunReport, Runtime, RuntimeConfig};
use japonica_workloads::{outputs_match, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Table II columns: label, the layer span each cell is recorded under,
/// and the per-layer metric (geomean over apps of each cell's median).
const VARIANTS: [(&str, &str, &str); 5] = [
    ("serial", "cpuexec.serial", "cpuexec.serial_ms"),
    ("cpu16", "cpuexec.cpu16", "cpuexec.cpu16_ms"),
    ("gpu", "gpusim.gpu", "gpusim.gpu_ms"),
    ("sharing", "scheduler.sharing", "scheduler.sharing_ms"),
    ("stealing", "scheduler.stealing", "scheduler.stealing_ms"),
];

/// Variants per app: cell `c` is app `c / NV` under variant `c % NV`.
const NV: usize = VARIANTS.len();

/// Exact simulation counts summed from `RunReport`s.
const COUNTS: [&str; 7] = [
    "gpusim.gpu_iters",
    "cpuexec.cpu_iters",
    "scheduler.bytes_moved",
    "scheduler.stolen_tasks",
    "tls.violations",
    "tls.recovered_iters",
    "profiler.loops_profiled",
];

/// Set-ups per run (each includes a whole warm-up pass).
const SETUP_REPS: usize = 3;

/// Nominal cells per second, sizing the fixed work of a traced run.
const TRACED_CELLS_PER_S: f64 = 15.0;

struct App {
    w: &'static Workload,
    compiled: Compiled,
    io: Checked,
    /// Runtime configuration per variant (built once, outside the spans).
    cfgs: [RuntimeConfig; 5],
}

fn configs(w: &Workload) -> [RuntimeConfig; 5] {
    let mut base = RuntimeConfig::default();
    base.sched.subloops_per_task = w.subloops;
    let scheme = |s| RuntimeConfig {
        scheme_override: Some(s),
        ..base.clone()
    };
    [
        base.clone(),
        base.clone(),
        base.clone(),
        scheme(Scheme::Sharing),
        scheme(Scheme::Stealing),
    ]
}

fn run_cell(app: &App, v: usize, heap: &mut Heap) -> Result<RunReport, String> {
    let (c, e, a, cfg) = (&app.compiled, app.w.entry, &app.io.inst.args, &app.cfgs[v]);
    let r = match v {
        0 => run_baseline(cfg, c, e, a, heap, Baseline::Serial),
        1 => run_baseline(cfg, c, e, a, heap, Baseline::CpuParallel(16)),
        2 => run_baseline(cfg, c, e, a, heap, Baseline::GpuOnly),
        _ => Runtime::new(cfg.clone()).run(c, e, a, heap),
    };
    r.map_err(|e| format!("{} {}: {e}", app.w.name, VARIANTS[v].0))
}

fn counts(r: &RunReport) -> [u64; 7] {
    let mut c = [0u64; 7];
    for l in &r.loops {
        c[0] += l.gpu_iters;
        c[1] += l.cpu_iters;
        c[2] += (l.bytes_in + l.bytes_out) as u64;
        if let Some(t) = &l.tls {
            c[4] += t.violations as u64;
            c[5] += t.recovered_iters;
        }
    }
    for s in &r.stealing {
        c[0] += s.gpu_iters;
        c[1] += s.cpu_iters;
        c[3] += (s.stolen_by_gpu + s.stolen_by_cpu) as u64;
    }
    c[6] = r.profiles.len() as u64;
    c
}

/// One checked cell; returns its host ms and simulation counts.
fn cell(ctx: &mut Ctx, app: &App, v: usize, op: u64) -> Option<(f64, [u64; 7])> {
    let mut heap = app.io.inst.heap.clone();
    let sp = ctx.tracer.begin(VARIANTS[v].1, op, None);
    let t = Instant::now();
    let r = run_cell(app, v, &mut heap);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.end(sp);
    let r = r.and_then(|rep| {
        outputs_match(&heap, &app.io.expected, &app.io.inst)
            .map(|()| rep)
            .map_err(|e| format!("{} {}: {e}", app.w.name, VARIANTS[v].0))
    });
    match r {
        Ok(rep) => {
            ctx.check(Ok(()));
            Some((ms, counts(&rep)))
        }
        Err(e) => {
            ctx.check(Err(e));
            None
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let ncells = Workload::all().len() * NV;
    let mut layers = BTreeMap::new();
    // Per-cell counts of the warm-up pass: every later pass must repeat them.
    let mut reference: Vec<Option<[u64; 7]>> = vec![None; ncells];
    let (apps, setup_s) = ctx.repeated_setup(
        SETUP_REPS,
        |ctx, rep| {
            if rep == 0 {
                trace_compile_layers(ctx, &table2_sources(), &mut layers);
            }
            let apps: Vec<App> = Workload::all()
                .iter()
                .enumerate()
                .map(|(i, w)| App {
                    w,
                    compiled: w.compile(),
                    io: checked(w, SCALE, Rng::new(ctx.seed, 0x7ab1e + i as u64).next()),
                    cfgs: configs(w),
                })
                .collect();
            for c in 0..ncells {
                let got = cell(ctx, &apps[c / NV], c % NV, u64::MAX).map(|(_, k)| k);
                reference[c] = got;
            }
            apps
        },
        drop,
    );
    for (i, name) in COUNTS.iter().enumerate() {
        let total: u64 = reference.iter().flatten().map(|k| k[i]).sum();
        layers.insert(*name, total as f64);
    }

    let classes: Vec<String> = (0..ncells)
        .map(|c| format!("{}/{}", apps[c / NV].w.name, VARIANTS[c % NV].0))
        .collect();
    let passes = ctx.tracer.on().then(|| {
        ctx.traced_work(TRACED_CELLS_PER_S, 2 * ncells)
            .div_ceil(ncells)
    });
    // Whole passes only, so every cell carries the same weight in the
    // percentiles; the run ends at the pass boundary nearest `seconds`.
    let mut rng = Rng::new(ctx.seed, 0x0bde5);
    let mut samples = Vec::new();
    let t0 = Instant::now();
    let mut pass = 0;
    loop {
        let mut order: Vec<usize> = (0..ncells).collect();
        rng.shuffle(&mut order);
        for c in order {
            let traced = ctx.tracer.select(samples.len());
            if let Some((ms, k)) = cell(ctx, &apps[c / NV], c % NV, samples.len() as u64) {
                if reference[c] != Some(k) {
                    ctx.check(Err(format!(
                        "{}: simulation counts {k:?} differ from the warm-up pass {:?}",
                        classes[c], reference[c]
                    )));
                }
                samples.push(Sample {
                    class: c,
                    ms,
                    traced,
                    done: Instant::now(),
                });
            }
        }
        pass += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let done = match passes {
            Some(p) => pass >= p,
            None => elapsed + 0.5 * elapsed / pass as f64 >= ctx.seconds,
        };
        if done {
            break;
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    if ctx.tracer.on() {
        let spans = ctx.tracer.by_name();
        for (_, span, metric) in VARIANTS {
            let mut per_app: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
            for (req, ms) in spans.get(span).into_iter().flatten() {
                if let Some(s) = samples.get(*req as usize) {
                    per_app[s.class / NV].push(*ms);
                }
            }
            let medians: Vec<f64> = per_app
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| stats::median(v))
                .collect();
            layers.insert(metric, stats::geomean(&medians));
        }
    }

    Outcome {
        setup_s,
        samples,
        classes,
        cells: ncells,
        started: t0,
        elapsed_s,
        block: ncells,
        layers,
        config: vec![format!(
            "scale={SCALE} cells={ncells} passes={pass} order=seeded shuffle per pass"
        )],
    }
}
