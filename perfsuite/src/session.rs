//! `session_edit`: K sessions driven through the line protocol
//! (`japonica_session::Engine::feed_line`) against the threaded service.
//! Each session's program is a pipeline of `acc parallel` stage
//! functions; every step RUNs it, and with a fixed probability first
//! LOADs an edit of one stage, so hot reload recompiles one kernel and
//! transplants the rest. Sessions are closed and reopened on a fixed
//! cycle so OPEN and CLOSE are measured too.
//!
//! Every RUN's `sum=` is checked against a plain-Rust evaluation of the
//! loaded stage arithmetic, and every LOAD's reuse/recompile split against
//! the edit that was made.

use crate::common::{trace_compile_layers, Rng};
use crate::{nproc, stats, Ctx, Outcome, Sample};
use japonica_serve::{Serve, ServeConfig};
use japonica_session::{Engine, SessionConfig, SessionManager};
use std::collections::BTreeMap;
use std::time::Instant;

const SESSIONS: usize = 4;
const STAGES: usize = 4;
/// Probability that a step first reloads an edited stage.
const EDIT_P: f64 = 0.25;
/// Steps after which a session is closed and a fresh one opened.
const LIFETIME: u32 = 24;
/// Stage constants: `a[i] = a[i] * C + D`, all exact in binary.
const MULS: [f64; 4] = [0.5, 0.75, 1.25, 1.5];
const ADDS: [f64; 5] = [-1.0, -0.5, 0.25, 0.5, 1.0];
const SIZES: [usize; 3] = [64, 128, 192];
/// Set-ups per run (each is some tens of milliseconds).
const SETUP_REPS: usize = 9;
/// Warm-up rounds in a set-up (see [`start`]).
const WARMUP_ROUNDS: usize = 4;
/// Commands per throughput block: about a second each.
const BLOCK: usize = 8192;
/// Nominal steps per second, sizing traced runs.
const TRACED_STEPS_PER_S: f64 = 7000.0;
/// One protocol command in this many is traced.
const TRACE_STRIDE: usize = 16;

/// Operation classes and their spans: LOAD, RUN at each of [`SIZES`],
/// then the bookkeeping commands, which `cell_geomean_ms` leaves out.
const CLASSES: [(&str, &str); 6] = [
    ("LOAD", "session.load"),
    ("RUN/64", "session.run"),
    ("RUN/128", "session.run"),
    ("RUN/192", "session.run"),
    ("OPEN", "session.open"),
    ("CLOSE", "session.close"),
];
const LOAD: usize = 0;
const RUN: usize = 1;
const OPEN: usize = 4;
const CLOSE: usize = 5;

type Stages = [(f64, f64); STAGES];

struct Sess {
    sid: u64,
    tenant: u32,
    stages: Stages,
    steps: u32,
}

fn draw_stage(rng: &mut Rng) -> (f64, f64) {
    (MULS[rng.below(MULS.len())], ADDS[rng.below(ADDS.len())])
}

/// The program's source lines: one stage function per kernel, and a
/// `pipeline` entry calling them in order.
fn source(stages: &Stages) -> Vec<String> {
    let mut lines = Vec::new();
    for (k, (c, d)) in stages.iter().enumerate() {
        let (op, d) = if *d < 0.0 { ('-', -d) } else { ('+', *d) };
        lines.push(format!("static void s{k}(double[] a, int n) {{"));
        lines.push("    /* acc parallel */".to_string());
        lines.push(format!(
            "    for (int i = 0; i < n; i++) {{ a[i] = a[i] * {c:?} {op} {d:?}; }}"
        ));
        lines.push("}".to_string());
    }
    lines.push("static void pipeline(double[] a, int n) {".to_string());
    let calls: Vec<String> = (0..STAGES).map(|k| format!("s{k}(a, n);")).collect();
    lines.push(format!("    {}", calls.join(" ")));
    lines.push("}".to_string());
    lines
}

/// Plain-Rust evaluation of the pipeline over the protocol's fresh input
/// `a[i] = (i % 97) + 1`, summed in index order.
fn expected_sum(stages: &Stages, n: usize) -> f64 {
    (0..n)
        .map(|i| {
            stages
                .iter()
                .fold(((i % 97) + 1) as f64, |x, (c, d)| x * c + d)
        })
        .sum()
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|t| t.strip_prefix(key))
}

struct Driver {
    engine: Engine,
    sessions: Vec<Sess>,
    samples: Vec<Sample>,
    /// Whether samples are kept (timed phase) or only checked (set-up).
    timed: bool,
}

impl Driver {
    /// Feed one protocol command (header plus payload lines) and time it.
    fn command(&mut self, ctx: &mut Ctx, class: usize, lines: &[String]) -> Result<String, String> {
        let op = self.samples.len();
        let traced = if self.timed {
            ctx.tracer.select(op)
        } else {
            ctx.tracer.select_all();
            ctx.tracer.on()
        };
        let req = if self.timed { op as u64 } else { u64::MAX };
        let span = ctx.tracer.begin(CLASSES[class].1, req, None);
        let t = Instant::now();
        let mut reply = None;
        for l in lines {
            if let Some(r) = self.engine.feed_line(l) {
                reply = Some(r.line);
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        ctx.tracer.end(span);
        if self.timed {
            self.samples.push(Sample {
                class,
                ms,
                traced,
                done: Instant::now(),
            });
        }
        match reply {
            Some(line) if line.starts_with("OK ") => Ok(line),
            Some(line) => Err(format!("{}: {line}", lines[0])),
            None => Err(format!("{}: no reply", lines[0])),
        }
    }

    /// OPEN a session and LOAD its program; true when it opened.
    fn open(&mut self, ctx: &mut Ctx, tenant: u32, stages: Stages) -> bool {
        let r = self.command(ctx, OPEN, &[format!("OPEN {tenant}")]);
        let sid = r.and_then(|line| {
            line.strip_prefix("OK OPEN ")
                .and_then(|s| s.trim().parse::<u64>().ok())
                .ok_or(format!("bad OPEN reply {line}"))
        });
        match sid {
            Ok(sid) => {
                ctx.check(Ok(()));
                self.sessions.push(Sess {
                    sid,
                    tenant,
                    stages,
                    steps: 0,
                });
                let k = self.sessions.len() - 1;
                self.load(ctx, k, STAGES as u64);
                true
            }
            Err(e) => ctx.check(Err(e)),
        }
    }

    /// LOAD session `k`'s current program; `recompiled` kernels expected.
    fn load(&mut self, ctx: &mut Ctx, k: usize, recompiled: u64) {
        let s = &self.sessions[k];
        let body = source(&s.stages);
        let mut lines = vec![format!("LOAD {} {}", s.sid, body.len())];
        lines.extend(body);
        let r = self.command(ctx, LOAD, &lines).and_then(|line| {
            let num = |key| field(&line, key).and_then(|v| v.parse::<u64>().ok());
            let want = (Some(STAGES as u64 - recompiled), Some(recompiled));
            if (num("reused="), num("recompiled=")) == want {
                Ok(())
            } else {
                Err(format!(
                    "expected reused={} recompiled={recompiled}: {line}",
                    STAGES as u64 - recompiled
                ))
            }
        });
        ctx.check(r);
    }

    /// RUN session `k`'s pipeline at size `SIZES[size]`.
    fn run(&mut self, ctx: &mut Ctx, k: usize, size: usize) {
        let n = SIZES[size];
        let (sid, want) = (
            self.sessions[k].sid,
            expected_sum(&self.sessions[k].stages, n),
        );
        let r = self
            .command(ctx, RUN + size, &[format!("RUN {sid} pipeline {n}")])
            .and_then(|line| {
                let bits = field(&line, "sum=").and_then(|h| u64::from_str_radix(h, 16).ok());
                if bits == Some(want.to_bits()) {
                    Ok(())
                } else {
                    Err(format!("RUN {sid} n={n}: expected sum {want}, got {line}"))
                }
            });
        ctx.check(r);
    }

    fn close(&mut self, ctx: &mut Ctx, k: usize) -> Sess {
        let s = self.sessions.remove(k);
        let r = self.command(ctx, CLOSE, &[format!("CLOSE {}", s.sid)]);
        ctx.check(r.map(|_| ()));
        s
    }

    /// Change one stage of session `k`'s program to new constants.
    fn edit(&mut self, rng: &mut Rng, k: usize, stage: usize) {
        let cur = self.sessions[k].stages[stage];
        let mut next = draw_stage(rng);
        while next == cur {
            next = draw_stage(rng);
        }
        self.sessions[k].stages[stage] = next;
    }

    /// One step of session `k`: maybe reopen, maybe edit, then RUN.
    fn step(&mut self, ctx: &mut Ctx, rng: &mut Rng, k: usize) {
        if self.sessions[k].steps >= LIFETIME {
            let old = self.close(ctx, k);
            let stages = std::array::from_fn(|_| draw_stage(rng));
            if !self.open(ctx, old.tenant, stages) {
                return;
            }
            // Keep the round-robin order: the reopened session takes slot k.
            let s = self.sessions.pop().expect("open pushed a session");
            self.sessions.insert(k, s);
        } else if rng.unit() < EDIT_P {
            let stage = rng.below(STAGES);
            self.edit(rng, k, stage);
            self.load(ctx, k, 1);
        }
        self.sessions[k].steps += 1;
        let size = rng.below(SIZES.len());
        self.run(ctx, k, size);
    }
}

fn start(ctx: &mut Ctx) -> Driver {
    let serve = Serve::start(ServeConfig {
        workers: nproc(),
        ..ServeConfig::default()
    });
    let mut d = Driver {
        engine: Engine::new(SessionManager::threaded(serve, SessionConfig::default())),
        sessions: Vec::new(),
        samples: Vec::new(),
        timed: false,
    };
    let mut rng = Rng::new(ctx.seed, 0x5e55_0001);
    for t in 0..SESSIONS {
        let stages = std::array::from_fn(|_| draw_stage(&mut rng));
        d.open(ctx, (t % 3) as u32, stages);
    }
    // Warm-up: every stage of every session edited and run at every size,
    // WARMUP_ROUNDS times, so each kernel has been recompiled and
    // transplanted, and the set-up is long enough that thread start-up
    // does not dominate `setup_s`.
    for _ in 0..WARMUP_ROUNDS {
        for k in 0..d.sessions.len() {
            for stage in 0..STAGES {
                d.edit(&mut rng, k, stage);
                d.load(ctx, k, 1);
                for size in 0..SIZES.len() {
                    d.run(ctx, k, size);
                }
            }
        }
    }
    d
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    ctx.tracer.set_stride(TRACE_STRIDE);
    let mut layers = BTreeMap::new();
    let (mut d, setup_s) = ctx.repeated_setup(
        SETUP_REPS,
        |ctx, rep| {
            if rep == 0 {
                // The programs the sessions open with.
                let mut rng = Rng::new(ctx.seed, 0x5e55_0001);
                let sources: Vec<String> = (0..SESSIONS)
                    .map(|_| source(&std::array::from_fn(|_| draw_stage(&mut rng))).join("\n"))
                    .collect();
                trace_compile_layers(ctx, &sources, &mut layers);
            }
            start(ctx)
        },
        |d| drop(d.engine.finish()),
    );
    d.timed = true;
    let limit = ctx
        .tracer
        .on()
        .then(|| ctx.traced_work(TRACED_STEPS_PER_S, 4 * SESSIONS));
    let mut rng = Rng::new(ctx.seed, 0x5e55_0002);
    let t0 = Instant::now();
    let mut steps = 0usize;
    while !d.sessions.is_empty() {
        let stop = match limit {
            Some(n) => steps >= n,
            None => t0.elapsed().as_secs_f64() >= ctx.seconds,
        };
        if stop {
            break;
        }
        d.step(ctx, &mut rng, steps % d.sessions.len());
        steps += 1;
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let (st, _) = d.engine.finish();
    ctx.check(if st.identities_hold() {
        Ok(())
    } else {
        Err(format!("session accounting identities broken: {st:?}"))
    });

    if ctx.tracer.on() {
        let spans = ctx.tracer.by_name();
        let timed = |name: &str| -> Vec<f64> {
            let v: Vec<f64> = spans
                .get(name)
                .into_iter()
                .flatten()
                .filter(|(req, _)| *req != u64::MAX)
                .map(|(_, ms)| *ms)
                .collect();
            stats::sorted(&v)
        };
        let load = timed("session.load");
        layers.extend([
            ("session.open_ms", stats::median(&timed("session.open"))),
            ("session.load_p50_ms", stats::percentile(&load, 50.0)),
            (
                "session.load_tail_ms",
                stats::percentile(&load, stats::tail_pct_for(load.len())),
            ),
            ("session.run_ms", stats::median(&timed("session.run"))),
            ("session.close_ms", stats::median(&timed("session.close"))),
            ("session.reused_kernels", st.reused_kernels as f64),
            ("session.recompiled_kernels", st.recompiled_kernels as f64),
            ("session.invalidations", st.invalidations as f64),
            (
                "session.reuse_ratio",
                st.reused_kernels as f64 / st.resident_kernels.max(1) as f64,
            ),
        ]);
    }

    Outcome {
        setup_s,
        samples: d.samples,
        classes: CLASSES.iter().map(|(c, _)| c.to_string()).collect(),
        cells: OPEN,
        started: t0,
        elapsed_s,
        block: BLOCK,
        layers,
        config: vec![
            format!(
                "sessions={SESSIONS} stages={STAGES} edit_p={EDIT_P} lifetime={LIFETIME} steps sizes={SIZES:?} workers={} dedup=off backend=threaded",
                nproc()
            ),
            format!(
                "steps={steps} loads={} runs={} reused={} recompiled={} resident={}",
                st.loads, st.runs, st.reused_kernels, st.recompiled_kernels, st.resident_kernels
            ),
        ],
    }
}
