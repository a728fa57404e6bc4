//! Pieces every workload shares: the seeded random source, Table II input
//! generation with reference outputs, and the traced timing of the compile
//! layers.

use crate::{stats, Ctx};
use japonica::ir::Heap;
use japonica_workloads::{gen, Instance, Kind, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Table II input scale (the smallest the generators offer).
pub const SCALE: u64 = 1;

/// Compile layers: span name and per-layer metric.
const COMPILE_LAYERS: [(&str, &str); 4] = [
    ("frontend.compile_source", "frontend.compile_source_ms"),
    ("analysis.analyze_program", "analysis.analyze_program_ms"),
    ("analysis.build_pdg", "analysis.build_pdg_ms"),
    ("lint.lint", "lint.lint_ms"),
];

/// Calls into each compile layer per source when tracing (median taken).
const COMPILE_REPS: usize = 5;

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Generate `w`'s inputs at scale `n` from `seed`.
fn generate(w: &Workload, n: u64, seed: u64) -> Instance {
    match w.kind {
        Kind::Gemm => gen::gemm(n, seed),
        Kind::VectorAdd => gen::vectoradd(n, seed),
        Kind::Bfs => gen::bfs(n, seed),
        Kind::Mvt => gen::mvt(n, seed),
        Kind::GaussSeidel => gen::gauss_seidel(n, seed),
        Kind::Cfd => gen::cfd(n, seed),
        Kind::Sepia => gen::sepia(n, seed),
        Kind::BlackScholes => gen::blackscholes(n, seed),
        Kind::Bicg => gen::bicg(n, seed),
        Kind::TwoMm => gen::two_mm(n, seed),
        Kind::Crypt => gen::crypt(n, seed),
    }
}

/// Inputs plus the reference implementation's outputs for them.
pub struct Checked {
    pub inst: Instance,
    pub expected: Heap,
}

pub fn checked(w: &Workload, n: u64, seed: u64) -> Checked {
    let inst = generate(w, n, seed);
    let mut expected = inst.heap.clone();
    w.run_reference(&mut expected, &inst.args);
    Checked { inst, expected }
}

/// Time each compile layer's public call on every one of `sources` (the
/// programs the workload runs), during set-up of a traced run. Each
/// metric is the sum over sources of the source's median call time.
pub fn trace_compile_layers(
    ctx: &mut Ctx,
    sources: &[String],
    layers: &mut BTreeMap<&'static str, f64>,
) {
    use japonica::{analysis, frontend, lint};
    if !ctx.tracer.on() {
        return;
    }
    let lint_cfg = lint::LintConfig {
        max_threads: japonica::cpuexec::CpuConfig::default().cores,
        ..lint::LintConfig::default()
    };
    let setup = ctx.tracer.begin("setup.compile_layers", u64::MAX, None);
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, src) in sources.iter().enumerate() {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut timed = |name: &'static str, ctx: &mut Ctx, f: &mut dyn FnMut()| {
            let sp = ctx.tracer.begin(name, u64::MAX, setup);
            let t = Instant::now();
            f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ctx.tracer.end(sp);
            samples.entry(name).or_default().push(ms);
        };
        for _ in 0..COMPILE_REPS {
            let mut program = None;
            timed("frontend.compile_source", ctx, &mut || {
                program = frontend::compile_source(src).ok();
            });
            let Some(p) = program else {
                ctx.check(Err(format!("source {i} does not compile")));
                break;
            };
            timed("analysis.analyze_program", ctx, &mut || {
                black_box(analysis::analyze_program(&p));
            });
            timed("analysis.build_pdg", ctx, &mut || {
                for f in &p.functions {
                    black_box(analysis::build_pdg(f));
                }
            });
            timed("lint.lint", ctx, &mut || {
                black_box(lint::lint(&p, &lint_cfg));
            });
        }
        for (name, v) in samples {
            *totals.entry(name).or_default() += stats::median(&v);
        }
    }
    ctx.tracer.end(setup);
    for (span, metric) in COMPILE_LAYERS {
        layers.insert(metric, totals.get(span).copied().unwrap_or(0.0));
    }
}

/// The Table II sources, for [`trace_compile_layers`].
pub fn table2_sources() -> Vec<String> {
    Workload::all()
        .iter()
        .map(|w| w.source.to_string())
        .collect()
}
