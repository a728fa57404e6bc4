//! The benchmark's own checks: every workload passes its correctness
//! checks on two seeds, and a traced run's exact simulation and session
//! counts repeat bit-for-bit when the run is repeated with the same seed.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfsuite/Cargo.toml`. The second seed defaults to 2; set
//! `PERFSUITE_SECOND_SEED` to choose another.

use std::process::Command;

/// Counts that depend only on the seed and `--seconds`, per workload.
/// `serve_dup` has none: which duplicates join an in-flight leader depends
/// on timing.
fn exact_counts(workload: &str) -> &'static [&'static str] {
    match workload {
        "table2" => &[
            "gpusim.gpu_iters",
            "cpuexec.cpu_iters",
            "scheduler.bytes_moved",
            "scheduler.stolen_tasks",
            "tls.violations",
            "tls.recovered_iters",
            "profiler.loops_profiled",
        ],
        "serve_unique" => &["serve.executions", "serve.dedup_joins"],
        "session_edit" => &[
            "session.reused_kernels",
            "session.recompiled_kernels",
            "session.invalidations",
        ],
        _ => &[],
    }
}

/// Run the benchmark; returns its last stdout line after asserting success.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_japonica-perfsuite"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} seed {seed}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("result line").to_string();
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    last
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"))
        + key.len();
    let end = line[at..].find(',').expect("value ends") + at;
    line[at..end].parse().expect("numeric value")
}

fn repeats_exactly(workload: &str) {
    let (a, b) = (run(workload, 1, 1), run(workload, 1, 1));
    for name in exact_counts(workload) {
        assert_eq!(
            metric(&a, name).to_bits(),
            metric(&b, name).to_bits(),
            "{workload}: {name} differs between two traced runs of seed 1"
        );
    }
    let seed2 = std::env::var("PERFSUITE_SECOND_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    run(workload, seed2, 0);
}

/// Every metric BENCHMARK.json names is printed, and nothing else.
#[test]
fn metrics_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside perfsuite/");
    let workloads = ["table2", "serve_unique", "serve_dup", "session_edit"];
    let mut declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .filter(|n| !workloads.contains(n))
        .collect();
    let mut printed: Vec<String> = [0, 1]
        .iter()
        .flat_map(|trace| {
            let line = run("session_edit", 1, *trace);
            let parts: Vec<&str> = line.split("\": {\"value\"").collect();
            // Every part but the last ends with a metric's quoted name.
            parts[..parts.len() - 1]
                .iter()
                .filter_map(|s| s.rsplit_once('"').map(|(_, name)| name.to_string()))
                .collect::<Vec<_>>()
        })
        .collect();
    declared.sort_unstable();
    printed.sort_unstable();
    assert_eq!(declared, printed);
}

#[test]
fn table2_repeats() {
    repeats_exactly("table2");
}

#[test]
fn serve_unique_repeats() {
    repeats_exactly("serve_unique");
}

#[test]
fn serve_dup_repeats() {
    repeats_exactly("serve_dup");
}

#[test]
fn session_edit_repeats() {
    repeats_exactly("session_edit");
}
