//! Determinism self-check at reduced size: every metric `BENCHMARK.json`
//! names is emitted with its unit, and the simulated metrics and per-layer
//! counts repeat exactly across runs of one seed and across engine thread
//! counts {1, one per core}.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use surfer_perfbench::{run, Metric, RunOpts, Size, WORKLOADS};

/// Runs share the process's spill directory namespace and `ObsSession`
/// gate, so they go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 7;

type NameUnit = (String, String);

/// `(name, unit)` of every metric in the `end_to_end` and `per_layer`
/// sections of `BENCHMARK.json` (one metric object per line).
fn declared() -> (Vec<NameUnit>, Vec<NameUnit>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let field = |line: &str, key: &str| {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[start..start + line[start..].find('"')?].to_string())
    };
    let (mut e2e, mut layer) = (Vec::new(), Vec::new());
    let mut section = "";
    for line in text.lines() {
        if line.contains("\"end_to_end\"") {
            section = "e2e";
        } else if line.contains("\"per_layer\"") {
            section = "layer";
        } else if line.contains("\"workloads\"") {
            section = "";
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            match section {
                "e2e" => e2e.push((name, unit)),
                "layer" => layer.push((name, unit)),
                _ => {}
            }
        }
    }
    (e2e, layer)
}

fn run_once(workload: &str, trace: bool, threads: usize) -> BTreeMap<&'static str, Metric> {
    let scratch = std::env::temp_dir().join(format!(
        "surfer-perfbench-test-{}-{workload}",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).unwrap();
    let opts = RunOpts {
        seed: SEED,
        seconds: 0.0,
        trace,
        threads,
        size: Size::Reduced,
        scratch: scratch.clone(),
    };
    let out = run(workload, &opts).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
    assert!(out.correct(), "{workload}: {:?}", out.mismatches);
    assert_eq!(out.failed, 0, "{workload}: failed operations");
    out.reported(trace)
        .into_iter()
        .map(|m| (m.name, m))
        .collect()
}

/// Metrics that are functions of the inputs alone: simulated quantities,
/// counts, sizes and ratios of counts. Host times, rates and the ratios of
/// host times are excluded.
fn deterministic(m: &Metric) -> bool {
    !matches!(m.unit, "s" | "1/s")
        && m.name != "peak_rss_mb"
        && !m.name.starts_with("trace.")
        && !matches!(
            m.name,
            "engine.vec_over_scalar" | "engine.threads_speedup" | "ooc.spill_over_resident"
        )
}

fn fingerprint(metrics: &BTreeMap<&'static str, Metric>) -> Vec<(&'static str, u64)> {
    metrics
        .values()
        .filter(|m| deterministic(m))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn check_workload(workload: &str) {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (e2e, layer) = declared();
    for (trace, names) in [(false, &e2e), (true, &layer)] {
        let first = run_once(workload, trace, 1);
        let again = run_once(workload, trace, 1);
        let cores = run_once(workload, trace, 0);
        let emitted: Vec<(String, String)> = first
            .values()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let mut want = names.clone();
        want.sort();
        assert_eq!(
            emitted, want,
            "{workload} trace={trace}: emitted metrics differ from BENCHMARK.json"
        );
        if !trace {
            for m in first.values() {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{workload}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }
        assert!(!fingerprint(&first).is_empty());
        assert_eq!(
            fingerprint(&first),
            fingerprint(&again),
            "{workload} trace={trace}: repeat differs"
        );
        assert_eq!(
            fingerprint(&first),
            fingerprint(&cores),
            "{workload} trace={trace}: threads differ"
        );
    }
}

#[test]
fn ingest_small_is_deterministic_and_complete() {
    check_workload(WORKLOADS[0]);
}

#[test]
fn analytics_tiny_is_deterministic_and_complete() {
    check_workload(WORKLOADS[1]);
}

#[test]
fn serve_recover_is_deterministic_and_complete() {
    check_workload(WORKLOADS[2]);
}
