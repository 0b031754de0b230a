//! Whole-job benchmark for Surfer.
//!
//! Three workloads drive the program only through its public entry points,
//! from generated graph to checked answer:
//!
//! * `ingest-small` — generate `msn_like(Small)`, load it (partition, place,
//!   build) and run ten PageRank iterations. The partitioner dominates.
//! * `analytics-tiny` — load a cache-resident `msn_like(Tiny)` graph and run
//!   every conformance app on both compute lanes plus three MapReduce jobs.
//!   The engine, kernels and MapReduce dominate.
//! * `serve-recover` — an open-loop, seeded schedule of PageRank jobs from
//!   four tenants through a `JobManager`, with cached repeats and
//!   checkpointed, spilling, crash-recovered jobs mixed in.
//!
//! Every run takes its seed from the command line, checks each output
//! against a serial reference outside the timed intervals, and prints one
//! result object as its last line. With `--trace 1` the run instead times
//! each layer with the benchmark's own spans, opens an `ObsSession` to read
//! the program's counters and writes the spans and counters to a file.

pub mod analytics;
pub mod ingest;
pub mod probe;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;
use surfer::cluster::{ClusterConfig, SimCluster, Topology};
use surfer::graph::generators::social::{
    msn_like, stitched_small_worlds, MsnScale, SocialGraphConfig,
};
use surfer::graph::CsrGraph;

pub use report::{Metric, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ingest-small", "analytics-tiny", "serve-recover"];

/// Partition count of every workload (P = 2^4 over eight machines).
pub const PARTITIONS: u32 = 16;

/// Input scale. `Reduced` shrinks every graph and schedule so the
/// determinism tests finish in seconds; the metrics keep their names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A 1,024-vertex graph and a short schedule.
    Reduced,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds to keep repeating the measured job.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Engine worker threads (`0` = one per core, the default path).
    pub threads: usize,
    /// Input scale.
    pub size: Size,
    /// Scratch directory for checkpoints and spill files; removed by the
    /// caller when the run ends.
    pub scratch: PathBuf,
}

/// The cluster every workload runs on: the paper-regime `T2(2, 1)` tree of
/// eight machines, two partitions each.
pub fn cluster() -> SimCluster {
    ClusterConfig::paper_regime(Topology::t2(2, 1, 8)).build()
}

/// The workload graph at `size`: `msn_like(scale)` at full size, a
/// 1,024-vertex stitched small world when reduced.
pub fn graph(scale: MsnScale, size: Size, seed: u64) -> CsrGraph {
    match size {
        Size::Full => msn_like(scale, seed),
        Size::Reduced => stitched_small_worlds(&SocialGraphConfig::new(4, 8, seed)),
    }
}

/// Run one workload.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match workload {
        "ingest-small" => Ok(ingest::run(opts)),
        "analytics-tiny" => Ok(analytics::run(opts)),
        "serve-recover" => Ok(serve::run(opts)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
