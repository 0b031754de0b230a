//! Shared run structure and layer probes: set-up of the run's inputs, the
//! repeat loop, the timed job frame, the decomposed load the traced run
//! uses, and the partition, engine and counter readings behind the
//! per-layer metrics.

use crate::report::{median, Outcome};
use crate::trace::{self, Tracer};
use crate::{cluster, RunOpts, PARTITIONS};
use std::sync::Arc;
use std::time::Instant;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{ExecReport, SimCluster};
use surfer::core::{
    working_set_bytes, EngineOptions, OptimizationLevel, PropagationEngine, Surfer,
};
use surfer::graph::CsrGraph;
use surfer::obs::{ObsSession, TraceReport};
use surfer::partition::bisect::bisect_wgraph;
use surfer::partition::{place, BisectConfig, PlacementPolicy, RecursivePartitioner, WGraph};

/// Job id of the spans the layer probes record after the traced job.
pub const PROBES: u64 = u64::MAX;

/// Times each input is set up; `setup_s` is the median over all set-ups.
pub const SETUP_ROUNDS: usize = 2;

/// The seed of input `i` of a run. Inputs of different run seeds never
/// coincide while a run has at most 16 inputs.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i as u64)
}

/// Set up the run's `count` inputs: generate each graph with `make` and
/// build the cluster, [`SETUP_ROUNDS`] times over. Jobs cycle through the
/// inputs, so a run's simulated metrics average over `count` graphs.
/// Reports `setup_s` and `graph.generate_s` as medians over every set-up.
pub fn setup(
    o: &RunOpts,
    out: &mut Outcome,
    count: usize,
    make: impl Fn(u64) -> CsrGraph,
) -> Vec<(CsrGraph, SimCluster)> {
    let mut inputs = Vec::new();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    for round in 0..SETUP_ROUNDS {
        for i in 0..count {
            let t0 = Instant::now();
            let g = make(input_seed(o.seed, i));
            generate_s.push(t0.elapsed().as_secs_f64());
            let c = cluster();
            setup_s.push(t0.elapsed().as_secs_f64());
            if round == 0 {
                inputs.push((g, c));
            }
        }
    }
    out.set_median("setup_s", &setup_s);
    out.set_median("graph.generate_s", &generate_s);
    inputs
}

/// Call `job(out, id, input, traced, measured)` repeatedly. The first job
/// warms the process up (heap growth, thread start) and is checked but not
/// measured. Untraced: then cycle through the `inputs` until every input
/// was measured once and the next job would overrun the run's seconds,
/// warm-up included (judged by the last job's duration, which `job`
/// returns). Traced: one untraced job as the tracing-overhead baseline,
/// then one traced job, both on input 0. After the warm-up and one job per
/// input, `peak_rss_mb` is set from the process's high-water mark, which
/// then covers a fixed set of jobs whatever the run length.
pub fn repeat(
    o: &RunOpts,
    inputs: usize,
    out: &mut Outcome,
    mut job: impl FnMut(&mut Outcome, u64, usize, bool, bool) -> f64,
) {
    let start = Instant::now();
    job(out, 0, 0, false, false);
    if o.trace {
        job(out, 1, 0, false, true);
        out.set("peak_rss_mb", crate::report::peak_rss_mb(), 1);
        job(out, 2, 0, true, true);
        return;
    }
    for n in 1..=u64::MAX {
        let secs = job(out, n, (n as usize - 1) % inputs, false, true);
        if n as usize == inputs {
            out.set("peak_rss_mb", crate::report::peak_rss_mb(), 1);
        }
        if n as usize >= inputs && start.elapsed().as_secs_f64() + secs > o.seconds {
            break;
        }
    }
}

/// Switch span recording for the next job and start the traced job's
/// `ObsSession`.
pub fn begin_job(tr: &Tracer, traced: bool) -> Option<ObsSession> {
    tr.set_on(traced);
    traced.then(ObsSession::begin)
}

/// Host seconds of one job's phases.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// `SurferBuilder::load` (partition, place, build).
    pub load: f64,
    /// Loaded `Surfer` to all outputs in hand.
    pub query: f64,
    /// Load start to the last output.
    pub job: f64,
}

/// Load `g` and run `query` on it as one timed job under a `trace.job_s`
/// span. The untraced path calls `SurferBuilder::load`; the traced path
/// makes the same partition, place and build calls one by one so each gets
/// its own span.
pub fn timed_job<T>(
    tr: &Tracer,
    job: u64,
    traced: bool,
    g: &CsrGraph,
    cluster: &SimCluster,
    threads: usize,
    query: impl FnOnce(&Surfer) -> T,
) -> (Surfer, T, JobTimes) {
    let ((s, out, load, query), job_s) = tr.time("trace.job_s", job, || {
        let t0 = Instant::now();
        let s = if traced {
            load_decomposed(tr, job, g, cluster, threads)
        } else {
            Surfer::builder(cluster.clone())
                .partitions(PARTITIONS)
                .threads(threads)
                .load(g)
        };
        let load = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let out = query(&s);
        (s, out, load, t1.elapsed().as_secs_f64())
    });
    (
        s,
        out,
        JobTimes {
            load,
            query,
            job: job_s,
        },
    )
}

/// `SurferBuilder::load` at the default O4 level, spelled out as the public
/// calls it makes: recursive bisection, bandwidth-aware placement, and the
/// `PartitionedGraph` build.
fn load_decomposed(
    tr: &Tracer,
    job: u64,
    g: &CsrGraph,
    cluster: &SimCluster,
    threads: usize,
) -> Surfer {
    let cfg = BisectConfig::default();
    let (kway, _) = tr.time("partition.recursive_s", job, || {
        RecursivePartitioner::new(cfg.clone()).partition(g, PARTITIONS)
    });
    let (placed, _) = tr.time("partition.place_s", job, || {
        place(
            kway.partitioning,
            kway.sketch,
            cluster.topology(),
            PlacementPolicy::BandwidthAware,
            cfg.seed,
        )
    });
    let builder = Surfer::builder(cluster.clone())
        .partitions(PARTITIONS)
        .threads(threads);
    tr.time("partition.build_s", job, || {
        builder.load_placed(Arc::new(g.clone()), placed)
    })
    .0
}

/// Graph and partition shape of a loaded instance, plus the two partition
/// steps `load` does not expose separately: symmetrizing into the weighted
/// graph, and the serial root bisection.
pub fn partition_layer(tr: &Tracer, job: u64, s: &Surfer, out: &mut Outcome) {
    let pg = s.partitioned();
    let g = pg.graph();
    out.set("graph.vertices", f64::from(g.num_vertices()), 1);
    out.set("graph.edges", g.num_edges() as f64, 1);
    out.set("graph.storage_bytes", g.storage_bytes() as f64, 1);
    out.set(
        "graph.working_set_bytes",
        working_set_bytes(pg, 8) as f64,
        1,
    );
    out.set("partition.inner_edge_ratio", pg.inner_edge_ratio(), 1);
    let sketch = &s.placed().sketch;
    let root_cut = sketch.root().map_or(0, |r| sketch.node(r).cut_weight);
    out.set("partition.root_cut_weight", root_cut as f64, 1);

    let (w, sym_s) = tr.time("partition.symmetrize_s", job, || WGraph::from_csr(g));
    out.set("partition.symmetrize_s", sym_s, 1);
    let (b, bisect_s) = tr.time("partition.root_bisect_s", job, || {
        bisect_wgraph(&w, &BisectConfig::default())
    });
    out.set("partition.root_bisect_s", bisect_s, 1);
    // The standalone root bisection must reproduce the recursion's root.
    out.check(b.cut_weight == root_cut, || {
        format!(
            "root bisection cut {} differs from the sketch root's {root_cut}",
            b.cut_weight
        )
    });
}

/// Per-iteration PageRank time on both compute lanes and at one thread,
/// through `run_iteration_vectorized_counted` and `run_iteration_counted`.
/// The lanes must leave bit-identical states.
pub fn engine_layer(s: &Surfer, threads: usize, iterations: u32, out: &mut Outcome) {
    let g = s.partitioned().graph();
    let prog = PageRankPropagation {
        damping: 0.85,
        n: u64::from(g.num_vertices()),
    };
    let lane = |threads: usize, vectorized: bool| {
        let opts = EngineOptions::from_level(OptimizationLevel::O4).threads(threads);
        let engine = PropagationEngine::new(s.cluster(), s.partitioned(), opts);
        let mut state = engine.init_state(&prog);
        let mut secs = Vec::new();
        let mut messages = 0u64;
        let mut ok = true;
        for _ in 0..iterations {
            let t0 = Instant::now();
            let r = if vectorized {
                engine.run_iteration_vectorized_counted(&prog, &mut state)
            } else {
                engine.run_iteration_counted(&prog, &mut state)
            };
            secs.push(t0.elapsed().as_secs_f64());
            match r {
                Ok((_, m)) => messages = m,
                Err(_) => ok = false,
            }
        }
        (
            median(&secs),
            messages,
            state.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            ok,
        )
    };
    let (vec_s, messages, vec_state, vec_ok) = lane(threads, true);
    let (scalar_s, _, scalar_state, scalar_ok) = lane(threads, false);
    let (one_s, _, one_state, one_ok) = lane(1, true);
    out.check(vec_ok && scalar_ok && one_ok, || {
        "an engine probe iteration failed".into()
    });
    out.check(vec_state == scalar_state, || {
        "vectorized and scalar lanes disagree".into()
    });
    out.check(vec_state == one_state, || {
        "vectorized lane differs across thread counts".into()
    });
    let n = iterations as usize;
    out.set("engine.iter_s.vectorized", vec_s, n);
    out.set("engine.iter_s.scalar", scalar_s, n);
    out.set("engine.msgs_per_s", messages as f64 / vec_s, n);
    out.set("engine.vec_over_scalar", scalar_s / vec_s, n);
    out.set("engine.threads_speedup", one_s / vec_s, n);
}

/// Per-layer counts from the program's own counters, read from the traced
/// job's `ObsSession`, and from the jobs' simulated execution reports.
pub fn counter_layer(rep: &TraceReport, reports: &[ExecReport], out: &mut Outcome) {
    let c = |name: &str| rep.counter(name) as f64;
    out.set("engine.local_msgs", c("prop.local_msgs"), 1);
    out.set("engine.cross_msgs", c("prop.cross_msgs"), 1);
    let rounds = c("prop.iterations");
    out.set(
        "kernel.fastpath_ratio",
        if rounds > 0.0 {
            c("kernel.fastpath_rounds") / rounds
        } else {
            0.0
        },
        1,
    );
    out.set("mapreduce.reduce_values", c("mr.reduce.values"), 1);
    out.set("checkpoint.writes", c("ckpt.writes"), 1);
    out.set("checkpoint.snapshot_bytes", c("ckpt.snapshot_bytes"), 1);
    out.set("checkpoint.restores", c("ckpt.restores"), 1);
    out.set("checkpoint.tail_recomputed", c("ckpt.tail_recomputed"), 1);
    out.set("ooc.bytes_spilled", c("spill.bytes_spilled"), 1);
    out.set("ooc.bytes_reread", c("spill.bytes_reread"), 1);
    out.set("ooc.spill_iterations", c("spill.iterations"), 1);
    out.set(
        "cluster.tasks",
        reports.iter().map(|r| r.tasks_completed).sum::<u64>() as f64,
        1,
    );
    out.set(
        "cluster.disk_mb",
        reports.iter().map(|r| r.disk_bytes()).sum::<u64>() as f64 / 1e6,
        1,
    );
}

/// Sum of the reports' simulated response times (seconds) and network
/// traffic (MB).
pub fn sim_totals(reports: &[ExecReport]) -> (f64, f64) {
    let response = reports.iter().map(|r| r.response_time.as_secs_f64()).sum();
    let network = reports.iter().map(|r| r.network_bytes).sum::<u64>() as f64 / 1e6;
    (response, network)
}

/// Shared tail of every traced run: span totals become per-layer metrics,
/// the self-time breakdown and tracing overhead go to the notes, and the
/// spans and counters become the trace export. `job_spans` are the spans of
/// the traced job; `baseline_job_s` is the untraced job it is compared with.
pub fn finish_trace(
    out: &mut Outcome,
    tr: &Tracer,
    job_spans: &[trace::Span],
    baseline_job_s: f64,
    session: Option<&TraceReport>,
    workload: &str,
    seed: u64,
) {
    for name in [
        "partition.recursive_s",
        "partition.place_s",
        "partition.build_s",
        "query.app_s",
        "mapreduce.job_s",
    ] {
        out.set(name, trace::total_s(job_spans, name), 1);
    }
    let traced_job_s = trace::total_s(job_spans, "trace.job_s");
    out.set("trace.job_s", traced_job_s, 1);
    let overhead = traced_job_s / baseline_job_s - 1.0;
    out.set("trace.overhead", overhead, 1);
    out.set(
        "trace.span_coverage",
        trace::coverage(job_spans, "trace.job_s"),
        1,
    );
    out.fill_layers();

    let all = tr.spans();
    out.notes.push(format!(
        "self-time breakdown ({workload}, traced job and probes):"
    ));
    out.notes.extend(trace::breakdown(&all));
    out.notes.push(format!(
        "tracing overhead: traced job_s {traced_job_s:.4} s vs untraced {baseline_job_s:.4} s ({:+.2}%)",
        100.0 * overhead
    ));
    let counters = session
        .map(|r| {
            r.counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect()
        })
        .unwrap_or_default();
    let layer = out.reported(true);
    out.trace_json = Some(trace::to_json(workload, seed, &all, &counters, &layer));
}
