//! `analytics-tiny`: load a cache-resident `msn_like(Tiny)` graph, then run
//! a fixed batch of every conformance app on the propagation primitive plus
//! NR, CC and TFL on MapReduce. NR, CC, BFS and VDD take the vectorized
//! lane; RLG, TFL, RS and TC the scalar UDF lane. Engine, kernels and
//! MapReduce do the work; the partitioner does little.
//!
//! CC needs bidirectional message flow, so each input graph is the
//! symmetrized `msn_like(Tiny)`, and every app and reference runs on it.

use crate::probe::{
    begin_job, counter_layer, engine_layer, finish_trace, partition_layer, repeat, setup,
    sim_totals, timed_job, PROBES,
};
use crate::report::{median, percentile, Outcome};
use crate::trace::Tracer;
use crate::{graph, RunOpts};
use surfer::apps::components::ComponentOutput;
use surfer::apps::degree_dist::DegreeHistogram;
use surfer::apps::pagerank::PageRankOutput;
use surfer::apps::recommender::RecommenderOutput;
use surfer::apps::reverse::ReversedGraph;
use surfer::apps::shortest_paths::BfsOutput;
use surfer::apps::triangle::TriangleCount;
use surfer::apps::two_hop::TwoHopOutput;
use surfer::apps::{
    BreadthFirstSearch, ConnectedComponents, ExactOutput, NetworkRanking, RecommenderSystem,
    ReverseLinkGraph, TriangleCounting, TwoHopFriends, VertexDegreeDistribution,
};
use surfer::cluster::ExecReport;
use surfer::core::{Surfer, SurferApp, SurferResult, SurferRun};
use surfer::graph::generators::social::MsnScale;
use surfer::graph::VertexId;

/// Input graphs per run.
const INPUTS: usize = 6;
/// PageRank iterations of the NR app.
const NR_ITERATIONS: u32 = 30;
/// NR tolerances of the conformance suite: propagation, then MapReduce.
const NR_EPS: f64 = 1e-12;
const NR_MR_EPS: f64 = 1e-9;

/// The batch's apps, built from the run seed.
struct Apps {
    nr: NetworkRanking,
    cc: ConnectedComponents,
    bfs: BreadthFirstSearch,
    rlg: ReverseLinkGraph,
    tfl: TwoHopFriends,
    rs: RecommenderSystem,
    tc: TriangleCounting,
}

/// Check one run against its reference and collect its report.
fn check<A: SurferApp>(
    out: &mut Outcome,
    reports: &mut Vec<ExecReport>,
    label: &str,
    run: SurferResult<SurferRun<A::Output>>,
    reference: &A::Output,
    eps: f64,
) where
    A::Output: ExactOutput,
{
    match run {
        Ok(run) => {
            out.check(run.output.approx_eq(reference, eps), || {
                format!("{label}: output differs from the serial reference")
            });
            reports.push(run.report);
        }
        Err(e) => out.check(false, || format!("{label} failed: {e}")),
    }
}

/// Serial references of one input graph.
struct References {
    nr: PageRankOutput,
    cc: ComponentOutput,
    bfs: BfsOutput,
    vdd: DegreeHistogram,
    rlg: ReversedGraph,
    tfl: TwoHopOutput,
    rs: RecommenderOutput,
    tc: TriangleCount,
}

/// Run the workload.
pub fn run(o: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let inputs = setup(o, &mut out, INPUTS, |seed| {
        graph(MsnScale::Tiny, o.size, seed).symmetrize()
    });
    let apps = Apps {
        nr: NetworkRanking::new(NR_ITERATIONS),
        cc: ConnectedComponents::new(),
        bfs: BreadthFirstSearch::from_source(VertexId(0)),
        rlg: ReverseLinkGraph,
        tfl: TwoHopFriends::new(o.seed),
        rs: RecommenderSystem::new(4, o.seed),
        tc: TriangleCounting::new(o.seed),
    };
    let references: Vec<References> = inputs
        .iter()
        .map(|(g, _)| References {
            nr: apps.nr.reference(g),
            cc: apps.cc.reference(g),
            bfs: apps.bfs.reference(g),
            vdd: VertexDegreeDistribution.reference(g),
            rlg: apps.rlg.reference(g),
            tfl: apps.tfl.reference(g),
            rs: apps.rs.reference(g),
            tc: apps.tc.reference(g),
        })
        .collect();

    let tr = Tracer::new(false);
    let (mut load, mut query, mut job) = (Vec::new(), Vec::new(), Vec::new());
    let mut sims: Vec<Option<Vec<(f64, f64)>>> = vec![None; INPUTS];
    let mut traced_job = None;
    repeat(o, INPUTS, &mut out, |out, id, i, traced, measured| {
        let (g, c) = &inputs[i];
        let session = begin_job(&tr, traced);
        let (s, batch, t) = timed_job(&tr, id, traced, g, c, o.threads, |s: &Surfer| {
            (
                tr.time("query.app_s", id, || s.run(&apps.nr)).0,
                tr.time("query.app_s", id, || s.run(&apps.cc)).0,
                tr.time("query.app_s", id, || s.run(&apps.bfs)).0,
                tr.time("query.app_s", id, || s.run(&VertexDegreeDistribution))
                    .0,
                tr.time("query.app_s", id, || s.run(&apps.rlg)).0,
                tr.time("query.app_s", id, || s.run(&apps.tfl)).0,
                tr.time("query.app_s", id, || s.run(&apps.rs)).0,
                tr.time("query.app_s", id, || s.run(&apps.tc)).0,
                tr.time("mapreduce.job_s", id, || s.run_mapreduce(&apps.nr))
                    .0,
                tr.time("mapreduce.job_s", id, || s.run_mapreduce(&apps.cc))
                    .0,
                tr.time("mapreduce.job_s", id, || s.run_mapreduce(&apps.tfl))
                    .0,
            )
        });
        let session = session.map(|s| s.finish());
        tr.set_on(false);
        if measured {
            load.push(t.load);
            query.push(t.query);
            job.push(t.job);
        }

        let refs = &references[i];
        let (nr, cc, bfs, vdd, rlg, tfl, rs, tc, mr_nr, mr_cc, mr_tfl) = batch;
        let mut reports = Vec::new();
        let r = &mut reports;
        check::<NetworkRanking>(out, r, "NR", nr, &refs.nr, NR_EPS);
        check::<ConnectedComponents>(out, r, "CC", cc, &refs.cc, 0.0);
        check::<BreadthFirstSearch>(out, r, "BFS", bfs, &refs.bfs, 0.0);
        check::<VertexDegreeDistribution>(out, r, "VDD", vdd, &refs.vdd, 0.0);
        check::<ReverseLinkGraph>(out, r, "RLG", rlg, &refs.rlg, 0.0);
        check::<TwoHopFriends>(out, r, "TFL", tfl, &refs.tfl, 0.0);
        check::<RecommenderSystem>(out, r, "RS", rs, &refs.rs, 0.0);
        check::<TriangleCounting>(out, r, "TC", tc, &refs.tc, 0.0);
        check::<NetworkRanking>(out, r, "MapReduce NR", mr_nr, &refs.nr, NR_MR_EPS);
        check::<ConnectedComponents>(out, r, "MapReduce CC", mr_cc, &refs.cc, 0.0);
        check::<TwoHopFriends>(out, r, "MapReduce TFL", mr_tfl, &refs.tfl, 0.0);
        let totals: Vec<(f64, f64)> = reports
            .iter()
            .map(|r| sim_totals(std::slice::from_ref(r)))
            .collect();
        out.check(sims[i].as_ref().is_none_or(|f| *f == totals), || {
            format!("batch {id}: simulated costs differ from an earlier batch on the same input")
        });
        sims[i] = Some(totals);
        if traced {
            traced_job = Some((s, reports, session, tr.spans()));
        }
        t.job
    });

    // A job's simulated latency is its response time on an idle cluster;
    // the percentiles run over every app run of every input.
    let sims: Vec<Vec<(f64, f64)>> = sims.into_iter().flatten().collect();
    let per_input = |f: fn(&(f64, f64)) -> f64| {
        sims.iter()
            .map(|b| b.iter().map(f).sum::<f64>())
            .sum::<f64>()
            / sims.len().max(1) as f64
    };
    let latencies: Vec<f64> = sims.iter().flatten().map(|s| s.0).collect();
    out.set_median("load_s", &load);
    out.set_median("query_s", &query);
    out.set_median("job_s", &job);
    let runs_per_batch = sims.first().map_or(0, Vec::len);
    out.set(
        "serve_jobs_per_s",
        runs_per_batch as f64 / median(&query),
        query.len(),
    );
    out.set("sim_response_s", per_input(|s| s.0), sims.len());
    out.set("sim_network_mb", per_input(|s| s.1), sims.len());
    out.set(
        "sim_latency_p50_s",
        percentile(&latencies, 0.5),
        latencies.len(),
    );
    out.set(
        "sim_latency_p90_s",
        percentile(&latencies, 0.9),
        latencies.len(),
    );

    if let Some((s, reports, session, spans)) = traced_job {
        tr.set_on(true);
        partition_layer(&tr, PROBES, &s, &mut out);
        engine_layer(&s, o.threads, 10, &mut out);
        if let Some(rep) = &session {
            counter_layer(rep, &reports, &mut out);
        }
        finish_trace(
            &mut out,
            &tr,
            &spans,
            job[0],
            session.as_ref(),
            "analytics-tiny",
            o.seed,
        );
    }
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        1,
    );
    out
}
