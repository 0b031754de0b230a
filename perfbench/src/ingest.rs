//! `ingest-small`: generate `msn_like(Small)`, load it and run ten PageRank
//! iterations. Partitioning is most of the job, so this is the workload for
//! partitioner changes; the engine's working set exceeds a core's L2.

use crate::probe::{
    begin_job, counter_layer, engine_layer, finish_trace, partition_layer, repeat, setup,
    sim_totals, timed_job, PROBES,
};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::{graph, RunOpts};
use surfer::apps::{ExactOutput, NetworkRanking};
use surfer::graph::generators::social::MsnScale;

/// Input graphs per run (each load takes seconds at this size).
const INPUTS: usize = 3;
/// PageRank iterations of the job.
const ITERATIONS: u32 = 10;
/// Query samples per load: the job's own query plus repeats after it.
const QUERY_SAMPLES: usize = 3;
/// Tolerance the conformance suite allows NR on the propagation lane.
const NR_EPS: f64 = 1e-12;

/// Run the workload.
pub fn run(o: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let inputs = setup(o, &mut out, INPUTS, |seed| {
        graph(MsnScale::Small, o.size, seed)
    });
    let app = NetworkRanking::new(ITERATIONS);
    let references: Vec<_> = inputs.iter().map(|(g, _)| app.reference(g)).collect();

    let tr = Tracer::new(false);
    let (mut load, mut query, mut job) = (Vec::new(), Vec::new(), Vec::new());
    let mut sims: Vec<Option<(f64, f64)>> = vec![None; INPUTS];
    let mut traced_job = None;
    repeat(o, INPUTS, &mut out, |out, id, i, traced, measured| {
        let (g, c) = &inputs[i];
        let session = begin_job(&tr, traced);
        let (s, run, t) = timed_job(&tr, id, traced, g, c, o.threads, |s| {
            tr.time("query.app_s", id, || s.run(&app)).0
        });
        let session = session.map(|s| s.finish());
        tr.set_on(false);
        if measured {
            load.push(t.load);
            query.push(t.query);
            job.push(t.job);
        }
        match run {
            Ok(run) => {
                out.check(run.output.approx_eq(&references[i], NR_EPS), || {
                    format!("job {id}: NR ranks differ from the serial reference")
                });
                let totals = sim_totals(std::slice::from_ref(&run.report));
                out.check(sims[i].is_none_or(|first| first == totals), || {
                    format!(
                        "job {id}: simulated cost differs from an earlier job on the same input"
                    )
                });
                sims[i] = Some(totals);
                // More query samples on the loaded graph, outside the job
                // interval: one load costs seconds, one query a fraction.
                for rep in 1..QUERY_SAMPLES {
                    let (again, secs) = tr.time("query.app_s", id, || s.run(&app));
                    if measured {
                        query.push(secs);
                    }
                    out.check(
                        again.is_ok_and(|r| r.output.approx_eq(&references[i], NR_EPS)),
                        || {
                            format!(
                                "job {id} query {rep}: NR ranks differ from the serial reference"
                            )
                        },
                    );
                }
                if traced {
                    traced_job = Some((s, run.report, session, tr.spans()));
                }
            }
            Err(e) => out.check(false, || format!("job {id}: NR failed: {e}")),
        }
        t.job
    });

    // A job's simulated latency is its response time on an idle cluster.
    let sims: Vec<(f64, f64)> = sims.into_iter().flatten().collect();
    let responses: Vec<f64> = sims.iter().map(|s| s.0).collect();
    out.set_median("load_s", &load);
    out.set_median("query_s", &query);
    out.set_median("job_s", &job);
    out.set("serve_jobs_per_s", 1.0 / median(&query), query.len());
    out.set(
        "sim_response_s",
        responses.iter().sum::<f64>() / sims.len().max(1) as f64,
        sims.len(),
    );
    out.set(
        "sim_network_mb",
        sims.iter().map(|s| s.1).sum::<f64>() / sims.len().max(1) as f64,
        sims.len(),
    );
    out.set(
        "sim_latency_p50_s",
        crate::report::percentile(&responses, 0.5),
        sims.len(),
    );
    out.set(
        "sim_latency_p90_s",
        crate::report::percentile(&responses, 0.9),
        sims.len(),
    );

    if let Some((s, report, session, spans)) = traced_job {
        tr.set_on(true);
        partition_layer(&tr, PROBES, &s, &mut out);
        engine_layer(&s, o.threads, 5, &mut out);
        if let Some(rep) = &session {
            counter_layer(rep, std::slice::from_ref(&report), &mut out);
        }
        finish_trace(
            &mut out,
            &tr,
            &spans,
            job[0],
            session.as_ref(),
            "ingest-small",
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
