//! `serve-recover`: a `JobManager` (default `ServeConfig`) fed a seeded
//! open-loop arrival schedule on the simulated clock. Four independent
//! tenants submit PageRank `PropagationJob`s of 1–4 iterations; a quarter
//! carry repeating `CacheKey`s, and one per schedule is a `RecoveredJob`
//! that spills (memory budget = working set / 10), checkpoints every two
//! iterations and survives one seeded machine crash. This is the only
//! workload that exercises admission, dispatch, the result cache,
//! checkpoint write and restore, spill I/O and the scalar `run_iteration`
//! lane serving uses.
//!
//! The job mix is stratified: each schedule holds the same number of jobs
//! of each kind, iteration count and crash iteration, and the seed decides
//! their order, tenants, arrival instants and crashed machines. That keeps
//! the host work of a run independent of the seed.

use crate::probe::{
    begin_job, counter_layer, engine_layer, finish_trace, input_seed, partition_layer, repeat,
    setup, sim_totals, timed_job, PROBES,
};
use crate::report::{median, percentile, Outcome};
use crate::trace::{self, Tracer};
use crate::{graph, RunOpts, Size};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::cluster::{ExecReport, FaultPlan, MachineCrash, MachineId, SimDuration, SimTime};
use surfer::core::{
    working_set_bytes, EngineOptions, MemoryBudget, OptimizationLevel, PropagationEngine,
    RecoveryConfig, Surfer, SurferError, SurferResult,
};
use surfer::graph::generators::social::MsnScale;
use surfer::serve::job::encode_states;
use surfer::serve::{
    CacheKey, JobManager, JobSpec, JobTask, PropagationJob, RecoveredJob, ServeConfig, StepOutcome,
    TenantId,
};

/// Input graphs and schedules per run: enough schedules that the latency
/// percentiles rest on about a thousand jobs and move by a few percent at
/// most from one run seed to the next.
const INPUTS: usize = 16;
/// Independent tenants submitting jobs.
const TENANTS: u64 = 4;
/// Offered load as a share of the calibrated service rate.
const UTILIZATION: f64 = 0.5;
/// Checkpointed, spilling, crash-recovered jobs per schedule. Their spill
/// and checkpoint files go to disk, where creating and removing files costs
/// kernel time that swings several-fold between runs on a shared host. One
/// such job drives every checkpoint and spill path; three made the disk's
/// swings the largest source of noise in the query time.
const RECOVERED_JOBS: usize = 1;
/// Share of jobs whose cache key repeats (keyed by iteration count).
const CACHED_SHARE: f64 = 0.25;
/// PageRank iterations of a job range over `1..=MAX_ITERATIONS`.
const MAX_ITERATIONS: u32 = 4;
/// Checkpoint interval of recovered jobs.
const CHECKPOINT_INTERVAL: u32 = 2;
/// Spill budget of recovered jobs: working set / this.
const BUDGET_DIVISOR: u64 = 10;
/// PageRank's per-vertex state size in bytes (one f64).
const STATE_BYTES: u64 = 8;

/// What kind of job a schedule slot submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain,
    Cached,
    Recovered { machine: u16, crash_at: u32 },
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    tenant: u16,
    iterations: u32,
    kind: Kind,
}

/// SplitMix64: the schedule's only randomness, seeded from the run seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded arrival schedule of `jobs` jobs. Inter-arrival gaps are
/// exponential with mean `mean_service_us / UTILIZATION`.
fn schedule(seed: u64, jobs: usize, machines: u16, mean_service_us: f64) -> Vec<Arrival> {
    let recovered = RECOVERED_JOBS.min(jobs);
    let cached = (jobs as f64 * CACHED_SHARE).round() as usize;
    // `(kind, iterations, crash iteration)`; recovered jobs run the most
    // iterations and crash at the start of their last one, after the
    // checkpoint at the end of the first interval: the restore reads it
    // back and recomputes the tail.
    let mut mix: Vec<(u8, u32, u32)> = (0..jobs as u32)
        .map(|i| {
            if (i as usize) < recovered {
                (2, MAX_ITERATIONS, MAX_ITERATIONS - 1)
            } else {
                (
                    u8::from((i as usize) < recovered + cached),
                    1 + i % MAX_ITERATIONS,
                    0,
                )
            }
        })
        .collect();
    let mut rng = Rng(seed ^ 0x5E2F_E2EC);
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let gap = mean_service_us / UTILIZATION;
    let mut t = 0.0f64;
    mix.into_iter()
        .map(|(kind, iterations, crash_at)| {
            t += -(1.0 - rng.unit()).ln() * gap;
            let tenant = rng.below(TENANTS) as u16;
            let kind = match kind {
                0 => Kind::Plain,
                1 => Kind::Cached,
                _ => Kind::Recovered {
                    machine: rng.below(u64::from(machines)) as u16,
                    crash_at,
                },
            };
            Arrival {
                at: SimTime(t as u64),
                tenant,
                iterations,
                kind,
            }
        })
        .collect()
}

/// Benchmark-side wrapper timing each `step` of a served job and summing
/// the simulated cost of its slices.
struct Timed<'a> {
    inner: Box<dyn JobTask + 'a>,
    tr: Tracer,
    slot: usize,
    recovered: bool,
    service_us: Rc<RefCell<Vec<u64>>>,
}

impl JobTask for Timed<'_> {
    fn step(&mut self) -> SurferResult<StepOutcome> {
        let Timed {
            inner,
            tr,
            slot,
            recovered,
            service_us,
        } = self;
        let job = *slot as u64;
        let (r, _) = tr.time("serve.step_s", job, || {
            if *recovered {
                tr.time("checkpoint.job_s", job, || inner.step()).0
            } else {
                inner.step()
            }
        });
        if let Ok(StepOutcome::Running { cost } | StepOutcome::Done { cost, .. }) = &r {
            service_us.borrow_mut()[*slot] += cost.0;
        }
        r
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// How one scheduled job ended: `(latency µs from its due time, from
/// cache, result bytes)`, or `None` when admission kept refusing it.
type ServedJob = Option<(u64, bool, Result<Vec<u8>, String>)>;

/// What one pass over the schedule produced, per schedule slot.
#[derive(Debug, Clone, PartialEq)]
struct Served {
    /// Each slot's job.
    jobs: Vec<ServedJob>,
    /// Simulated cost of every slice the slot's job ran, µs.
    service_us: Vec<u64>,
    /// Submissions admission control turned away (each is offered again).
    refusals: u64,
}

/// Submissions of one job before the client gives up on it.
const MAX_SUBMISSIONS: u32 = 1000;

/// Serve the whole schedule on a fresh `JobManager`. A tenant's client
/// honours back-pressure: a refused submission is offered again after the
/// `Overloaded` hint (or one mean service time after a quota refusal), and
/// the job's latency still counts from its scheduled instant.
fn serve(
    s: &Surfer,
    prog: &PageRankPropagation,
    plan: &[Arrival],
    recovered_opts: EngineOptions,
    mean_service: SimDuration,
    ckpt_root: &Path,
    tr: &Tracer,
) -> Served {
    let service_us = Rc::new(RefCell::new(vec![0u64; plan.len()]));
    let mut ids = vec![None; plan.len()];
    let mut submissions = vec![0u32; plan.len()];
    let mut refusals = 0u64;
    let mut due: BTreeSet<(SimTime, usize)> =
        plan.iter().enumerate().map(|(i, a)| (a.at, i)).collect();
    let mut mgr = JobManager::new(ServeConfig::default());
    while let Some((at, slot)) = due.pop_first() {
        let a = &plan[slot];
        tr.time("serve.dispatch_s", slot as u64, || mgr.run_until(at));
        let inner: Box<dyn JobTask + '_> = match a.kind {
            Kind::Plain | Kind::Cached => {
                Box::new(PropagationJob::new(s.propagation(), prog, a.iterations))
            }
            Kind::Recovered { machine, crash_at } => {
                let plan = FaultPlan {
                    crashes: vec![MachineCrash {
                        machine: MachineId(machine),
                        at_iteration: crash_at,
                    }],
                    ..FaultPlan::none()
                };
                let cfg =
                    RecoveryConfig::new(CHECKPOINT_INTERVAL, ckpt_root.join(format!("job-{slot}")));
                Box::new(RecoveredJob::new(
                    s.cluster(),
                    s.partitioned(),
                    recovered_opts,
                    prog,
                    a.iterations,
                    cfg,
                    plan,
                ))
            }
        };
        let task = Timed {
            inner,
            tr: tr.clone(),
            slot,
            recovered: matches!(a.kind, Kind::Recovered { .. }),
            service_us: Rc::clone(&service_us),
        };
        let mut spec = JobSpec::new(TenantId(a.tenant));
        if a.kind == Kind::Cached {
            spec = spec.cached_as(CacheKey {
                app: "NR",
                graph_version: 1,
                params: u64::from(a.iterations),
            });
        }
        submissions[slot] += 1;
        match tr
            .time("serve.admit_s", slot as u64, || {
                mgr.submit(spec, Box::new(task))
            })
            .0
        {
            Ok(id) => ids[slot] = Some(id),
            Err(e) => {
                refusals += 1;
                let wait = match e {
                    SurferError::Overloaded {
                        retry_after_hint, ..
                    } => retry_after_hint,
                    _ => mean_service,
                };
                if e.is_backpressure() && submissions[slot] < MAX_SUBMISSIONS {
                    due.insert((mgr.now() + SimDuration(wait.0.max(1)), slot));
                }
            }
        }
    }
    tr.time("serve.dispatch_s", plan.len() as u64, || {
        mgr.run_to_completion()
    });
    let jobs = ids
        .iter()
        .zip(plan)
        .map(|(id, a)| {
            let o = mgr.outcome((*id)?)?;
            let result = o
                .result
                .as_ref()
                .map(|b| b.as_ref().clone())
                .map_err(|e| e.to_string());
            Some((o.completed_at.0 - a.at.0, o.from_cache, result))
        })
        .collect();
    drop(mgr);
    let service_us = service_us.borrow().clone();
    Served {
        jobs,
        service_us,
        refusals,
    }
}

/// Encoded states and per-iteration reports of a direct, fault-free engine
/// run after each of `1..=MAX_ITERATIONS` iterations.
fn references(s: &Surfer, prog: &PageRankPropagation) -> (Vec<Vec<u8>>, Vec<ExecReport>, bool) {
    let engine = s.propagation();
    let mut state = engine.init_state(prog);
    let mut states = Vec::new();
    let mut reports = Vec::new();
    let mut ok = true;
    for _ in 0..MAX_ITERATIONS {
        match engine.run_iteration_vectorized(prog, &mut state) {
            Ok(r) => reports.push(r),
            Err(_) => ok = false,
        }
        states.push(encode_states(&state));
    }
    (states, reports, ok)
}

/// One input's first pass: its schedule, what was served, and the
/// fault-free reports of every executed job.
struct Pass {
    plan: Vec<Arrival>,
    served: Served,
    executed_reports: Vec<ExecReport>,
}

/// Run the workload.
pub fn run(o: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let jobs = match o.size {
        Size::Full => 60,
        Size::Reduced => 20,
    };
    let inputs = setup(o, &mut out, INPUTS, |seed| {
        graph(MsnScale::Tiny, o.size, seed)
    });

    let tr = Tracer::new(false);
    let (mut load, mut query, mut job, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut passes: Vec<Option<Pass>> = (0..INPUTS).map(|_| None).collect();
    let mut traced_job = None;
    repeat(o, INPUTS, &mut out, |out, id, i, traced, measured| {
        let (g, c) = &inputs[i];
        let prog = PageRankPropagation {
            damping: 0.85,
            n: u64::from(g.num_vertices()),
        };
        let ckpt_root = o.scratch.join(format!("ckpt-{id}"));
        let session = begin_job(&tr, traced);
        let (s, (plan, served), t) = timed_job(&tr, id, traced, g, c, o.threads, |s| {
            // Calibrate the service rate on the simulated clock: one
            // resident PageRank iteration's response time, times the mean
            // iterations per job.
            let engine = s.propagation();
            let mut state = engine.init_state(&prog);
            let iteration_us = engine
                .run_iteration(&prog, &mut state)
                .map_or(1.0, |r| r.response_time.0 as f64);
            let mean_service = iteration_us * f64::from(1 + MAX_ITERATIONS) / 2.0;
            let plan = schedule(input_seed(o.seed, i), jobs, c.num_machines(), mean_service);
            let budget = working_set_bytes(s.partitioned(), STATE_BYTES) / BUDGET_DIVISOR;
            let opts = EngineOptions::from_level(OptimizationLevel::O4)
                .threads(o.threads)
                .memory_budget(MemoryBudget::bytes(budget));
            let served = serve(
                s,
                &prog,
                &plan,
                opts,
                SimDuration(mean_service as u64),
                &ckpt_root,
                &tr,
            );
            (plan, served)
        });
        let session = session.map(|s| s.finish());
        tr.set_on(false);
        let _ = std::fs::remove_dir_all(&ckpt_root);
        if measured {
            load.push(t.load);
            query.push(t.query);
            job.push(t.job);
            rate.push(served.jobs.iter().flatten().count() as f64 / t.query);
        }

        match &passes[i] {
            Some(first) => out.check(first.served == served, || {
                format!("job {id}: served results or simulated times differ from an earlier pass on the same input")
            }),
            None => {
                let (states, reports, ok) = references(&s, &prog);
                out.check(ok, || "reference engine run failed".into());
                for (slot, (a, done)) in plan.iter().zip(&served.jobs).enumerate() {
                    let want = &states[a.iterations as usize - 1];
                    match done {
                        None => {
                            // Never admitted: counts as failed, not as a wrong output.
                            out.attempted += 1;
                            out.failed += 1;
                        }
                        Some((_, _, Err(e))) => out.check(false, || format!("input {i} job {slot} failed: {e}")),
                        Some((_, _, Ok(bytes))) => out.check(bytes == want, || {
                            format!(
                                "input {i} job {slot} ({:?}, {} iterations): result differs from a direct engine run",
                                a.kind, a.iterations
                            )
                        }),
                    }
                }
                // `PropagationJob` does not hand its reports out, and an
                // iteration's simulated cost does not depend on the lane
                // that computed it, so executed jobs are charged the
                // fault-free engine reports of their iteration count.
                let executed_reports = plan
                    .iter()
                    .zip(&served.jobs)
                    .filter(|(_, j)| matches!(j, Some((_, false, _))))
                    .flat_map(|(a, _)| reports[..a.iterations as usize].iter().cloned())
                    .collect();
                passes[i] = Some(Pass { plan, served, executed_reports });
            }
        }
        if traced {
            traced_job = Some((s, session, tr.spans()));
        }
        t.job
    });
    let leftovers = leftover_spill_dirs();
    out.check(leftovers.is_empty(), || {
        format!("spill session directories left behind: {leftovers:?}")
    });

    let passes: Vec<Pass> = passes.into_iter().flatten().collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.served.jobs.iter().map(|j| {
                j.as_ref()
                    .map_or(f64::INFINITY, |(lat, _, _)| *lat as f64 / 1e6)
            })
        })
        .collect();
    let per_input =
        |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>() / passes.len().max(1) as f64;
    out.set_median("load_s", &load);
    out.set_median("query_s", &query);
    out.set_median("job_s", &job);
    out.set_median("serve_jobs_per_s", &rate);
    out.set(
        "sim_response_s",
        per_input(&|p| p.served.service_us.iter().sum::<u64>() as f64 / 1e6),
        passes.len(),
    );
    out.set(
        "sim_network_mb",
        per_input(&|p| sim_totals(&p.executed_reports).1),
        passes.len(),
    );
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
    let refusals: u64 = passes.iter().map(|p| p.served.refusals).sum();
    out.notes.push(format!(
        "serve-recover: {INPUTS} schedules of {jobs} jobs from {TENANTS} tenants, open loop at {UTILIZATION} of the calibrated service rate; {refusals} submissions refused and offered again"
    ));

    if let Some((s, session, spans)) = traced_job {
        let pass = &passes[0];
        let (plan, served) = (&pass.plan, &pass.served);
        tr.set_on(true);
        let prog = PageRankPropagation {
            damping: 0.85,
            n: u64::from(s.partitioned().graph().num_vertices()),
        };
        partition_layer(&tr, PROBES, &s, &mut out);
        engine_layer(&s, o.threads, 10, &mut out);
        spill_layer(&s, &prog, o.threads, &mut out);
        if let Some(rep) = &session {
            counter_layer(rep, &pass.executed_reports, &mut out);
        }
        let totals = trace::totals(&spans);
        let total = |n: &str| totals.get(n).map_or(0.0, |t| t.1 as f64 / 1e9);
        out.set("serve.admit_s", total("serve.admit_s"), 1);
        out.set("serve.step_s", total("serve.step_s"), 1);
        out.set(
            "serve.dispatch_s",
            totals
                .get("serve.dispatch_s")
                .map_or(0.0, |t| t.2 as f64 / 1e9),
            1,
        );
        out.set("checkpoint.job_s", total("checkpoint.job_s"), 1);
        let keyed: Vec<bool> = plan
            .iter()
            .zip(&served.jobs)
            .filter(|(a, _)| a.kind == Kind::Cached)
            .map(|(_, j)| matches!(j, Some((_, true, _))))
            .collect();
        let hits = keyed.iter().filter(|h| **h).count();
        out.set(
            "serve.cache_hit_ratio",
            hits as f64 / keyed.len().max(1) as f64,
            keyed.len(),
        );
        let waits: Vec<f64> = served
            .jobs
            .iter()
            .zip(&served.service_us)
            .filter_map(|(j, svc)| match j {
                Some((lat, false, _)) => Some(lat.saturating_sub(*svc) as f64 / 1e6),
                _ => None,
            })
            .collect();
        out.set(
            "serve.queue_wait_sim_s",
            waits.iter().sum::<f64>() / waits.len().max(1) as f64,
            waits.len(),
        );
        out.set("serve.refused", served.refusals as f64, plan.len());
        finish_trace(
            &mut out,
            &tr,
            &spans,
            job[0],
            session.as_ref(),
            "serve-recover",
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

/// One PageRank iteration under the recovered jobs' spill budget over one
/// resident iteration, both on the scalar lane (median of three each).
fn spill_layer(s: &Surfer, prog: &PageRankPropagation, threads: usize, out: &mut Outcome) {
    let budget = working_set_bytes(s.partitioned(), STATE_BYTES) / BUDGET_DIVISOR;
    let time = |budget: MemoryBudget| {
        let opts = EngineOptions::from_level(OptimizationLevel::O4)
            .threads(threads)
            .memory_budget(budget);
        let engine = PropagationEngine::new(s.cluster(), s.partitioned(), opts);
        let mut state = engine.init_state(prog);
        let mut secs = Vec::new();
        let mut ok = true;
        for _ in 0..3 {
            let t0 = Instant::now();
            ok &= engine.run_iteration(prog, &mut state).is_ok();
            secs.push(t0.elapsed().as_secs_f64());
        }
        (median(&secs), encode_states(&state), ok)
    };
    let (spill_s, spilled, spill_ok) = time(MemoryBudget::bytes(budget));
    let (resident_s, resident, resident_ok) = time(MemoryBudget::unlimited());
    out.check(spill_ok && resident_ok, || {
        "a spill probe iteration failed".into()
    });
    out.check(spilled == resident, || {
        "spilled and resident iterations disagree".into()
    });
    out.set("ooc.spill_over_resident", spill_s / resident_s, 3);
}

/// Spill session directories this process left under the temp directory.
fn leftover_spill_dirs() -> Vec<String> {
    let prefix = format!("{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir().join("surfer-ooc"))
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default()
}
