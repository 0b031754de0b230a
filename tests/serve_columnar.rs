//! Served propagation jobs on the columnar kernel lane.
//!
//! `PropagationJob` runs each slice through the program's columnar lane
//! (`Propagation::columnar`) when it has one. The contract under test, for
//! PageRank, connected components and BFS served side by side through one
//! `JobManager` at worker-thread counts {1, 2, max}:
//!
//! - **bit-identity** — the output bytes and every slice's simulated cost
//!   equal a serial (one-thread, scalar) direct engine run, whichever lane
//!   served the job; the serial run itself matches each app's own serial
//!   algorithm;
//! - **the lane is really taken** — with an unlimited budget every served
//!   iteration is a `kernel.fastpath_rounds` round; with `vectorized(false)`
//!   or a spilling budget every one is a `kernel.fallback_rounds` round, and
//!   the spilling budget records `spill.*` work. Without these counter
//!   checks a silent fallback would still pass the bit-identity checks;
//! - a program without the hook stays on the scalar UDF lane.
//!
//! The obs registry is process-global, so a test holding an `ObsSession`
//! would also count the work of any test running beside it. The session
//! tests therefore take [`SESSION_LOCK`] exclusively, and every other test
//! takes it shared.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use surfer::apps::components::ComponentPropagation;
use surfer::apps::pagerank::PageRankPropagation;
use surfer::apps::shortest_paths::BfsPropagation;
use surfer::apps::{BreadthFirstSearch, ConnectedComponents, NetworkRanking};
use surfer::cluster::{ClusterConfig, MachineId, SimCluster, SimDuration};
use surfer::core::{
    working_set_bytes, Checkpointable, EngineOptions, MemoryBudget, Propagation, PropagationEngine,
    SurferResult,
};
use surfer::graph::builder::from_edges;
use surfer::graph::{CsrGraph, VertexId};
use surfer::obs::{ObsSession, TraceReport};
use surfer::partition::{PartitionedGraph, Partitioning};
use surfer::serve::job::encode_states;
use surfer::serve::{
    JobManager, JobSpec, JobTask, PropagationJob, ServeConfig, StepOutcome, TenantId,
};

const VERTICES: u32 = 400;
const PARTITIONS: u32 = 4;
const PR_ITERATIONS: u32 = 5;
/// Enough rounds for CC and BFS to converge on the fixture.
const CONVERGE_ITERATIONS: u32 = 12;
/// Iterations served per manager run: one PageRank, one CC, one BFS job.
const TOTAL_ITERATIONS: u64 = (PR_ITERATIONS + 2 * CONVERGE_ITERATIONS) as u64;

/// Held exclusively by the tests that record an `ObsSession`, shared by
/// all the others.
static SESSION_LOCK: RwLock<()> = RwLock::new(());

fn session_free() -> RwLockReadGuard<'static, ()> {
    SESSION_LOCK.read().unwrap_or_else(PoisonError::into_inner)
}

fn session_exclusive() -> RwLockWriteGuard<'static, ()> {
    SESSION_LOCK.write().unwrap_or_else(PoisonError::into_inner)
}

/// A seeded symmetric random graph (CC needs both edge directions) in four
/// contiguous blocks on four flat machines, so it has both inner and
/// boundary vertices.
fn fixture() -> (SimCluster, PartitionedGraph) {
    let mut rng = StdRng::seed_from_u64(0x5E_C0);
    let mut edges = Vec::new();
    for _ in 0..800 {
        let (a, b) = (rng.gen_range(0..VERTICES), rng.gen_range(0..VERTICES));
        edges.push((a, b));
        edges.push((b, a));
    }
    let g = from_edges(VERTICES, edges);
    let block = VERTICES / PARTITIONS;
    let p = Partitioning::new((0..VERTICES).map(|v| v / block).collect(), PARTITIONS);
    let placement = (0..PARTITIONS as u16).map(MachineId).collect();
    let pg = PartitionedGraph::from_parts(Arc::new(g), p, placement);
    (ClusterConfig::flat(PARTITIONS as u16).build(), pg)
}

fn pagerank() -> PageRankPropagation {
    PageRankPropagation { damping: 0.85, n: u64::from(VERTICES) }
}

fn bfs() -> BfsPropagation {
    let mut is_source = vec![false; VERTICES as usize];
    is_source[0] = true;
    BfsPropagation { is_source }
}

/// What one served job produced: its output bytes and each slice's cost.
type Served = (Vec<u8>, Vec<SimDuration>);

/// Records the simulated cost of every slice its inner task runs.
struct Recorded<'a> {
    inner: Box<dyn JobTask + 'a>,
    costs: Rc<RefCell<Vec<SimDuration>>>,
}

impl JobTask for Recorded<'_> {
    fn step(&mut self) -> SurferResult<StepOutcome> {
        let out = self.inner.step()?;
        let (StepOutcome::Running { cost } | StepOutcome::Done { cost, .. }) = &out;
        self.costs.borrow_mut().push(*cost);
        Ok(out)
    }

    fn reset(&mut self) {
        self.costs.borrow_mut().clear();
        self.inner.reset();
    }
}

/// Serve one PageRank, one CC and one BFS job (one tenant each) through a
/// single `JobManager`, every job on its own engine with `opts`.
fn serve_all(c: &SimCluster, pg: &PartitionedGraph, opts: EngineOptions) -> Vec<Served> {
    let (pr, cc, bfs) = (pagerank(), ComponentPropagation, bfs());
    let engine = || PropagationEngine::new(c, pg, opts);
    let tasks: [Box<dyn JobTask + '_>; 3] = [
        Box::new(PropagationJob::new(engine(), &pr, PR_ITERATIONS)),
        Box::new(PropagationJob::new(engine(), &cc, CONVERGE_ITERATIONS)),
        Box::new(PropagationJob::new(engine(), &bfs, CONVERGE_ITERATIONS)),
    ];
    let mut m = JobManager::new(ServeConfig::default());
    let mut jobs = Vec::new();
    for (tenant, inner) in (0u16..).zip(tasks) {
        let costs = Rc::new(RefCell::new(Vec::new()));
        let rec = Recorded { inner, costs: Rc::clone(&costs) };
        let id = m.submit(JobSpec::new(TenantId(tenant)), Box::new(rec)).unwrap();
        jobs.push((id, costs));
    }
    m.run_to_completion();
    jobs.into_iter()
        .map(|(id, costs)| {
            let out = m.outcome(id).expect("every served job ends");
            let bytes = out.result.as_ref().unwrap_or_else(|e| panic!("job {id:?} failed: {e}"));
            (bytes.as_ref().clone(), costs.borrow().clone())
        })
        .collect()
}

/// A direct engine run of `prog`, one iteration at a time: final states and
/// each iteration's simulated cost.
fn direct<P: Propagation>(
    c: &SimCluster,
    pg: &PartitionedGraph,
    opts: EngineOptions,
    prog: &P,
    iterations: u32,
) -> (Vec<P::State>, Vec<SimDuration>) {
    let engine = PropagationEngine::new(c, pg, opts);
    let mut state = engine.init_state(prog);
    let costs = (0..iterations)
        .map(|_| engine.run_iteration(prog, &mut state).unwrap().response_time)
        .collect();
    (state, costs)
}

fn encoded<S: Checkpointable>((state, costs): (Vec<S>, Vec<SimDuration>)) -> Served {
    (encode_states(&state), costs)
}

/// The serial reference: every job run directly on one thread through the
/// scalar UDF lane.
fn serial_reference(c: &SimCluster, pg: &PartitionedGraph) -> Vec<Served> {
    let opts = EngineOptions::full().threads(1).vectorized(false);
    vec![
        encoded(direct(c, pg, opts, &pagerank(), PR_ITERATIONS)),
        encoded(direct(c, pg, opts, &ComponentPropagation, CONVERGE_ITERATIONS)),
        encoded(direct(c, pg, opts, &bfs(), CONVERGE_ITERATIONS)),
    ]
}

/// Serve every app under a fresh session; return the outputs and counters.
fn serve_recorded(
    c: &SimCluster,
    pg: &PartitionedGraph,
    opts: EngineOptions,
) -> (Vec<Served>, TraceReport) {
    let session = ObsSession::begin();
    let served = serve_all(c, pg, opts);
    (served, session.finish())
}

const APPS: [&str; 3] = ["PageRank", "CC", "BFS"];

fn assert_same(served: &[Served], reference: &[Served], lane: &str, threads: usize) {
    for ((app, got), want) in APPS.iter().zip(served).zip(reference) {
        assert_eq!(got.0, want.0, "{app} on the {lane} lane, threads={threads}: output bytes");
        assert_eq!(got.1, want.1, "{app} on the {lane} lane, threads={threads}: slice costs");
    }
}

#[test]
fn the_conformance_apps_expose_their_columnar_lane() {
    let _lock = session_free();
    assert!(pagerank().columnar().is_some());
    assert!(ComponentPropagation.columnar().is_some());
    assert!(bfs().columnar().is_some());
}

#[test]
fn the_serial_reference_matches_each_apps_own_algorithm() {
    let _lock = session_free();
    let (c, pg) = fixture();
    let g = pg.graph();
    let opts = EngineOptions::full().threads(1).vectorized(false);
    let (ranks, _) = direct(&c, &pg, opts, &pagerank(), PR_ITERATIONS);
    let want = NetworkRanking::new(PR_ITERATIONS).reference(g).ranks;
    for (v, (a, b)) in ranks.iter().zip(&want).enumerate() {
        assert!((a - b).abs() < 1e-12, "vertex {v}: rank {a} vs reference {b}");
    }
    let (cc, _) = direct(&c, &pg, opts, &ComponentPropagation, CONVERGE_ITERATIONS);
    let labels: Vec<u32> = cc.iter().map(|s| s.label).collect();
    assert_eq!(labels, ConnectedComponents::new().reference(g).labels);
    let (dist, _) = direct(&c, &pg, opts, &bfs(), CONVERGE_ITERATIONS);
    let dist: Vec<u32> = dist.iter().map(|s| s.dist).collect();
    assert_eq!(dist, BreadthFirstSearch::from_source(VertexId(0)).reference(g).dist);
}

#[test]
fn served_jobs_take_the_columnar_lane_bit_identically() {
    let _lock = session_exclusive();
    let (c, pg) = fixture();
    let reference = serial_reference(&c, &pg);
    for threads in [1usize, 2, 0] {
        let (served, rep) = serve_recorded(&c, &pg, EngineOptions::full().threads(threads));
        assert_same(&served, &reference, "columnar", threads);
        assert_eq!(rep.counter("prop.iterations"), TOTAL_ITERATIONS, "threads={threads}");
        assert_eq!(
            rep.counter("kernel.fastpath_rounds"),
            TOTAL_ITERATIONS,
            "threads={threads}: every served iteration must take the columnar lane"
        );
        assert_eq!(rep.counter("kernel.fallback_rounds"), 0, "threads={threads}");
        assert_eq!(rep.counter("spill.iterations"), 0, "threads={threads}");
    }
}

#[test]
fn vectorized_off_serves_on_the_scalar_lane_bit_identically() {
    let _lock = session_exclusive();
    let (c, pg) = fixture();
    let reference = serial_reference(&c, &pg);
    for threads in [1usize, 2, 0] {
        let opts = EngineOptions::full().threads(threads).vectorized(false);
        let (served, rep) = serve_recorded(&c, &pg, opts);
        assert_same(&served, &reference, "scalar", threads);
        assert_eq!(rep.counter("kernel.fastpath_rounds"), 0, "threads={threads}");
        assert_eq!(rep.counter("kernel.fallback_rounds"), TOTAL_ITERATIONS, "threads={threads}");
    }
}

#[test]
fn a_spilling_budget_serves_on_the_spill_lane_bit_identically() {
    let _lock = session_exclusive();
    let (c, pg) = fixture();
    let reference = serial_reference(&c, &pg);
    // Every app keeps the default 12-byte state, so one budget spills all.
    let budget = working_set_bytes(&pg, pagerank().state_bytes()) / 10;
    for threads in [1usize, 2, 0] {
        let opts =
            EngineOptions::full().threads(threads).memory_budget(MemoryBudget::bytes(budget));
        let (served, rep) = serve_recorded(&c, &pg, opts);
        assert_same(&served, &reference, "spill", threads);
        assert_eq!(rep.counter("kernel.fastpath_rounds"), 0, "threads={threads}");
        assert_eq!(rep.counter("kernel.fallback_rounds"), TOTAL_ITERATIONS, "threads={threads}");
        assert_eq!(rep.counter("spill.iterations"), TOTAL_ITERATIONS, "threads={threads}");
        assert!(rep.counter("spill.bytes_spilled") > 0, "threads={threads}: nothing spilled");
        assert!(rep.counter("spill.bytes_reread") > 0, "threads={threads}: nothing reread");
    }
}

/// PageRank with every method delegated except the columnar hook.
struct ScalarOnly(PageRankPropagation);

impl Propagation for ScalarOnly {
    type State = f64;
    type Msg = f64;

    fn init(&self, v: VertexId, g: &CsrGraph) -> f64 {
        self.0.init(v, g)
    }

    fn transfer(&self, from: VertexId, state: &f64, to: VertexId, g: &CsrGraph) -> Option<f64> {
        self.0.transfer(from, state, to, g)
    }

    fn combine(&self, v: VertexId, old: &f64, msgs: Vec<f64>, g: &CsrGraph) -> f64 {
        self.0.combine(v, old, msgs, g)
    }

    fn associative(&self) -> bool {
        self.0.associative()
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        self.0.merge(a, b)
    }

    fn msg_bytes(&self, msg: &f64) -> u64 {
        self.0.msg_bytes(msg)
    }
}

#[test]
fn a_program_without_the_hook_stays_on_the_scalar_lane() {
    let _lock = session_exclusive();
    let (c, pg) = fixture();
    let prog = ScalarOnly(pagerank());
    assert!(prog.columnar().is_none());
    let reference = serial_reference(&c, &pg);
    for threads in [1usize, 2, 0] {
        let session = ObsSession::begin();
        let mut m = JobManager::new(ServeConfig::default());
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full().threads(threads));
        let id = m
            .submit(
                JobSpec::new(TenantId(0)),
                Box::new(PropagationJob::new(engine, &prog, PR_ITERATIONS)),
            )
            .unwrap();
        m.run_to_completion();
        let rep = session.finish();
        let out = m.outcome(id).unwrap().result.as_ref().unwrap();
        assert_eq!(out.as_slice(), reference[0].0.as_slice(), "threads={threads}");
        assert_eq!(rep.counter("prop.iterations"), u64::from(PR_ITERATIONS));
        // No hook means no columnar attempt, so not a fallback either.
        assert_eq!(rep.counter("kernel.fastpath_rounds"), 0, "threads={threads}");
        assert_eq!(rep.counter("kernel.fallback_rounds"), 0, "threads={threads}");
    }
}
