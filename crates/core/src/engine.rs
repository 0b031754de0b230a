//! The P-Surfer propagation execution engine (§5.1, Algorithm 5).
//!
//! One iteration runs in two stages per partition:
//!
//! * **Transfer** — scan the partition once, calling `transfer` on every
//!   out-edge. Messages to vertices of the *same* partition stay local;
//!   with **local propagation** they are consumed in memory, otherwise they
//!   are spilled to disk as intermediate results. Messages crossing
//!   partitions are — with **local combination**, when `combine` is
//!   associative — first merged per remote destination vertex, then sent
//!   over the (simulated) network sized by the topology's pair bandwidth.
//! * **Combine** — once all incoming data is local, call `combine` on every
//!   member vertex with its bag of messages and write the updated values.
//!
//! Computation is real: the engine produces exact application results. The
//! cluster charges time/bytes through the discrete-event executor with the
//! *actual* message byte counts.
//!
//! Both real stages run on host worker threads, one partition per work item
//! (see [`EngineOptions::threads`]). Results are reassembled in ascending
//! partition-id order, so states, message counts and [`ExecReport`] numbers
//! are identical for every thread count.

use crate::error::{SurferError, SurferResult};
use crate::ooc::{working_set_bytes, MemoryBudget, OocSession};
use crate::opt::OptimizationLevel;
use crate::primitive::{Propagation, VirtualVertexTask};
use std::collections::BTreeMap;
use std::sync::Arc;
use surfer_cluster::par::try_par_map_vec;
use surfer_cluster::{
    ExecReport, Executor, Fault, MachineId, PartitionStore, SimCluster, SpillFault, StoreReplanner,
    TaskKind, TaskSpec,
};
use surfer_graph::VertexId;
use surfer_partition::PartitionedGraph;

/// Engine knobs independent of storage layout (the layout lives in the
/// [`PartitionedGraph`]'s placement).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Consume inner-vertex messages in memory (§5.1 local propagation).
    pub local_propagation: bool,
    /// Merge cross-partition messages per destination vertex when the
    /// program is associative (§5.1 local combination).
    pub local_combination: bool,
    /// Host worker threads for the real Transfer/Combine computation.
    /// `0` (the default) means one per available core; `1` runs the legacy
    /// sequential path inline. Any value produces identical results.
    pub threads: usize,
    /// Run programs implementing `VectorizedProgram` through the columnar
    /// kernel lane (bit-identical to the scalar UDF path). Off forces the
    /// scalar fallback even for opted-in programs.
    pub vectorized: bool,
    /// Allow `threads` above the host's available cores. Off (default),
    /// `resolved_threads` clamps to the core count — oversubscribing the
    /// CPU-bound partition scans only adds scheduler churn.
    pub allow_oversubscription: bool,
    /// Serve kernel adjacency gathers from the delta/varint `PackedCsr`
    /// instead of raw CSR target slices (trades decode CPU for footprint).
    pub packed_adjacency: bool,
    /// Resident-set budget. Unlimited (the default) runs everything in
    /// memory; a limited budget diverts any program whose working set
    /// exceeds it through the out-of-core lane (`crate::ooc`): adjacency
    /// streamed from disk edge blocks, mailbox spilled to segment files —
    /// results stay bit-identical to the in-memory engine.
    pub memory_budget: MemoryBudget,
}

impl EngineOptions {
    /// Options implied by an optimization level.
    pub fn from_level(level: OptimizationLevel) -> Self {
        EngineOptions {
            local_propagation: level.local_propagation(),
            local_combination: level.local_combination(),
            ..EngineOptions::none()
        }
    }

    /// Everything on (O4 behaviour).
    pub fn full() -> Self {
        EngineOptions { local_propagation: true, local_combination: true, ..EngineOptions::none() }
    }

    /// Everything off (O1 behaviour).
    pub fn none() -> Self {
        EngineOptions {
            local_propagation: false,
            local_combination: false,
            threads: 0,
            vectorized: true,
            allow_oversubscription: false,
            packed_adjacency: false,
            memory_budget: MemoryBudget::unlimited(),
        }
    }

    /// Set the host worker-thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggle the columnar kernel lane (on by default).
    pub fn vectorized(mut self, on: bool) -> Self {
        self.vectorized = on;
        self
    }

    /// Opt out of the host-core clamp on `threads`.
    pub fn allow_oversubscription(mut self, on: bool) -> Self {
        self.allow_oversubscription = on;
        self
    }

    /// Serve kernel gathers from the packed varint CSR.
    pub fn packed_adjacency(mut self, on: bool) -> Self {
        self.packed_adjacency = on;
        self
    }

    /// Cap the engine's resident set (see [`EngineOptions::memory_budget`]).
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// The worker count the engine stages actually use: the `threads` knob
    /// resolved (`0` = available parallelism) and — unless
    /// [`EngineOptions::allow_oversubscription`] — clamped to host cores.
    pub fn resolved_threads(&self) -> usize {
        if self.allow_oversubscription {
            surfer_cluster::par::resolve_threads(self.threads)
        } else {
            surfer_cluster::par::resolve_threads_clamped(self.threads)
        }
    }
}

/// What one partition's Transfer scan produced: messages in exactly the
/// order the sequential scan would have pushed them (locals and unmerged
/// cross messages during the scan, merged cross messages after it, in
/// destination order), plus the partition's cost tally.
struct Outbox<M> {
    msgs: Vec<(VertexId, M)>,
    tally: PartitionTally,
    emitted: u64,
}

/// What one partition's virtual-vertex transfer produced: `(virtual id,
/// msg)` pairs in sequential emission order, the per-machine byte row, the
/// number of `transfer()` calls, and the scan's wall time (0 when no obs
/// session records).
pub(crate) type VirtualOutbox<M> = (Vec<(u64, M)>, Vec<u64>, u64, u64);

/// Per-partition cost tally for one iteration. Shared with the vectorized
/// kernel lane (`crate::kernel`), which must reproduce it field for field.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartitionTally {
    /// transfer() invocations (edge scans).
    pub(crate) transfer_calls: u64,
    /// Bytes of partition-local intermediate messages.
    pub(crate) local_bytes: u64,
    /// Bytes of partition-local messages whose destination is an inner
    /// vertex (elided from disk by local propagation).
    pub(crate) local_inner_bytes: u64,
    /// Outgoing bytes per remote partition (after local combination).
    /// Ordered so the simulated transfer DAG is built identically run to
    /// run (and for any thread count).
    pub(crate) cross_out: BTreeMap<u32, u64>,
    /// Messages combined at this partition.
    pub(crate) combine_msgs: u64,
    /// Messages whose destination stayed in this partition.
    pub(crate) local_msgs: u64,
    /// Messages sent across partitions (after local combination).
    pub(crate) cross_msgs: u64,
    /// Wall time of this partition's Transfer scan (only measured while an
    /// obs session records; not deterministic).
    pub(crate) transfer_ns: u64,
    /// Wall time of this partition's Combine (same caveat).
    pub(crate) combine_ns: u64,
}

/// Publish the per-iteration Transfer-stage counters (no-op without an
/// active obs session). Shared by the scalar and vectorized lanes so both
/// report through one schema.
pub(crate) fn publish_transfer_counters(tally: &[PartitionTally], messages: u64) {
    if !surfer_obs::enabled() {
        return;
    }
    surfer_obs::counter_add("prop.messages", messages);
    surfer_obs::counter_add("prop.transfer_calls", tally.iter().map(|t| t.transfer_calls).sum());
    surfer_obs::counter_add("prop.local_bytes", tally.iter().map(|t| t.local_bytes).sum());
    surfer_obs::counter_add(
        "prop.local_inner_bytes",
        tally.iter().map(|t| t.local_inner_bytes).sum(),
    );
    surfer_obs::counter_add(
        "prop.cross_bytes",
        tally.iter().flat_map(|t| t.cross_out.values()).sum(),
    );
    surfer_obs::counter_add("prop.local_msgs", tally.iter().map(|t| t.local_msgs).sum());
    surfer_obs::counter_add("prop.cross_msgs", tally.iter().map(|t| t.cross_msgs).sum());
}

/// Publish the per-iteration Combine-stage counters and the flight-recorder
/// sample (no-op without an active obs session). The P×P traffic matrix
/// puts partition-local bytes on the diagonal and the post-combination
/// cross bytes off it, so its diagonal/off-diagonal totals equal
/// `prop.local_bytes`/`prop.cross_bytes`.
pub(crate) fn publish_iteration_sample(tally: &[PartitionTally], mailbox_sizes: Vec<u64>) {
    if !surfer_obs::enabled() {
        return;
    }
    surfer_obs::counter_add("prop.combine_msgs", tally.iter().map(|t| t.combine_msgs).sum());
    surfer_obs::counter_add("prop.iterations", 1);

    let p = tally.len();
    let mut sample = surfer_obs::IterationSample::new(surfer_obs::StageKind::Propagation);
    let mut traffic = surfer_obs::TrafficMatrix::new(p, p);
    for (pid, t) in tally.iter().enumerate() {
        traffic.add(pid, pid, t.local_bytes);
        for (&q, &bytes) in &t.cross_out {
            traffic.add(pid, q as usize, bytes);
        }
        sample.local_msgs += t.local_msgs;
        sample.cross_msgs += t.cross_msgs;
        sample.local_bytes += t.local_bytes;
        sample.cross_bytes += t.cross_out.values().sum::<u64>();
    }
    sample.transfer_ns = tally.iter().map(|t| t.transfer_ns).collect();
    sample.combine_ns = tally.iter().map(|t| t.combine_ns).collect();
    sample.mailbox = mailbox_sizes;
    sample.traffic = traffic;
    surfer_obs::record_sample(sample);
}

/// Reject a state vector that does not cover every vertex of `pg`. The
/// scalar, columnar and spill lanes all run this before touching anything,
/// so a caller's length mistake is a typed error on every lane.
pub(crate) fn check_state_len(pg: &PartitionedGraph, len: usize) -> SurferResult<()> {
    let n = pg.graph().num_vertices() as usize;
    if len == n {
        Ok(())
    } else {
        Err(SurferError::InvalidInput {
            reason: format!("state vector has {len} entries but the graph has {n} vertices"),
        })
    }
}

/// The propagation engine bound to a cluster + partitioned graph.
#[derive(Debug, Clone)]
pub struct PropagationEngine<'a> {
    cluster: &'a SimCluster,
    graph: &'a PartitionedGraph,
    options: EngineOptions,
    /// Spill store backing the out-of-core lane; created once per engine so
    /// edge blocks are written once and reread across iterations. `None`
    /// when the budget is unlimited.
    ooc: Option<Arc<OocSession>>,
}

impl<'a> PropagationEngine<'a> {
    /// Bind the engine.
    pub fn new(cluster: &'a SimCluster, graph: &'a PartitionedGraph, options: EngineOptions) -> Self {
        for pid in graph.partitions() {
            assert!(
                graph.machine_of(pid).0 < cluster.num_machines(),
                "partition {pid} placed outside the cluster"
            );
        }
        let ooc = options.memory_budget.limit().map(|b| Arc::new(OocSession::new(b)));
        PropagationEngine { cluster, graph, options, ooc }
    }

    /// The bound partitioned graph.
    pub fn graph(&self) -> &PartitionedGraph {
        self.graph
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &SimCluster {
        self.cluster
    }

    /// The active options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Will a program with this per-vertex state size run through the
    /// out-of-core lane? True exactly when a memory budget is configured
    /// and the program's [`working_set_bytes`] exceeds it.
    pub fn spill_active(&self, state_bytes: u64) -> bool {
        match (&self.ooc, self.options.memory_budget.limit()) {
            (Some(_), Some(budget)) => working_set_bytes(self.graph, state_bytes) > budget,
            _ => false,
        }
    }

    /// Run one iteration while injecting disk faults into the spill files
    /// of the out-of-core lane (chaos testing). With an unlimited budget —
    /// or a working set under it — nothing spills and the faults have no
    /// surface to land on, so this behaves exactly like
    /// [`PropagationEngine::run_iteration`].
    pub fn run_iteration_with_spill_faults<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        spill_faults: &[SpillFault],
    ) -> SurferResult<ExecReport> {
        Ok(self.run_iteration_inner(prog, state, None, &[], spill_faults)?.0)
    }

    /// Initialize the per-vertex state vector for a program.
    pub fn init_state<P: Propagation>(&self, prog: &P) -> Vec<P::State> {
        let g = self.graph.graph();
        g.vertices().map(|v| prog.init(v, g)).collect()
    }

    /// Run one propagation iteration, updating `state` in place and
    /// returning the simulated-cost report.
    ///
    /// A panic in the program's `transfer`/`combine` surfaces as
    /// [`SurferError::UdfPanic`]; `state` is then untouched (writeback only
    /// happens after every worker succeeds), so the iteration is retryable.
    /// A `state` whose length is not the vertex count is rejected up front
    /// with [`SurferError::InvalidInput`].
    pub fn run_iteration<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
    ) -> SurferResult<ExecReport> {
        self.run_iteration_discounted(prog, state, None)
    }

    /// [`PropagationEngine::run_iteration`] with a per-partition multiplier
    /// on partition disk traffic. Cascaded propagation (§5.2) passes a
    /// fraction < 1 for iterations whose `V_k` vertices were already handled
    /// in a batch at the phase start — the computation is identical, only
    /// the charged partition read/write shrinks.
    pub fn run_iteration_discounted<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        disk_fraction: Option<&[f64]>,
    ) -> SurferResult<ExecReport> {
        Ok(self.run_iteration_inner(prog, state, disk_fraction, &[], &[])?.0)
    }

    /// Run one iteration and also report how many messages `transfer`
    /// emitted — the signal convergence-driven jobs
    /// ([`PropagationEngine::run_until_converged`]) stop on.
    pub fn run_iteration_counted<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
    ) -> SurferResult<(ExecReport, u64)> {
        self.run_iteration_inner(prog, state, None, &[], &[])
    }

    /// Iterate until an iteration emits no messages (quiescence, the
    /// Pregel-style halting condition) or `max_iterations` is reached.
    /// Returns the accumulated report and the number of iterations run.
    ///
    /// Programs drive this by returning `None` from `transfer` once their
    /// vertex state stops changing (see the connected-components and
    /// BFS extension apps).
    pub fn run_until_converged<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        max_iterations: u32,
    ) -> SurferResult<(ExecReport, u32)> {
        let mut total = ExecReport::new(self.cluster.num_machines());
        let _ctx = surfer_obs::journal::ctx_enter(surfer_obs::journal::current_ctx());
        for it in 0..max_iterations {
            surfer_obs::journal::set_iteration(it);
            let (report, messages) = self.run_iteration_counted(prog, state)?;
            total.absorb(&report);
            if messages == 0 {
                return Ok((total, it + 1));
            }
        }
        Ok((total, max_iterations))
    }

    /// Run one iteration while injecting machine failures into the simulated
    /// execution (App. B / Figure 10). The job manager's recovery policy
    /// applies: tasks of a dead machine move to a surviving replica holder
    /// of their partition; Combine tasks first re-receive their remote
    /// inputs. Application results are unaffected — fault tolerance is a
    /// property of the simulated runtime.
    pub fn run_iteration_with_faults<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        faults: &[Fault],
    ) -> SurferResult<ExecReport> {
        Ok(self.run_iteration_inner(prog, state, None, faults, &[])?.0)
    }

    pub(crate) fn run_iteration_inner<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        disk_fraction: Option<&[f64]>,
        faults: &[Fault],
        spill_faults: &[SpillFault],
    ) -> SurferResult<(ExecReport, u64)> {
        if self.spill_active(prog.state_bytes()) {
            // lint:allow(E1, spill_active is only true when self.ooc is Some)
            let session = self.ooc.as_ref().expect("spill_active implies a session");
            return crate::ooc::run_iteration_spilled(
                self,
                session,
                prog,
                state,
                disk_fraction,
                faults,
                spill_faults,
            );
        }
        check_state_len(self.graph, state.len())?;
        let _iter_span = surfer_obs::span_seq("prop.iteration");
        surfer_obs::journal::record(surfer_obs::journal::EventKind::IterationStart {
            lane: "resident",
        });
        let pg = self.graph;
        let g = pg.graph();
        let n = g.num_vertices() as usize;
        let threads = self.options.resolved_threads();
        let merge_cross = self.options.local_combination && prog.associative();
        let enc = pg.encoding();

        // ---- Transfer stage (real, one worker item per partition). ----
        // Each scan emits into a private outbox in exactly the sequential
        // push order; outboxes are folded below in ascending pid order, so
        // every combine() input bag — and every tally — is identical no
        // matter how many threads ran or how they were scheduled.
        let state_ro: &[P::State] = state;
        let pids: Vec<u32> = pg.partitions().collect();
        let transfer_span = surfer_obs::span("prop.transfer");
        let transfer_sid = transfer_span.id();
        // Work item i is partition i, so a WorkerPanic's index names the
        // failing partition directly.
        let outboxes: Vec<Outbox<P::Msg>> = try_par_map_vec(threads, pids, |_, pid| {
            let _s = surfer_obs::span_under("prop.transfer.part", transfer_sid, || format!("p{pid}"));
            let t0 = surfer_obs::stopwatch();
            let meta = pg.meta(pid);
            if surfer_obs::enabled() {
                // Counter increments are commutative, so these per-partition
                // adds are thread-count-deterministic even off-thread.
                let inner = meta.members.iter().filter(|&&v| pg.is_inner(v)).count() as u64;
                surfer_obs::counter_add("prop.inner_vertices", inner);
                surfer_obs::counter_add("prop.boundary_vertices", meta.members.len() as u64 - inner);
            }
            let mut t = PartitionTally::default();
            let mut msgs: Vec<(VertexId, P::Msg)> = Vec::new();
            let mut emitted = 0u64;
            // Local-combination buffer: one merged message per remote
            // destination vertex.
            let mut crossbuf: BTreeMap<VertexId, P::Msg> = BTreeMap::new();
            for &v in &meta.members {
                for &to in g.neighbors(v) {
                    t.transfer_calls += 1;
                    let Some(msg) = prog.transfer(v, &state_ro[v.index()], to, g) else {
                        continue;
                    };
                    emitted += 1;
                    let q = pg.pid_of(to);
                    if q == pid {
                        let bytes = prog.msg_bytes(&msg);
                        t.local_bytes += bytes;
                        t.local_msgs += 1;
                        if pg.is_inner(to) {
                            t.local_inner_bytes += bytes;
                        }
                        msgs.push((to, msg));
                    } else if merge_cross {
                        match crossbuf.remove(&to) {
                            Some(prev) => {
                                crossbuf.insert(to, prog.merge(prev, msg));
                            }
                            None => {
                                crossbuf.insert(to, msg);
                            }
                        }
                    } else {
                        let bytes = prog.msg_bytes(&msg);
                        *t.cross_out.entry(q).or_insert(0) += bytes;
                        t.cross_msgs += 1;
                        msgs.push((to, msg));
                    }
                }
            }
            for (to, msg) in crossbuf {
                let q = pg.pid_of(to);
                *t.cross_out.entry(q).or_insert(0) += prog.msg_bytes(&msg);
                t.cross_msgs += 1;
                msgs.push((to, msg));
            }
            if t0.is_recording() {
                t.transfer_ns = t0.elapsed_ns();
            }
            Outbox { msgs, tally: t, emitted }
        })
        .map_err(|e| SurferError::from_worker_panic("transfer", e))?;
        drop(transfer_span);

        // ---- Flat counted mailbox: count, prefix-sum, fill. ----
        // Slots are *encoded* ids (App. B): contiguous per partition and
        // order-preserving within one, so each partition's incoming messages
        // occupy one contiguous range that Combine can split off below.
        let mut offsets = vec![0usize; n + 1];
        for ob in &outboxes {
            for (to, _) in &ob.msgs {
                offsets[enc.encode(*to).index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut mailbox: Vec<Option<P::Msg>> = Vec::with_capacity(offsets[n]);
        mailbox.resize_with(offsets[n], || None);
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut messages = 0u64;
        let mut tally: Vec<PartitionTally> = Vec::with_capacity(outboxes.len());
        for ob in outboxes {
            messages += ob.emitted;
            tally.push(ob.tally);
            for (to, msg) in ob.msgs {
                let slot = enc.encode(to).index();
                mailbox[cursor[slot]] = Some(msg);
                cursor[slot] += 1;
            }
        }
        publish_transfer_counters(&tally, messages);

        // ---- Combine stage (real, one worker item per partition). ----
        // Split the mailbox into disjoint per-partition slices. Workers take
        // each message exactly once and return new member states; the main
        // thread writes them back in pid order (raw vertex ids are scattered
        // across `state`, so the writeback itself stays sequential).
        let mut chunks: Vec<(u32, &mut [Option<P::Msg>])> = Vec::with_capacity(tally.len());
        let mut rest: &mut [Option<P::Msg>] = &mut mailbox;
        let mut consumed = 0usize;
        let mut mailbox_sizes: Vec<u64> = Vec::new();
        for pid in pg.partitions() {
            let end = offsets[enc.range(pid).1.index()];
            let (head, tail) = rest.split_at_mut(end - consumed);
            surfer_obs::observe("prop.mailbox_size", head.len() as u64);
            if surfer_obs::enabled() {
                mailbox_sizes.push(head.len() as u64);
            }
            chunks.push((pid, head));
            consumed = end;
            rest = tail;
        }
        let state_ro: &[P::State] = state;
        let offsets = &offsets;
        let combine_span = surfer_obs::span("prop.combine");
        let combine_sid = combine_span.id();
        // Work item i is again partition i (chunks are built in pid order).
        let combined: Vec<(Vec<P::State>, u64, u64)> =
            try_par_map_vec(threads, chunks, |_, (pid, chunk)| {
                let _s =
                    surfer_obs::span_under("prop.combine.part", combine_sid, || format!("p{pid}"));
                let t0 = surfer_obs::stopwatch();
                let meta = pg.meta(pid);
                let base = offsets[enc.range(pid).0.index()];
                let mut new_states = Vec::with_capacity(meta.members.len());
                let mut combine_msgs = 0u64;
                for &v in &meta.members {
                    let slot = enc.encode(v).index();
                    let (lo, hi) = (offsets[slot] - base, offsets[slot + 1] - base);
                    let mut msgs = Vec::with_capacity(hi - lo);
                    for m in &mut chunk[lo..hi] {
                        // lint:allow(E1, invariant: routing fills each mailbox slot exactly once)
                        msgs.push(m.take().expect("mailbox message consumed exactly once"));
                    }
                    combine_msgs += msgs.len() as u64;
                    new_states.push(prog.combine(v, &state_ro[v.index()], msgs, g));
                }
                let ns = t0.elapsed_ns();
                (new_states, combine_msgs, ns)
            })
            .map_err(|e| SurferError::from_worker_panic("combine", e))?;
        for (pid, (new_states, combine_msgs, combine_ns)) in combined.into_iter().enumerate() {
            tally[pid].combine_msgs = combine_msgs;
            tally[pid].combine_ns = combine_ns;
            for (&v, s) in pg.meta(pid as u32).members.iter().zip(new_states) {
                state[v.index()] = s;
            }
        }
        drop(combine_span);
        publish_iteration_sample(&tally, mailbox_sizes);

        let report = self.simulate(
            prog.transfer_ops(),
            prog.combine_ops(),
            prog.state_bytes(),
            &tally,
            disk_fraction,
            faults,
        )?;
        surfer_obs::journal::record(surfer_obs::journal::EventKind::IterationEnd { messages });
        Ok((report, messages))
    }

    /// Run `iterations` iterations; reports are accumulated (sequential
    /// phases: response times add).
    pub fn run<P: Propagation>(
        &self,
        prog: &P,
        state: &mut [P::State],
        iterations: u32,
    ) -> SurferResult<ExecReport> {
        let mut total = ExecReport::new(self.cluster.num_machines());
        let _ctx = surfer_obs::journal::ctx_enter(surfer_obs::journal::current_ctx());
        for it in 0..iterations {
            surfer_obs::journal::set_iteration(it);
            let r = self.run_iteration(prog, state)?;
            total.absorb(&r);
        }
        Ok(total)
    }

    /// Build and run the simulated task DAG for one iteration given the
    /// per-partition tallies. Shared with the vectorized kernel lane.
    pub(crate) fn simulate(
        &self,
        transfer_ops: f64,
        combine_ops: f64,
        state_bytes: u64,
        tally: &[PartitionTally],
        disk_fraction: Option<&[f64]>,
        faults: &[Fault],
    ) -> SurferResult<ExecReport> {
        let _s = surfer_obs::span("prop.simulate");
        let pg = self.graph;
        let memory = self.cluster.spec().memory_bytes;
        let frac = |pid: u32| disk_fraction.map_or(1.0, |f| f[pid as usize]);
        let mut ex = Executor::new(self.cluster);

        // Combine tasks first (transfers reference them).
        let combine_tasks: Vec<usize> = pg
            .partitions()
            .map(|pid| {
                let t = &tally[pid as usize];
                let meta = pg.meta(pid);
                // Intermediate spill this partition re-reads before combining:
                // without local propagation every local message round-trips
                // through disk (the MapReduce-style materialization); with it
                // they are consumed in memory during the partition scan — the
                // partition was sized to fit in memory precisely to allow
                // this (P2, §4.1).
                let spill = if self.options.local_propagation { 0 } else { t.local_bytes };
                let incoming: u64 = tally
                    .iter()
                    .map(|s| s.cross_out.get(&pid).copied().unwrap_or(0))
                    .sum();
                ex.add_task(
                    TaskSpec::new(pg.machine_of(pid), TaskKind::Combine)
                        .label(pid as u64)
                        .cpu(t.combine_msgs as f64 * combine_ops)
                        .reads(spill + incoming)
                        .writes(
                            (meta.members.len() as f64 * state_bytes as f64 * frac(pid)) as u64,
                        )
                        .random_io(!pg.fits_in_memory(pid, memory)),
                )
            })
            .collect();

        for pid in pg.partitions() {
            let t = &tally[pid as usize];
            let meta = pg.meta(pid);
            let spill = if self.options.local_propagation { 0 } else { t.local_bytes };
            let transfer_task = ex.add_task(
                TaskSpec::new(pg.machine_of(pid), TaskKind::Transfer)
                    .label(pid as u64)
                    .cpu(t.transfer_calls as f64 * transfer_ops)
                    .reads((meta.bytes as f64 * frac(pid)) as u64)
                    .writes(spill)
                    .random_io(!pg.fits_in_memory(pid, memory)),
            );
            // The partition's own Combine waits for its Transfer (the spill
            // must be complete).
            ex.add_dep(transfer_task, combine_tasks[pid as usize]);
            for (&q, &bytes) in &t.cross_out {
                let dst_task = combine_tasks[q as usize];
                if pg.machine_of(q) == pg.machine_of(pid) {
                    ex.add_dep(transfer_task, dst_task);
                } else {
                    ex.add_transfer(transfer_task, dst_task, bytes);
                }
            }
        }
        if faults.is_empty() {
            Ok(ex.run())
        } else {
            // Recovery policy: partition tasks follow their replicas.
            let store = PartitionStore::from_assignment(
                self.cluster.topology(),
                pg.placement(),
            );
            let mut replanner = StoreReplanner::new(&store);
            Ok(ex.run_with_faults(faults, &mut replanner)?)
        }
    }

    /// Run a vertex-oriented task through virtual vertices (§3.2): every
    /// vertex contributes to a developer-chosen virtual vertex; virtual
    /// vertices are hash-distributed over machines, so this emulates
    /// MapReduce inside Surfer. Returns outputs in virtual-id order.
    pub fn run_virtual<T: VirtualVertexTask>(
        &self,
        task: &T,
    ) -> SurferResult<(Vec<T::Out>, ExecReport)> {
        let _run_span = surfer_obs::span("virt.run");
        let pg = self.graph;
        let g = pg.graph();
        let machines = self.cluster.num_machines();
        let threads = self.options.resolved_threads();
        let merge = self.options.local_combination && task.associative();

        // Real transfer + routing, one worker item per partition. Each
        // outbox lists `(virtual id, msg)` in the sequential emission order
        // (merged messages appended after the scan in virtual-id order)
        // plus the partition's per-machine byte row and call count.
        let pids: Vec<u32> = pg.partitions().collect();
        let vt_span = surfer_obs::span("virt.transfer");
        let vt_sid = vt_span.id();
        let transfers: Vec<VirtualOutbox<T::Msg>> =
            try_par_map_vec(threads, pids, |_, pid| {
                let _s = surfer_obs::span_under("virt.transfer.part", vt_sid, || format!("p{pid}"));
                let t0 = surfer_obs::stopwatch();
                let mut msgs: Vec<(u64, T::Msg)> = Vec::new();
                let mut bytes_row = vec![0u64; machines as usize];
                let mut calls = 0u64;
                let mut local: BTreeMap<u64, T::Msg> = BTreeMap::new();
                for &v in &pg.meta(pid).members {
                    calls += 1;
                    if let Some((vid, msg)) = task.transfer(v, g) {
                        if merge {
                            match local.remove(&vid) {
                                Some(prev) => {
                                    local.insert(vid, task.merge(prev, msg));
                                }
                                None => {
                                    local.insert(vid, msg);
                                }
                            }
                        } else {
                            bytes_row[(vid % machines as u64) as usize] += task.msg_bytes(&msg);
                            msgs.push((vid, msg));
                        }
                    }
                }
                for (vid, msg) in local {
                    bytes_row[(vid % machines as u64) as usize] += task.msg_bytes(&msg);
                    msgs.push((vid, msg));
                }
                let ns = t0.elapsed_ns();
                (msgs, bytes_row, calls, ns)
            })
            .map_err(|e| SurferError::from_worker_panic("virtual-transfer", e))?;
        drop(vt_span);
        self.finish_virtual(task, transfers)
    }

    /// Everything after the virtual Transfer stage: obs publication, the
    /// virtual-id grouping, the real Combine and the simulated DAG. Shared
    /// with the vectorized virtual lane, which only replaces the transfer
    /// scan (its outboxes are bit-identical, so everything downstream is
    /// too).
    pub(crate) fn finish_virtual<T: VirtualVertexTask>(
        &self,
        task: &T,
        transfers: Vec<VirtualOutbox<T::Msg>>,
    ) -> SurferResult<(Vec<T::Out>, ExecReport)> {
        let pg = self.graph;
        let machines = self.cluster.num_machines();
        let threads = self.options.resolved_threads();
        if surfer_obs::enabled() {
            surfer_obs::counter_add(
                "virt.messages",
                transfers.iter().map(|(m, _, _, _)| m.len() as u64).sum(),
            );
            surfer_obs::counter_add(
                "virt.transfer_calls",
                transfers.iter().map(|(_, _, c, _)| *c).sum(),
            );
            surfer_obs::counter_add(
                "virt.cross_bytes",
                transfers.iter().flat_map(|(_, row, _, _)| row.iter()).sum(),
            );

            // Flight recorder: virtual rounds route partition → machine
            // (virtual vertices are hash-distributed), so the matrix is
            // P×M; "local" means the destination machine already holds the
            // source partition.
            let mut sample = surfer_obs::IterationSample::new(surfer_obs::StageKind::Virtual);
            let mut traffic =
                surfer_obs::TrafficMatrix::new(transfers.len(), machines as usize);
            for (pid, (msgs, row, _, ns)) in transfers.iter().enumerate() {
                let home = pg.machine_of(pid as u32).0 as usize;
                for (m, &bytes) in row.iter().enumerate() {
                    traffic.add(pid, m, bytes);
                    if m == home {
                        sample.local_bytes += bytes;
                    } else {
                        sample.cross_bytes += bytes;
                    }
                }
                for (vid, _) in msgs {
                    if (*vid % machines as u64) as usize == home {
                        sample.local_msgs += 1;
                    } else {
                        sample.cross_msgs += 1;
                    }
                }
                sample.transfer_ns.push(*ns);
            }
            sample.traffic = traffic;
            surfer_obs::record_sample(sample);
        }

        // Group per virtual vertex, folding outboxes in ascending pid order
        // so each group's message order matches the sequential run.
        let mut groups: BTreeMap<u64, Vec<T::Msg>> = BTreeMap::new();
        // bytes_to[pid][machine]
        let mut bytes_to: Vec<Vec<u64>> = Vec::with_capacity(transfers.len());
        let mut transfer_calls: Vec<u64> = Vec::with_capacity(transfers.len());
        for (msgs, bytes_row, calls, _) in transfers {
            for (vid, msg) in msgs {
                groups.entry(vid).or_default().push(msg);
            }
            bytes_to.push(bytes_row);
            transfer_calls.push(calls);
        }

        // Real combine, one worker item per virtual vertex; outputs come
        // back in virtual-id order because the group list is sorted.
        let entries: Vec<(u64, Vec<T::Msg>)> = groups.into_iter().collect();
        let mut combine_msgs = vec![0u64; machines as usize];
        for (vid, msgs) in &entries {
            combine_msgs[(*vid % machines as u64) as usize] += msgs.len() as u64;
        }
        // Map a failing entry index back to its virtual-vertex id so the
        // error names something meaningful to the caller.
        let vids: Vec<u64> = entries.iter().map(|(vid, _)| *vid).collect();
        let vc_span = surfer_obs::span("virt.combine");
        let vc_sid = vc_span.id();
        let outputs: Vec<T::Out> = try_par_map_vec(threads, entries, |_, (vid, msgs)| {
            let _s = surfer_obs::span_under("virt.combine.vertex", vc_sid, || format!("v{vid}"));
            task.combine(vid, msgs)
        })
        .map_err(|e| SurferError::UdfPanic {
            stage: "virtual-combine",
            item: vids[e.index],
            message: e.message,
        })?;
        drop(vc_span);
        if surfer_obs::enabled() {
            surfer_obs::counter_add("virt.outputs", outputs.len() as u64);
        }

        // Simulated DAG: one Transfer task per partition, one virtual
        // Combine task per machine.
        let _sim_span = surfer_obs::span("virt.simulate");
        let mut ex = Executor::new(self.cluster);
        let combine_tasks: Vec<usize> = (0..machines)
            .map(|m| {
                ex.add_task(
                    TaskSpec::new(MachineId(m), TaskKind::Combine)
                        .label(m as u64)
                        .cpu(combine_msgs[m as usize] as f64 * task.combine_ops()),
                )
            })
            .collect();
        for pid in pg.partitions() {
            let meta = pg.meta(pid);
            let machine = pg.machine_of(pid);
            let tt = ex.add_task(
                TaskSpec::new(machine, TaskKind::Transfer)
                    .label(pid as u64)
                    .cpu(transfer_calls[pid as usize] as f64 * task.transfer_ops())
                    .reads(meta.bytes)
                    .random_io(!pg.fits_in_memory(pid, self.cluster.spec().memory_bytes)),
            );
            for m in 0..machines {
                let bytes = bytes_to[pid as usize][m as usize];
                if bytes == 0 {
                    continue;
                }
                if MachineId(m) == machine {
                    ex.add_dep(tt, combine_tasks[m as usize]);
                } else {
                    ex.add_transfer(tt, combine_tasks[m as usize], bytes);
                }
            }
        }
        Ok((outputs, ex.run()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use surfer_cluster::ClusterConfig;
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::cycle;
    use surfer_graph::CsrGraph;
    use surfer_partition::Partitioning;

    /// Each vertex forwards a counter; combine sums. One iteration on a
    /// cycle rotates the values.
    struct Rotate;
    impl Propagation for Rotate {
        type State = u64;
        type Msg = u64;
        fn init(&self, v: VertexId, _g: &CsrGraph) -> u64 {
            v.0 as u64 + 1
        }
        fn transfer(&self, _from: VertexId, s: &u64, _to: VertexId, _g: &CsrGraph) -> Option<u64> {
            Some(*s)
        }
        fn combine(&self, _v: VertexId, _old: &u64, msgs: Vec<u64>, _g: &CsrGraph) -> u64 {
            msgs.iter().sum()
        }
        fn associative(&self) -> bool {
            true
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            12
        }
    }

    fn two_partition_cycle() -> (SimCluster, PartitionedGraph) {
        let g = cycle(8);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let pg = PartitionedGraph::from_parts(
            Arc::new(g),
            p,
            vec![MachineId(0), MachineId(1)],
        );
        (ClusterConfig::flat(2).build(), pg)
    }

    #[test]
    fn rotation_is_exact() {
        let (c, pg) = two_partition_cycle();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let prog = Rotate;
        let mut state = engine.init_state(&prog);
        engine.run_iteration(&prog, &mut state).unwrap();
        // Vertex v now holds the old value of v-1 (mod 8).
        let expect: Vec<u64> = (0..8u64).map(|v| (v + 7) % 8 + 1).collect();
        assert_eq!(state, expect);
    }

    #[test]
    fn scalar_lane_rejects_a_short_state_vector_typed() {
        let (c, pg) = two_partition_cycle();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        for len in [0usize, 7, 9] {
            let mut state = vec![1u64; len];
            let err = engine.run_iteration(&Rotate, &mut state).unwrap_err();
            match &err {
                SurferError::InvalidInput { reason } => {
                    assert!(reason.contains(&format!("{len} entries")), "{reason}");
                    assert!(reason.contains("8 vertices"), "{reason}");
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
            assert!(!err.is_retryable());
            assert_eq!(state, vec![1u64; len], "a rejected call must not touch the state");
        }
    }

    #[test]
    fn optimization_level_does_not_change_results() {
        let (c, pg) = two_partition_cycle();
        let mut results = Vec::new();
        for opts in [EngineOptions::none(), EngineOptions::full()] {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&Rotate);
            engine.run(&Rotate, &mut state, 3).unwrap();
            results.push(state);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn cross_partition_bytes_counted_exactly() {
        let (c, pg) = two_partition_cycle();
        // Without local combination: the cycle has exactly 2 cross edges
        // (3->4 and 7->0), one message each way, 12 bytes each.
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::none());
        let mut state = engine.init_state(&Rotate);
        let r = engine.run_iteration(&Rotate, &mut state).unwrap();
        assert_eq!(r.network_bytes, 24);
    }

    #[test]
    fn local_combination_reduces_network() {
        // Star-out graph: partition 0 holds hubs 0,1; both point to every
        // vertex of partition 1. Messages to the same remote vertex merge.
        let mut edges = Vec::new();
        for hub in 0..2u32 {
            for t in 2..6u32 {
                edges.push((hub, t));
            }
        }
        let g = from_edges(6, edges);
        let p = Partitioning::new(vec![0, 0, 1, 1, 1, 1], 2);
        let pg =
            PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0), MachineId(1)]);
        let c = ClusterConfig::flat(2).build();

        let run = |opts: EngineOptions| {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&Rotate);
            engine.run_iteration(&Rotate, &mut state).unwrap()
        };
        let plain = run(EngineOptions::none());
        let opt = run(EngineOptions::full());
        // 8 cross messages merge into 4 (one per remote destination).
        assert_eq!(plain.network_bytes, 8 * 12);
        assert_eq!(opt.network_bytes, 4 * 12);
    }

    #[test]
    fn local_propagation_reduces_disk() {
        let (c, pg) = two_partition_cycle();
        let run = |opts: EngineOptions| {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&Rotate);
            engine.run_iteration(&Rotate, &mut state).unwrap()
        };
        let plain = run(EngineOptions::none());
        let opt = run(EngineOptions::full());
        assert!(
            opt.disk_bytes() < plain.disk_bytes(),
            "local propagation should cut disk I/O: {} vs {}",
            opt.disk_bytes(),
            plain.disk_bytes()
        );
    }

    #[test]
    fn combine_called_for_silent_vertices() {
        // A path: the head vertex receives no message; combine(head, [])
        // must still run (sum of empty = 0).
        let g = surfer_graph::generators::deterministic::path(3);
        let p = Partitioning::new(vec![0, 0, 0], 1);
        let pg = PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0)]);
        let c = ClusterConfig::flat(1).build();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let mut state = engine.init_state(&Rotate);
        engine.run_iteration(&Rotate, &mut state).unwrap();
        assert_eq!(state[0], 0, "head vertex should have been combined with an empty bag");
    }

    /// VDD-style virtual-vertex task: vertex -> (out-degree, 1).
    struct DegreeCount;
    impl VirtualVertexTask for DegreeCount {
        type Msg = u64;
        type Out = (u64, u64);
        fn transfer(&self, v: VertexId, g: &CsrGraph) -> Option<(u64, u64)> {
            Some((g.out_degree(v) as u64, 1))
        }
        fn combine(&self, vid: u64, msgs: Vec<u64>) -> (u64, u64) {
            (vid, msgs.iter().sum())
        }
        fn associative(&self) -> bool {
            true
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            16
        }
    }

    #[test]
    fn virtual_vertices_compute_degree_histogram() {
        let (c, pg) = two_partition_cycle();
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        let (out, report) = engine.run_virtual(&DegreeCount).unwrap();
        assert_eq!(out, vec![(1, 8)]); // all 8 vertices have out-degree 1
        assert!(report.tasks_completed >= 3);
    }

    /// Rotate whose transfer panics when fired from a chosen vertex.
    struct PoisonedRotate(u32);
    impl Propagation for PoisonedRotate {
        type State = u64;
        type Msg = u64;
        fn init(&self, v: VertexId, g: &CsrGraph) -> u64 {
            Rotate.init(v, g)
        }
        fn transfer(&self, from: VertexId, s: &u64, _to: VertexId, _g: &CsrGraph) -> Option<u64> {
            assert_ne!(from.0, self.0, "poisoned transfer");
            Some(*s)
        }
        fn combine(&self, _v: VertexId, _old: &u64, msgs: Vec<u64>, _g: &CsrGraph) -> u64 {
            msgs.iter().sum()
        }
        fn msg_bytes(&self, _m: &u64) -> u64 {
            12
        }
    }

    #[test]
    fn udf_panic_is_typed_and_leaves_state_untouched() {
        let (c, pg) = two_partition_cycle();
        for threads in [1, 2, 0] {
            let engine =
                PropagationEngine::new(&c, &pg, EngineOptions::full().threads(threads));
            let prog = PoisonedRotate(5); // vertex 5 lives in partition 1
            let mut state = engine.init_state(&prog);
            let before = state.clone();
            let err = engine.run_iteration(&prog, &mut state).unwrap_err();
            match err {
                SurferError::UdfPanic { stage, item, ref message } => {
                    assert_eq!(stage, "transfer", "threads = {threads}");
                    assert_eq!(item, 1, "threads = {threads}: partition of vertex 5");
                    assert!(message.contains("poisoned transfer"));
                }
                other => panic!("expected UdfPanic, got {other:?}"),
            }
            assert_eq!(state, before, "failed iteration must not write state back");
        }
    }
}
