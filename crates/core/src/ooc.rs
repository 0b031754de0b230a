//! Out-of-core execution: run propagation with a memory budget.
//!
//! The paper's target graphs never fit the RAM of the cheap cloud nodes it
//! assumed; GraphD-style engines answer by streaming edges from disk and
//! keeping only O(|V|) state resident. This module is that lane for the
//! P-Surfer engine: when [`MemoryBudget`] is limited and a program's
//! working set exceeds it, [`run_iteration_spilled`] replaces the
//! in-memory iteration with one that
//!
//! * streams each partition's adjacency from CRC32-framed **edge blocks**
//!   on disk in sequential-scan order (written once per session, reread
//!   every iteration), and
//! * spills the Transfer stage's messages to per-`(source, destination)`
//!   partition **mailbox segments**, replayed by Combine in ascending
//!   source-partition order — the same fold order as the in-memory flat
//!   count→prefix-sum→fill mailbox, so every `combine()` input bag, every
//!   tally and every [`ExecReport`] is **bit-identical** to the resident
//!   engine at any thread count.
//!
//! Message spilling needs a byte codec ([`Propagation::spill_capable`] +
//! `spill_encode`/`spill_decode`, usually delegated to [`SpillCodec`]);
//! programs without one still stream their adjacency but keep the mailbox
//! resident. The virtual-vertex lane never spills.
//!
//! All spill I/O is checksummed ([`surfer_partition::store_fs`] frames):
//! damage — including the [`SpillFault`]s a chaos plan injects — surfaces
//! as a typed [`SurferError::Storage`] with vertex state untouched, so a
//! retry with fresh spill files recovers cleanly.

use crate::engine::{
    check_state_len, publish_iteration_sample, publish_transfer_counters, PartitionTally,
    PropagationEngine,
};
use crate::error::{SurferError, SurferResult};
use crate::primitive::Propagation;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use surfer_cluster::par::try_par_map_vec;
use surfer_cluster::{ExecReport, Fault, SpillFault, SpillFaultKind};
use surfer_graph::block;
use surfer_graph::{GraphError, VertexId};
use surfer_partition::store_fs::{encode_frame, FrameStream, SPILL_MAGIC};
use surfer_partition::PartitionedGraph;

/// Resident-set budget of one engine, in bytes. The default is unlimited
/// (the classic all-in-RAM engine); a limited budget makes any program
/// whose [`working_set_bytes`] exceeds it run through the spilled lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget(Option<u64>);

impl MemoryBudget {
    /// No budget: never spill.
    pub fn unlimited() -> Self {
        MemoryBudget(None)
    }

    /// Budget of `limit` bytes (a `limit` of 0 spills everything that has
    /// any working set at all).
    pub fn bytes(limit: u64) -> Self {
        MemoryBudget(Some(limit))
    }

    /// Is a limit configured?
    pub fn is_limited(&self) -> bool {
        self.0.is_some()
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.0
    }
}

/// Deterministic working-set estimate of a propagation program on `pg`:
/// the partitions' adjacency bytes plus one state record per vertex. This
/// is the figure compared against [`MemoryBudget`] — tests and benches use
/// it to derive "¼ of the working set"-style budgets.
pub fn working_set_bytes(pg: &PartitionedGraph, state_bytes: u64) -> u64 {
    let adjacency: u64 = pg.partitions().map(|pid| pg.meta(pid).bytes).sum();
    adjacency + pg.graph().num_vertices() as u64 * state_bytes
}

/// Byte codec for spillable message types: `spill_to` appends a
/// self-delimiting encoding, `spill_from` consumes exactly those bytes back
/// (advancing the slice) or returns `None` on damage — never panics.
pub trait SpillCodec: Sized {
    /// Append this value's encoding to `out`.
    fn spill_to(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it.
    fn spill_from(buf: &mut &[u8]) -> Option<Self>;
}

/// Split `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    if buf.len() < N {
        return None;
    }
    let (head, rest) = buf.split_at(N);
    let mut a = [0u8; N];
    a.copy_from_slice(head);
    *buf = rest;
    Some(a)
}

impl SpillCodec for u32 {
    fn spill_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn spill_from(buf: &mut &[u8]) -> Option<Self> {
        take::<4>(buf).map(u32::from_le_bytes)
    }
}

impl SpillCodec for u64 {
    fn spill_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn spill_from(buf: &mut &[u8]) -> Option<Self> {
        take::<8>(buf).map(u64::from_le_bytes)
    }
}

impl SpillCodec for f64 {
    fn spill_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn spill_from(buf: &mut &[u8]) -> Option<Self> {
        take::<8>(buf).map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }
}

impl SpillCodec for bool {
    fn spill_to(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn spill_from(buf: &mut &[u8]) -> Option<Self> {
        match take::<1>(buf)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl SpillCodec for () {
    fn spill_to(&self, _out: &mut Vec<u8>) {}
    fn spill_from(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl SpillCodec for Vec<u32> {
    fn spill_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for x in self {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    fn spill_from(buf: &mut &[u8]) -> Option<Self> {
        let len = u32::from_le_bytes(take::<4>(buf)?) as usize;
        if buf.len() < 4 * len {
            return None;
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(u32::from_le_bytes(take::<4>(buf)?));
        }
        Some(v)
    }
}

/// Distinguishes concurrently live spill directories within one process.
static SESSION_SEQ: AtomicU64 = AtomicU64::new(0);

/// One engine's spill store: a private temp directory holding the edge
/// blocks (written lazily, reused across iterations) and the per-iteration
/// mailbox segments. Dropped with the engine; the directory goes with it.
#[derive(Debug)]
pub(crate) struct OocSession {
    dir: PathBuf,
    budget: u64,
    blocks: Mutex<bool>,
}

impl OocSession {
    pub(crate) fn new(budget: u64) -> Self {
        let seq = SESSION_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join("surfer-ooc")
            .join(format!("{}-{seq}", std::process::id()));
        OocSession { dir, budget, blocks: Mutex::new(false) }
    }

    /// The partition's on-disk edge-block file.
    pub(crate) fn edge_file(&self, pid: u32) -> PathBuf {
        self.dir.join(format!("edges-{pid}.blk"))
    }

    /// The mailbox segment carrying partition `p`'s messages to `q`.
    pub(crate) fn seg_file(&self, p: u32, q: u32) -> PathBuf {
        self.dir.join(format!("mbx-{p}-{q}.seg"))
    }

    /// Edge-block size target: a budget-derived slice so one decoded block
    /// stays well under the budget even with several scan threads live.
    fn block_target(&self) -> u64 {
        (self.budget / 8).clamp(4096, 1 << 20)
    }

    /// Mailbox frame flush threshold — deterministic in the budget alone,
    /// so frame boundaries (and the spill byte counters) are identical at
    /// any thread count.
    fn frame_target(&self) -> usize {
        (self.budget / 16).clamp(1024, 1 << 20) as usize
    }

    /// Write every partition's adjacency as framed edge blocks, once per
    /// session (later iterations reread the same files).
    fn ensure_edge_blocks(&self, pg: &PartitionedGraph, packed: bool) -> SurferResult<()> {
        let mut ready = lock_unpoisoned(&self.blocks);
        if *ready {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)?;
        let g = pg.graph();
        let target = self.block_target();
        let mut bytes = 0u64;
        let mut nblocks = 0u64;
        for pid in pg.partitions() {
            let members = &pg.meta(pid).members;
            let mut f = std::io::BufWriter::new(std::fs::File::create(self.edge_file(pid))?);
            for (bi, span) in block::plan_edge_blocks(g, members, target).iter().enumerate() {
                let run = &members[span.start..span.end];
                let payload = if packed {
                    block::encode_edge_block_packed(g, run)
                } else {
                    block::encode_edge_block(g, run)
                };
                let mut frame = Vec::new();
                encode_frame(&mut frame, SPILL_MAGIC, pid, bi as u32, &payload);
                f.write_all(&frame)?;
                bytes += frame.len() as u64;
                nblocks += 1;
            }
            f.flush()?;
        }
        if surfer_obs::enabled() {
            surfer_obs::counter_add(surfer_obs::names::SPILL_BYTES_SPILLED, bytes);
            surfer_obs::counter_add(surfer_obs::names::SPILL_EDGE_BLOCKS_WRITTEN, nblocks);
        }
        surfer_obs::journal::record(surfer_obs::journal::EventKind::SpillWrite {
            frames: nblocks,
            bytes,
        });
        *ready = true;
        Ok(())
    }

    /// Forget (and remove) the on-disk edge blocks — called after a storage
    /// error so the next attempt rewrites them from the source graph.
    fn invalidate_edge_blocks(&self) {
        let mut ready = lock_unpoisoned(&self.blocks);
        *ready = false;
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Drop all mailbox segments of a previous iteration so a pair that
    /// goes quiet this iteration cannot leave a stale segment behind.
    fn clear_mailbox_segments(&self, partitions: u32) {
        for p in 0..partitions {
            for q in 0..partitions {
                let _ = std::fs::remove_file(self.seg_file(p, q));
            }
        }
    }
}

impl Drop for OocSession {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Take a mutex whose poisoning we tolerate (the guarded state is a plain
/// flag; a panicked writer leaves it refreshable, not corrupt).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shorthand for a typed spill-storage corruption error.
fn corrupt(msg: String) -> SurferError {
    SurferError::Storage(GraphError::Corrupt(msg))
}

/// One partition's disk-backed message sink: per-destination buffers that
/// flush as CRC32 frames into `mbx-<src>-<dst>.seg` once they reach the
/// budget-derived frame target. Programs without a spill codec skip the
/// sink and keep their messages resident.
struct MsgSink<'s> {
    session: &'s OocSession,
    pid: u32,
    frame_target: usize,
    bufs: Vec<Vec<u8>>,
    seqs: Vec<u32>,
    writers: Vec<Option<std::io::BufWriter<std::fs::File>>>,
    bytes_written: u64,
    frames_written: u64,
}

/// One partition's Transfer outcome on the spilled lane.
/// Messages routed to explicit destination vertices, in emission order.
type Routed<M> = Vec<(VertexId, M)>;

/// One partition's Combine output: new member states, combine-call count,
/// the nanoseconds its worker spent, and the segment frames/bytes it reread
/// (zero on the resident-mailbox path).
type CombinedPart<S> = (Vec<S>, u64, u64, u64, u64);

struct SpillOutbox<M> {
    tally: PartitionTally,
    emitted: u64,
    /// Messages per destination partition (sized `P`); the mailbox-size
    /// samples are derived from these without rereading anything.
    dest_counts: Vec<u64>,
    /// The resident messages when the program has no spill codec.
    mem: Option<Routed<M>>,
    /// Mailbox-segment frames/bytes this partition's sink wrote (zero when
    /// the mailbox stays resident) — folded into one flight-journal
    /// `spill_write` event on the coordinating thread.
    sink_frames: u64,
    sink_bytes: u64,
}

/// Run one fully-spilled propagation iteration. Mirrors
/// `PropagationEngine::run_iteration_inner` stage for stage; see the
/// module docs for why the results are bit-identical.
pub(crate) fn run_iteration_spilled<P: Propagation>(
    engine: &PropagationEngine<'_>,
    session: &OocSession,
    prog: &P,
    state: &mut [P::State],
    disk_fraction: Option<&[f64]>,
    faults: &[Fault],
    spill_faults: &[SpillFault],
) -> SurferResult<(ExecReport, u64)> {
    check_state_len(engine.graph(), state.len())?;
    let _iter_span = surfer_obs::span_seq("prop.iteration");
    surfer_obs::journal::record(surfer_obs::journal::EventKind::IterationStart { lane: "spill" });
    let pg = engine.graph();
    let g = pg.graph();
    let options = engine.options();
    let threads = options.resolved_threads();
    let merge_cross = options.local_combination && prog.associative();
    let enc = pg.encoding();
    let num_parts = pg.num_partitions();
    let spill_mailbox = prog.spill_capable();

    session.ensure_edge_blocks(pg, options.packed_adjacency)?;
    session.clear_mailbox_segments(num_parts);
    // Chaos: edge-block damage lands before the scan streams the file.
    for f in spill_faults {
        if f.kind == SpillFaultKind::CorruptEdgeBlock {
            damage_file(&session.edge_file(f.partition), f.kind)?;
        }
    }
    if surfer_obs::enabled() {
        surfer_obs::counter_add(surfer_obs::names::SPILL_ITERATIONS, 1);
    }

    // ---- Transfer stage: stream edge blocks, spill messages. ----
    // Same worker grain and emission order as the resident engine; the only
    // difference is where the adjacency comes from and where messages go.
    let state_ro: &[P::State] = state;
    let pids: Vec<u32> = pg.partitions().collect();
    let transfer_span = surfer_obs::span("prop.transfer");
    let transfer_sid = transfer_span.id();
    let scanned: Vec<SurferResult<SpillOutbox<P::Msg>>> =
        try_par_map_vec(threads, pids, |_, pid| {
            let _s =
                surfer_obs::span_under("prop.transfer.part", transfer_sid, || format!("p{pid}"));
            let t0 = surfer_obs::stopwatch();
            let meta = pg.meta(pid);
            if surfer_obs::enabled() {
                let inner = meta.members.iter().filter(|&&v| pg.is_inner(v)).count() as u64;
                surfer_obs::counter_add("prop.inner_vertices", inner);
                surfer_obs::counter_add("prop.boundary_vertices", meta.members.len() as u64 - inner);
            }
            let mut t = PartitionTally::default();
            let mut emitted = 0u64;
            let mut crossbuf: BTreeMap<VertexId, P::Msg> = BTreeMap::new();
            let mut dest_counts = vec![0u64; num_parts as usize];
            let mut mem: Vec<(VertexId, P::Msg)> = Vec::new();
            let mut sink: Option<MsgSink<'_>> =
                spill_mailbox.then(|| MsgSink::new(session, pid, num_parts));
            let push = |sink: &mut Option<MsgSink<'_>>,
                        mem: &mut Vec<(VertexId, P::Msg)>,
                        dest_counts: &mut Vec<u64>,
                        q: u32,
                        to: VertexId,
                        msg: P::Msg|
             -> SurferResult<()> {
                dest_counts[q as usize] += 1;
                match sink {
                    Some(s) => s.push_encoded(prog, q, to, &msg),
                    None => {
                        mem.push((to, msg));
                        Ok(())
                    }
                }
            };

            let path = session.edge_file(pid);
            let what = format!("edge blocks of partition {pid}");
            let mut stream = FrameStream::open(&path, SPILL_MAGIC, &what)?;
            let mut blocks_read = 0u64;
            while let Some(frame) = stream.next_frame()? {
                if frame.a != pid {
                    return Err(corrupt(format!(
                        "{what}: block belongs to partition {}",
                        frame.a
                    )));
                }
                let records = if options.packed_adjacency {
                    block::decode_edge_block_packed(&frame.payload)?
                } else {
                    block::decode_edge_block(&frame.payload)?
                };
                blocks_read += 1;
                for rec in records {
                    let v = rec.id;
                    for &to in &rec.neighbors {
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
                            push(&mut sink, &mut mem, &mut dest_counts, q, to, msg)?;
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
                            push(&mut sink, &mut mem, &mut dest_counts, q, to, msg)?;
                        }
                    }
                }
            }
            for (to, msg) in std::mem::take(&mut crossbuf) {
                let q = pg.pid_of(to);
                *t.cross_out.entry(q).or_insert(0) += prog.msg_bytes(&msg);
                t.cross_msgs += 1;
                push(&mut sink, &mut mem, &mut dest_counts, q, to, msg)?;
            }
            let (sink_frames, sink_bytes) = match sink.as_mut() {
                Some(s) => {
                    s.finish()?;
                    (s.frames_written, s.bytes_written)
                }
                None => (0, 0),
            };
            if surfer_obs::enabled() {
                surfer_obs::counter_add(surfer_obs::names::SPILL_EDGE_BLOCKS_READ, blocks_read);
                surfer_obs::counter_add(surfer_obs::names::SPILL_BYTES_REREAD, stream.bytes_read());
            }
            if t0.is_recording() {
                t.transfer_ns = t0.elapsed_ns();
            }
            Ok(SpillOutbox {
                tally: t,
                emitted,
                dest_counts,
                mem: (!spill_mailbox).then_some(mem),
                sink_frames,
                sink_bytes,
            })
        })
        .map_err(|e| SurferError::from_worker_panic("transfer", e))?;
    drop(transfer_span);

    // Surface the lowest failing partition's error (deterministic at any
    // thread count); a storage error also invalidates the edge-block cache
    // so the retry rewrites from the source graph.
    let mut outboxes: Vec<SpillOutbox<P::Msg>> = Vec::with_capacity(scanned.len());
    for r in scanned {
        match r {
            Ok(ob) => outboxes.push(ob),
            Err(e) => {
                if matches!(e, SurferError::Storage(_)) {
                    session.invalidate_edge_blocks();
                }
                return Err(e);
            }
        }
    }

    // Chaos: mailbox-segment damage lands between the Transfer writes and
    // the Combine reads (no-op for programs keeping the mailbox resident).
    for f in spill_faults {
        if matches!(f.kind, SpillFaultKind::ShortWrite | SpillFaultKind::CorruptFrame) {
            if let Some(path) = (0..num_parts)
                .map(|q| session.seg_file(f.partition, q))
                .find(|p| p.exists())
            {
                damage_file(&path, f.kind)?;
            }
        }
    }

    // Fold tallies and mailbox sizes in ascending pid order.
    let mut messages = 0u64;
    let mut tally: Vec<PartitionTally> = Vec::with_capacity(outboxes.len());
    let mut mailbox_totals = vec![0u64; num_parts as usize];
    let mut mem_msgs: Vec<Option<Routed<P::Msg>>> = Vec::with_capacity(outboxes.len());
    let (mut spilled_frames, mut spilled_bytes) = (0u64, 0u64);
    for mut ob in outboxes {
        messages += ob.emitted;
        for (q, &c) in ob.dest_counts.iter().enumerate() {
            mailbox_totals[q] += c;
        }
        spilled_frames += ob.sink_frames;
        spilled_bytes += ob.sink_bytes;
        tally.push(std::mem::take(&mut ob.tally));
        mem_msgs.push(ob.mem);
    }
    if spilled_frames > 0 {
        surfer_obs::journal::record(surfer_obs::journal::EventKind::SpillWrite {
            frames: spilled_frames,
            bytes: spilled_bytes,
        });
    }
    publish_transfer_counters(&tally, messages);

    // Resident mailbox for codec-less programs: identical to the in-memory
    // fold (outboxes already sit in ascending pid order).
    let resident: Option<Vec<Routed<P::Msg>>> = if spill_mailbox {
        None
    } else {
        let mut per_part: Vec<Routed<P::Msg>> =
            (0..num_parts).map(|_| Vec::new()).collect();
        for msgs in mem_msgs.into_iter().flatten() {
            for (to, msg) in msgs {
                per_part[pg.pid_of(to) as usize].push((to, msg));
            }
        }
        Some(per_part)
    };

    // ---- Combine stage: replay segments in ascending source-pid order. ----
    let mut mailbox_sizes: Vec<u64> = Vec::new();
    for pid in pg.partitions() {
        let sz = mailbox_totals[pid as usize];
        surfer_obs::observe("prop.mailbox_size", sz);
        if surfer_obs::enabled() {
            mailbox_sizes.push(sz);
        }
    }
    let state_ro: &[P::State] = state;
    let combine_span = surfer_obs::span("prop.combine");
    let combine_sid = combine_span.id();
    // Work item i is partition i; a resident mailbox moves into its item so
    // workers never share message values (Msg is Send, not Sync).
    let work: Vec<(u32, Option<Routed<P::Msg>>)> = match resident {
        Some(per_part) => {
            per_part.into_iter().enumerate().map(|(q, v)| (q as u32, Some(v))).collect()
        }
        None => pg.partitions().map(|pid| (pid, None)).collect(),
    };
    let combined: Vec<SurferResult<CombinedPart<P::State>>> =
        try_par_map_vec(threads, work, |_, (pid, inc)| {
            let _s =
                surfer_obs::span_under("prop.combine.part", combine_sid, || format!("p{pid}"));
            let t0 = surfer_obs::stopwatch();
            let meta = pg.meta(pid);
            let lo_enc = enc.range(pid).0.index();
            let hi_enc = enc.range(pid).1.index();
            let slots = hi_enc - lo_enc;

            // This partition's incoming messages, in the in-memory fold
            // order: source partitions ascending, emission order within one.
            let (incoming, frames_read, bytes_reread): (Vec<(VertexId, P::Msg)>, u64, u64) =
                match inc {
                    Some(msgs) => (msgs, 0, 0),
                    None => replay_segments(session, prog, pg, pid)?,
                };

            let mut offsets = vec![0usize; slots + 1];
            for (to, _) in &incoming {
                offsets[enc.encode(*to).index() - lo_enc + 1] += 1;
            }
            for i in 0..slots {
                offsets[i + 1] += offsets[i];
            }
            let mut mailbox: Vec<Option<P::Msg>> = Vec::with_capacity(offsets[slots]);
            mailbox.resize_with(offsets[slots], || None);
            let mut cursor: Vec<usize> = offsets[..slots].to_vec();
            for (to, msg) in incoming {
                let slot = enc.encode(to).index() - lo_enc;
                mailbox[cursor[slot]] = Some(msg);
                cursor[slot] += 1;
            }

            let mut new_states = Vec::with_capacity(meta.members.len());
            let mut combine_msgs = 0u64;
            for &v in &meta.members {
                let slot = enc.encode(v).index() - lo_enc;
                let (lo, hi) = (offsets[slot], offsets[slot + 1]);
                let mut msgs = Vec::with_capacity(hi - lo);
                for m in &mut mailbox[lo..hi] {
                    // lint:allow(E1, invariant: routing fills each mailbox slot exactly once)
                    msgs.push(m.take().expect("mailbox message consumed exactly once"));
                }
                combine_msgs += msgs.len() as u64;
                new_states.push(prog.combine(v, &state_ro[v.index()], msgs, g));
            }
            let ns = t0.elapsed_ns();
            Ok((new_states, combine_msgs, ns, frames_read, bytes_reread))
        })
        .map_err(|e| SurferError::from_worker_panic("combine", e))?;

    // Writeback only after every partition combined cleanly, in pid order —
    // a failed iteration leaves `state` untouched and is retryable.
    let mut results = Vec::with_capacity(combined.len());
    for r in combined {
        results.push(r?);
    }
    let (reread_frames, reread_bytes) = results
        .iter()
        .fold((0u64, 0u64), |(f, b), r| (f + r.3, b + r.4));
    if reread_frames > 0 {
        surfer_obs::journal::record(surfer_obs::journal::EventKind::SpillRead {
            frames: reread_frames,
            bytes: reread_bytes,
        });
    }
    for (pid, (new_states, combine_msgs, combine_ns, _, _)) in results.into_iter().enumerate() {
        tally[pid].combine_msgs = combine_msgs;
        tally[pid].combine_ns = combine_ns;
        for (&v, s) in pg.meta(pid as u32).members.iter().zip(new_states) {
            state[v.index()] = s;
        }
    }
    drop(combine_span);
    publish_iteration_sample(&tally, mailbox_sizes);

    let report = engine.simulate(
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

impl<'s> MsgSink<'s> {
    fn new(session: &'s OocSession, pid: u32, num_parts: u32) -> Self {
        MsgSink {
            session,
            pid,
            frame_target: session.frame_target(),
            bufs: vec![Vec::new(); num_parts as usize],
            seqs: vec![0; num_parts as usize],
            writers: (0..num_parts).map(|_| None).collect(),
            bytes_written: 0,
            frames_written: 0,
        }
    }

    /// Append one message to the destination partition's segment buffer,
    /// flushing a frame once the buffer reaches the target size.
    fn push_encoded<P: Propagation>(
        &mut self,
        prog: &P,
        q: u32,
        to: VertexId,
        msg: &P::Msg,
    ) -> SurferResult<()> {
        let buf = &mut self.bufs[q as usize];
        buf.extend_from_slice(&to.0.to_le_bytes());
        prog.spill_encode(msg, buf);
        if buf.len() >= self.frame_target {
            self.flush_segment(q)?;
        }
        Ok(())
    }

    /// Write the destination's buffered messages as one framed segment.
    fn flush_segment(&mut self, q: u32) -> SurferResult<()> {
        let payload = std::mem::take(&mut self.bufs[q as usize]);
        if payload.is_empty() {
            return Ok(());
        }
        let w = match &mut self.writers[q as usize] {
            Some(w) => w,
            slot => {
                let f = std::fs::File::create(self.session.seg_file(self.pid, q))?;
                slot.insert(std::io::BufWriter::new(f))
            }
        };
        let mut frame = Vec::new();
        encode_frame(&mut frame, SPILL_MAGIC, self.pid, self.seqs[q as usize], &payload);
        self.seqs[q as usize] += 1;
        w.write_all(&frame)?;
        self.bytes_written += frame.len() as u64;
        self.frames_written += 1;
        Ok(())
    }

    /// Flush every buffered segment and close the writers.
    fn finish(&mut self) -> SurferResult<()> {
        for q in 0..self.bufs.len() as u32 {
            self.flush_segment(q)?;
        }
        for w in self.writers.iter_mut().flatten() {
            w.flush()?;
        }
        if surfer_obs::enabled() {
            surfer_obs::counter_add(surfer_obs::names::SPILL_BYTES_SPILLED, self.bytes_written);
            surfer_obs::counter_add(
                surfer_obs::names::SPILL_MAILBOX_FRAMES_WRITTEN,
                self.frames_written,
            );
        }
        Ok(())
    }
}

/// A replayed mailbox plus the spill-read traffic it cost:
/// `(decoded (destination, message) records, frames read, bytes reread)`.
type ReplayedMailbox<M> = (Vec<(VertexId, M)>, u64, u64);

/// Read partition `pid`'s incoming mailbox segments in ascending source-pid
/// order, decoding every `(destination, message)` record.
fn replay_segments<P: Propagation>(
    session: &OocSession,
    prog: &P,
    pg: &PartitionedGraph,
    pid: u32,
) -> SurferResult<ReplayedMailbox<P::Msg>> {
    let mut incoming = Vec::new();
    let mut frames_read = 0u64;
    let mut bytes_reread = 0u64;
    for p in pg.partitions() {
        let path = session.seg_file(p, pid);
        if !path.exists() {
            continue;
        }
        let what = format!("mailbox segment {p}->{pid}");
        let mut stream = FrameStream::open(&path, SPILL_MAGIC, &what)?;
        let mut expect_seq = 0u32;
        while let Some(frame) = stream.next_frame()? {
            if frame.a != p || frame.b != expect_seq {
                return Err(corrupt(format!(
                    "{what}: frame labelled {}#{}, expected {p}#{expect_seq}",
                    frame.a, frame.b
                )));
            }
            expect_seq += 1;
            frames_read += 1;
            let mut buf: &[u8] = &frame.payload;
            while !buf.is_empty() {
                let Some(raw) = take::<4>(&mut buf) else {
                    return Err(corrupt(format!("{what}: truncated destination id")));
                };
                let to = VertexId(u32::from_le_bytes(raw));
                let Some(msg) = prog.spill_decode(&mut buf) else {
                    return Err(corrupt(format!("{what}: undecodable message for {to}")));
                };
                incoming.push((to, msg));
            }
        }
        bytes_reread += stream.bytes_read();
    }
    if surfer_obs::enabled() {
        surfer_obs::counter_add(surfer_obs::names::SPILL_MAILBOX_FRAMES_READ, frames_read);
        surfer_obs::counter_add(surfer_obs::names::SPILL_BYTES_REREAD, bytes_reread);
    }
    Ok((incoming, frames_read, bytes_reread))
}

/// Apply one chaos fault to a spill file on disk.
pub(crate) fn damage_file(path: &Path, kind: SpillFaultKind) -> SurferResult<()> {
    if !path.exists() {
        return Ok(()); // nothing written there this iteration
    }
    match kind {
        SpillFaultKind::ShortWrite => {
            let len = std::fs::metadata(path)?.len();
            let f = std::fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(len.saturating_sub(3))?;
        }
        SpillFaultKind::CorruptFrame | SpillFaultKind::CorruptEdgeBlock => {
            let mut blob = std::fs::read(path)?;
            if blob.is_empty() {
                return Ok(());
            }
            let mid = blob.len() / 2;
            blob[mid] ^= 0x20;
            std::fs::write(path, &blob)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, PropagationEngine};
    use std::sync::Arc;
    use surfer_cluster::{ClusterConfig, MachineId};
    use surfer_graph::generators::deterministic::cycle;
    use surfer_graph::CsrGraph;
    use surfer_partition::Partitioning;

    /// Rotate-and-sum (the engine's own test program) with a spill codec.
    struct SpillRotate;
    impl Propagation for SpillRotate {
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
        fn spill_capable(&self) -> bool {
            true
        }
        fn spill_encode(&self, msg: &u64, out: &mut Vec<u8>) {
            msg.spill_to(out);
        }
        fn spill_decode(&self, buf: &mut &[u8]) -> Option<u64> {
            u64::spill_from(buf)
        }
    }

    /// Same program without a codec: the budget streams adjacency but the
    /// mailbox stays resident.
    struct MemRotate;
    impl Propagation for MemRotate {
        type State = u64;
        type Msg = u64;
        fn init(&self, v: VertexId, g: &CsrGraph) -> u64 {
            SpillRotate.init(v, g)
        }
        fn transfer(&self, f: VertexId, s: &u64, t: VertexId, g: &CsrGraph) -> Option<u64> {
            SpillRotate.transfer(f, s, t, g)
        }
        fn combine(&self, v: VertexId, o: &u64, m: Vec<u64>, g: &CsrGraph) -> u64 {
            SpillRotate.combine(v, o, m, g)
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

    fn two_partition_cycle() -> (surfer_cluster::SimCluster, PartitionedGraph) {
        let g = cycle(8);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let pg =
            PartitionedGraph::from_parts(Arc::new(g), p, vec![MachineId(0), MachineId(1)]);
        (ClusterConfig::flat(2).build(), pg)
    }

    #[test]
    fn codec_roundtrips() {
        let mut out = Vec::new();
        7u32.spill_to(&mut out);
        u64::MAX.spill_to(&mut out);
        (-1.5f64).spill_to(&mut out);
        true.spill_to(&mut out);
        ().spill_to(&mut out);
        vec![3u32, 9, 27].spill_to(&mut out);
        let mut buf: &[u8] = &out;
        assert_eq!(u32::spill_from(&mut buf), Some(7));
        assert_eq!(u64::spill_from(&mut buf), Some(u64::MAX));
        assert_eq!(f64::spill_from(&mut buf), Some(-1.5));
        assert_eq!(bool::spill_from(&mut buf), Some(true));
        assert_eq!(<()>::spill_from(&mut buf), Some(()));
        assert_eq!(Vec::<u32>::spill_from(&mut buf), Some(vec![3, 9, 27]));
        assert!(buf.is_empty());
        // Damage decodes to None, never a panic.
        assert_eq!(u64::spill_from(&mut &out[..3]), None);
        assert_eq!(Vec::<u32>::spill_from(&mut &[9u8, 0, 0, 0][..]), None);
        assert_eq!(bool::spill_from(&mut &[7u8][..]), None);
    }

    #[test]
    fn budget_unlimited_by_default_and_gates_spill() {
        let (c, pg) = two_partition_cycle();
        assert!(!MemoryBudget::default().is_limited());
        let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
        assert!(!engine.spill_active(12));
        let tight = EngineOptions::full().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, tight);
        assert!(engine.spill_active(12));
        // A budget above the working set never spills.
        let ws = working_set_bytes(&pg, 12);
        let loose = EngineOptions::full().memory_budget(MemoryBudget::bytes(ws));
        let engine = PropagationEngine::new(&c, &pg, loose);
        assert!(!engine.spill_active(12));
    }

    #[test]
    fn spill_lane_rejects_a_short_state_vector_typed() {
        let (c, pg) = two_partition_cycle();
        let opts = EngineOptions::full().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, opts);
        assert!(engine.spill_active(SpillRotate.state_bytes()));
        let mut state = vec![1u64; 5];
        let err = engine.run_iteration(&SpillRotate, &mut state).unwrap_err();
        assert!(matches!(err, SurferError::InvalidInput { .. }), "{err:?}");
        assert!(err.to_string().contains("5 entries"), "{err}");
        assert_eq!(state, vec![1u64; 5], "a rejected call must not touch the state");
    }

    #[test]
    fn spilled_iterations_are_bit_identical() {
        let (c, pg) = two_partition_cycle();
        for opts in [EngineOptions::full(), EngineOptions::none()] {
            let reference = {
                let engine = PropagationEngine::new(&c, &pg, opts);
                let mut state = engine.init_state(&SpillRotate);
                let reports: Vec<_> = (0..3)
                    .map(|_| engine.run_iteration(&SpillRotate, &mut state).unwrap())
                    .collect();
                (state, reports)
            };
            for threads in [1, 2, 0] {
                let budgeted =
                    opts.threads(threads).memory_budget(MemoryBudget::bytes(16));
                let engine = PropagationEngine::new(&c, &pg, budgeted);
                assert!(engine.spill_active(SpillRotate.state_bytes()));
                let mut state = engine.init_state(&SpillRotate);
                let reports: Vec<_> = (0..3)
                    .map(|_| engine.run_iteration(&SpillRotate, &mut state).unwrap())
                    .collect();
                assert_eq!(state, reference.0, "threads={threads}");
                assert_eq!(
                    format!("{reports:?}"),
                    format!("{:?}", reference.1),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn codec_less_program_streams_adjacency_only() {
        let (c, pg) = two_partition_cycle();
        let reference = {
            let engine = PropagationEngine::new(&c, &pg, EngineOptions::full());
            let mut state = engine.init_state(&MemRotate);
            engine.run_iteration(&MemRotate, &mut state).unwrap();
            state
        };
        let budgeted = EngineOptions::full().memory_budget(MemoryBudget::bytes(1));
        let engine = PropagationEngine::new(&c, &pg, budgeted);
        let mut state = engine.init_state(&MemRotate);
        engine.run_iteration(&MemRotate, &mut state).unwrap();
        assert_eq!(state, reference);
    }

    #[test]
    fn packed_adjacency_spills_identically() {
        let (c, pg) = two_partition_cycle();
        let run = |opts: EngineOptions| {
            let engine = PropagationEngine::new(&c, &pg, opts);
            let mut state = engine.init_state(&SpillRotate);
            engine.run_iteration(&SpillRotate, &mut state).unwrap();
            state
        };
        let raw = run(EngineOptions::full().memory_budget(MemoryBudget::bytes(16)));
        let packed = run(
            EngineOptions::full()
                .memory_budget(MemoryBudget::bytes(16))
                .packed_adjacency(true),
        );
        assert_eq!(raw, packed);
    }

    #[test]
    fn spill_faults_surface_as_storage_and_leave_state_retryable() {
        let (c, pg) = two_partition_cycle();
        let opts = EngineOptions::full().memory_budget(MemoryBudget::bytes(16));
        let engine = PropagationEngine::new(&c, &pg, opts);
        let mut state = engine.init_state(&SpillRotate);
        let before = state.clone();
        for kind in
            [SpillFaultKind::CorruptEdgeBlock, SpillFaultKind::ShortWrite, SpillFaultKind::CorruptFrame]
        {
            let fault = SpillFault { iteration: 0, partition: 0, kind };
            let err = engine
                .run_iteration_with_spill_faults(&SpillRotate, &mut state, &[fault])
                .unwrap_err();
            assert!(
                matches!(err, SurferError::Storage(_)),
                "{kind:?} should be a typed storage error, got {err:?}"
            );
            assert_eq!(state, before, "{kind:?} must leave state untouched");
        }
        // Clean retry recovers (edge-block cache invalidated on error).
        engine.run_iteration(&SpillRotate, &mut state).unwrap();
        let expect: Vec<u64> = (0..8u64).map(|v| (v + 7) % 8 + 1).collect();
        assert_eq!(state, expect);
    }
}
