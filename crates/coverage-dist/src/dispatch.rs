//! The one dispatcher behind both worker executors. [`ProcessRunner`]
//! (workers on spawned children's stdin/stdout) and [`SocketRunner`]
//! (workers on TCP connections) are the same [`Runner`] over a
//! different `Link` kind: one event loop, one registry, one result
//! shape.
//!
//! ## Thread shape
//!
//! Each link gets a dedicated **reader** thread (frames → the shared
//! event channel, so a stalled peer blocks its reader, never the
//! coordinator) and a dedicated **writer** thread (commands → frames, so
//! a peer that stops reading blocks its writer, never the coordinator).
//! A TCP run adds one **acceptor** thread that forwards new connections.
//! The main loop is single-threaded and event-driven, waiting on
//! whichever comes first: a frame, a heartbeat tick, a job deadline, a
//! retry backoff maturing, a scheduled late spawn, or the empty-registry
//! grace deadline.
//!
//! ## Liveness
//!
//! The worker registry ([`crate::net::registry`]) is the only liveness
//! model. A pipe link is admitted exactly like an accepted connection:
//! it must echo a handshake probe before it gets a shard, is graded by
//! heartbeat age like any socket, and receives shards through the same
//! writer thread, chunk stream, and ack window — so the network faults
//! (`drop`, `stall`, `dup`) run on pipes too. Severing a link kills the
//! child (a pipe) or shuts the socket down both ways. When the registry
//! empties, a TCP run waits out the join grace for a (re)connection; a
//! pipe run has no acceptor, so nothing can join it and the remaining
//! shards go inline at once.
//!
//! ## Why recovery cannot change the answer
//!
//! Every shard job is self-contained (params + seed + the shard's
//! edges) and `merge_from` is associative and commutative, so a shard
//! requeued after a mid-stream link loss — or rebuilt inline when the
//! registry empties — produces byte-identical locals. The reduce
//! consumes locals in shard order regardless of which worker built
//! them; the family is therefore bit-identical to the serial executor
//! under **any** fault schedule, which `tests/process_execution.rs`,
//! `tests/socket_execution.rs`, and the chaos suite assert.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coverage_core::offline::bucket_greedy_k_cover;
use coverage_core::SetId;
use coverage_sketch::{DynamicSketch, DynamicSnapshot, SketchSnapshot, ThresholdSketch};
use coverage_stream::{DynamicEdgeStream, EdgeStream};

use crate::fault::{Fault, FaultPlan};
use crate::net::chunk::{plan_dynamic, plan_sketch, ChunkPlan};
use crate::net::registry::{HeartbeatStats, Liveness, WorkerRegistry, WorkerSummary};
use crate::parallel::{partition_edges, partition_updates};
use crate::proto::{read_message, write_message, Message, ProtoError};
use crate::rounds::{tree_reduce_with, RoundsReport, ShipFormat};
use crate::runner::{
    recover_and_solve, DeadlineWheel, DistConfig, RetryPolicy, RunError, WorkerCommand,
};

/// Fault/recovery/registry accounting of one dispatched run, embedded
/// in [`SocketResult`]/[`DynSocketResult`] and flattened into
/// [`ProcessResult`]/[`DynProcessResult`].
#[derive(Clone, Debug, Default)]
pub struct SocketRunStats {
    /// Links admitted to the registry over the whole run.
    pub workers_joined: usize,
    /// Of those, links admitted after shard dispatch had begun (late
    /// joiners and rejoining worker processes).
    pub late_joiners: usize,
    /// Workers declared dead (EOF, wire error, missed heartbeats, or
    /// deadline reap).
    pub workers_lost: usize,
    /// Times a worker crossed live→suspect on missed heartbeats.
    pub suspect_transitions: usize,
    /// Times a suspect worker recovered to live on a late echo.
    pub suspect_recoveries: usize,
    /// Shard jobs requeued to survivors after their worker died
    /// mid-job (including mid-stream link losses).
    pub shards_requeued: usize,
    /// Shards built inline in the coordinator because the registry
    /// emptied or the shard exhausted its retry allowance.
    pub shards_built_inline: usize,
    /// Workers reaped by the per-job deadline (hangs and over-deadline
    /// stalls).
    pub deadline_reaps: usize,
    /// Shard jobs re-dispatched after waiting out a backoff.
    pub retries: usize,
    /// Typed protocol faults observed on links (corrupt frames, version
    /// mismatches, unexpected replies).
    pub proto_faults: usize,
    /// Injected `drop@N` faults: links severed mid-stream.
    pub conn_drops_injected: usize,
    /// Injected `stall<MS>@N` faults: writes paused without closing.
    pub stalls_injected: usize,
    /// Injected `dup@N` faults: chunks delivered twice.
    pub chunk_dups_injected: usize,
    /// Total [`Message::JobChunk`] frames enqueued to workers.
    pub chunks_streamed: usize,
    /// Shards for which a chunk was acked (ingested) before the last
    /// chunk had been sent — the observable proof that chunked
    /// streaming overlapped transfer and ingest.
    pub overlap_shards: usize,
    /// Total link bytes of worker reply frames.
    pub wire_bytes: u64,
    /// Heartbeat probe round-trip latency aggregated over every worker.
    pub heartbeat: HeartbeatStats,
    /// Per-worker registry summaries, in admission order.
    pub workers: Vec<WorkerSummary>,
}

/// Result of a [`Runner`] insertion-only run over TCP links (the shared
/// shape [`ProcessResult`] is flattened from).
#[derive(Clone, Debug)]
pub struct SocketResult {
    /// The selected family (identical to the serial, parallel, and
    /// process executors').
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage.
    pub estimated_coverage: f64,
    /// The merged sketch's final size (edges).
    pub merged_edges: usize,
    /// Tree-reduce round/communication accounting.
    pub rounds: RoundsReport,
    /// Registry, fault, and recovery accounting.
    pub stats: SocketRunStats,
    /// Wall-clock nanoseconds partitioning the stream.
    pub partition_ns: u64,
    /// Wall-clock nanoseconds streaming shards and collecting replies.
    pub map_ns: u64,
    /// Wall-clock nanoseconds in the reduce + solve tail.
    pub reduce_solve_ns: u64,
}

/// Result of a [`Runner`] dynamic (insert/delete) run over TCP links.
#[derive(Clone, Debug)]
pub struct DynSocketResult {
    /// The selected family (identical to the serial dynamic executor's).
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage on the
    /// surviving graph.
    pub estimated_coverage: f64,
    /// The subsampling level the merged sketch decoded at.
    pub sample_level: usize,
    /// That level's sampling probability `p = 2^{−level}`.
    pub sampling_p: f64,
    /// Surviving edges recovered from the merged sketch.
    pub recovered_edges: usize,
    /// Tree-reduce round/communication accounting.
    pub rounds: RoundsReport,
    /// Registry, fault, and recovery accounting.
    pub stats: SocketRunStats,
    /// Wall-clock nanoseconds partitioning the stream.
    pub partition_ns: u64,
    /// Wall-clock nanoseconds streaming shards and collecting replies.
    pub map_ns: u64,
    /// Wall-clock nanoseconds in the reduce + recover + solve tail.
    pub reduce_solve_ns: u64,
}

/// Result of a [`ProcessRunner`] insertion-only run: the
/// [`DistResult`](crate::DistResult) fields plus reduce accounting and
/// the fault/recovery counters of the run's [`SocketRunStats`].
#[derive(Clone, Debug)]
pub struct ProcessResult {
    /// The selected family (identical to the serial and in-process
    /// parallel executors').
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage.
    pub estimated_coverage: f64,
    /// The merged sketch's final size (edges).
    pub merged_edges: usize,
    /// Tree-reduce round/communication accounting (the parent-side
    /// reduce over restored worker snapshots).
    pub rounds: RoundsReport,
    /// Worker processes spawned.
    pub workers_spawned: usize,
    /// Worker processes lost mid-run (crash, kill, severed link, or
    /// injected fault).
    pub workers_lost: usize,
    /// Shard jobs re-dispatched to surviving workers after a loss.
    pub shards_resharded: usize,
    /// Shards built inline in the parent because every worker died or a
    /// shard exhausted its retry allowance.
    pub shards_built_inline: usize,
    /// Workers killed by the per-job deadline reaper (hangs and
    /// over-deadline delays — failures EOF can never surface).
    pub deadline_reaps: usize,
    /// Shard jobs re-dispatched after waiting out an exponential
    /// backoff.
    pub retries: usize,
    /// Typed protocol faults observed on worker pipes (corrupt frames,
    /// version mismatches, unexpected replies) — each cost that worker
    /// its life but never the run.
    pub proto_faults: usize,
    /// Total pipe bytes of worker reply frames (the map→reduce
    /// shipment, in the job's [`ShipFormat`] encoding).
    pub wire_bytes: u64,
    /// Round-trip latency of answered heartbeat probes, aggregated over
    /// every worker.
    pub heartbeat: HeartbeatStats,
    /// Wall-clock nanoseconds partitioning the stream.
    pub partition_ns: u64,
    /// Wall-clock nanoseconds dispatching shards and collecting
    /// snapshots from workers.
    pub map_ns: u64,
    /// Wall-clock nanoseconds in the reduce + solve tail.
    pub reduce_solve_ns: u64,
}

impl From<SocketResult> for ProcessResult {
    fn from(r: SocketResult) -> Self {
        let s = r.stats;
        ProcessResult {
            family: r.family,
            estimated_coverage: r.estimated_coverage,
            merged_edges: r.merged_edges,
            rounds: r.rounds,
            workers_spawned: s.workers_joined,
            workers_lost: s.workers_lost,
            shards_resharded: s.shards_requeued,
            shards_built_inline: s.shards_built_inline,
            deadline_reaps: s.deadline_reaps,
            retries: s.retries,
            proto_faults: s.proto_faults,
            wire_bytes: s.wire_bytes,
            heartbeat: s.heartbeat,
            partition_ns: r.partition_ns,
            map_ns: r.map_ns,
            reduce_solve_ns: r.reduce_solve_ns,
        }
    }
}

/// Result of a [`ProcessRunner`] dynamic run: the
/// [`DynDistResult`](crate::DynDistResult) fields plus reduce accounting
/// and fault/recovery counters.
#[derive(Clone, Debug)]
pub struct DynProcessResult {
    /// The selected family (identical to the serial dynamic executor's).
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage on the
    /// surviving graph.
    pub estimated_coverage: f64,
    /// The subsampling level the merged sketch decoded at.
    pub sample_level: usize,
    /// That level's sampling probability `p = 2^{−level}`.
    pub sampling_p: f64,
    /// Surviving edges recovered from the merged sketch.
    pub recovered_edges: usize,
    /// Tree-reduce round/communication accounting.
    pub rounds: RoundsReport,
    /// Worker processes spawned.
    pub workers_spawned: usize,
    /// Worker processes lost mid-run.
    pub workers_lost: usize,
    /// Shard jobs re-dispatched to surviving workers after a loss.
    pub shards_resharded: usize,
    /// Shards built inline in the parent.
    pub shards_built_inline: usize,
    /// Workers killed by the per-job deadline reaper.
    pub deadline_reaps: usize,
    /// Shard jobs re-dispatched after a backoff.
    pub retries: usize,
    /// Typed protocol faults observed on worker pipes.
    pub proto_faults: usize,
    /// Total pipe bytes of worker reply frames.
    pub wire_bytes: u64,
    /// Round-trip latency of answered heartbeat probes.
    pub heartbeat: HeartbeatStats,
    /// Wall-clock nanoseconds partitioning the stream.
    pub partition_ns: u64,
    /// Wall-clock nanoseconds dispatching shards and collecting
    /// snapshots from workers.
    pub map_ns: u64,
    /// Wall-clock nanoseconds in the reduce + recover + solve tail.
    pub reduce_solve_ns: u64,
}

impl From<DynSocketResult> for DynProcessResult {
    fn from(r: DynSocketResult) -> Self {
        let s = r.stats;
        DynProcessResult {
            family: r.family,
            estimated_coverage: r.estimated_coverage,
            sample_level: r.sample_level,
            sampling_p: r.sampling_p,
            recovered_edges: r.recovered_edges,
            rounds: r.rounds,
            workers_spawned: s.workers_joined,
            workers_lost: s.workers_lost,
            shards_resharded: s.shards_requeued,
            shards_built_inline: s.shards_built_inline,
            deadline_reaps: s.deadline_reaps,
            retries: s.retries,
            proto_faults: s.proto_faults,
            wire_bytes: s.wire_bytes,
            heartbeat: s.heartbeat,
            partition_ns: r.partition_ns,
            map_ns: r.map_ns,
            reduce_solve_ns: r.reduce_solve_ns,
        }
    }
}

/// The channel to one worker: a spawned child's stdin/stdout pair, or
/// an accepted TCP connection.
enum Link {
    Pipe(Child),
    Tcp(TcpStream),
}

/// A link's halves for its reader and writer threads, plus the socket
/// the writer shuts down to sever a TCP link mid-stream (a pipe is
/// severed by dropping its writer half, which closes the child's stdin).
type Halves = (
    Box<dyn Read + Send>,
    Box<dyn Write + Send>,
    Option<TcpStream>,
);

impl Link {
    fn halves(&mut self) -> std::io::Result<Halves> {
        match self {
            Link::Pipe(child) => match (child.stdout.take(), child.stdin.take()) {
                (Some(out), Some(inp)) => Ok((Box::new(out), Box::new(inp), None)),
                _ => Err(std::io::Error::other("worker pipes are not captured")),
            },
            Link::Tcp(s) => Ok((
                Box::new(s.try_clone()?),
                Box::new(s.try_clone()?),
                Some(s.try_clone()?),
            )),
        }
    }

    fn peer(&self) -> String {
        match self {
            Link::Pipe(child) => format!("pid {}", child.id()),
            Link::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    /// Sever the link: kill the child (its pipes close with it), or shut
    /// the socket down both ways.
    fn sever(&mut self) {
        match self {
            Link::Pipe(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Link::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

/// One event delivered to the coordinator's main loop.
enum Event {
    /// The acceptor took a new connection.
    Joined(Link),
    /// A frame (or the typed read failure that ended the stream) from
    /// link `0`'s reader.
    Frame(usize, Result<(Message, u64), ProtoError>),
    /// Link `0`'s writer finished streaming shard `1`'s chunks.
    SentAll(usize, usize),
    /// Link `0`'s writer hit an I/O error.
    WriteErr(usize),
}

/// One command to a link's writer thread.
enum WriteCmd {
    /// Write a single control frame (heartbeat probe, shutdown).
    Frame(Message),
    /// Stream one shard: the `ChunkStart*` frame, its chunks under
    /// flow control, and optionally an injected network fault.
    Shard {
        shard: usize,
        plan: ChunkPlan,
        net_fault: Option<Fault>,
    },
    /// Exit the writer thread.
    Stop,
}

/// Coordinator-side handle on one link (registry entry `ci`).
struct Conn {
    link: Link,
    cmd: Option<Sender<WriteCmd>>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    /// Chunks of the in-flight shard acked (ingested) so far — shared
    /// with the writer for flow control.
    acked: Arc<AtomicU32>,
    /// Set when the link is being torn down, so a writer blocked in
    /// flow control or an injected stall bails out.
    gone: Arc<AtomicBool>,
    /// The shard whose reply this link owes, if any.
    inflight: Option<usize>,
    /// Whether the writer has reported streaming every chunk of the
    /// in-flight shard.
    sent_all: bool,
    /// Chunk count of the in-flight shard.
    chunks_total: u32,
    /// Whether this shard already counted toward `overlap_shards`.
    overlap_counted: bool,
}

impl Conn {
    /// Start link `ci`'s reader and writer threads.
    fn open(ci: usize, mut link: Link, window: u32, tx: &Sender<Event>) -> std::io::Result<Conn> {
        let (input, output, socket) = link.halves()?;
        let (cmd_tx, cmd_rx) = channel::<WriteCmd>();
        let acked = Arc::new(AtomicU32::new(0));
        let gone = Arc::new(AtomicBool::new(false));
        let writer = Writer {
            ci,
            cmds: cmd_rx,
            acked: acked.clone(),
            gone: gone.clone(),
            window,
            socket,
            tx: tx.clone(),
        };
        let writer = std::thread::spawn(move || writer.run(&mut BufWriter::new(output)));
        let reader = {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut input = BufReader::new(input);
                loop {
                    let frame = read_message(&mut input);
                    let end = frame.is_err();
                    if tx.send(Event::Frame(ci, frame)).is_err() || end {
                        return;
                    }
                }
            })
        };
        Ok(Conn {
            link,
            cmd: Some(cmd_tx),
            reader: Some(reader),
            writer: Some(writer),
            acked,
            gone,
            inflight: None,
            sent_all: false,
            chunks_total: 0,
            overlap_counted: false,
        })
    }

    /// Sever the link and join its threads.
    fn close(&mut self) {
        self.cmd = None;
        self.gone.store(true, Ordering::Release);
        self.link.sever();
        for handle in [self.writer.take(), self.reader.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
    }
}

/// A link's writer thread: control frames and chunk streams, in order,
/// with network faults executed on the way out.
struct Writer {
    ci: usize,
    cmds: Receiver<WriteCmd>,
    acked: Arc<AtomicU32>,
    gone: Arc<AtomicBool>,
    window: u32,
    socket: Option<TcpStream>,
    tx: Sender<Event>,
}

impl Writer {
    /// Serve commands until `Stop`, a dropped channel, an abandoned
    /// stream, or a write error (reported as [`Event::WriteErr`]).
    fn run(&self, out: &mut impl Write) {
        while let Ok(cmd) = self.cmds.recv() {
            let event = match cmd {
                WriteCmd::Stop => return,
                WriteCmd::Frame(msg) => match write_message(out, &msg) {
                    Ok(_) => continue,
                    Err(_) => Event::WriteErr(self.ci),
                },
                WriteCmd::Shard {
                    shard,
                    plan,
                    net_fault,
                } => match self.stream_shard(out, &plan, net_fault) {
                    Ok(true) => Event::SentAll(self.ci, shard),
                    // Abandoned stream (injected drop / teardown): the
                    // reader-side EOF carries the news.
                    Ok(false) => return,
                    Err(_) => Event::WriteErr(self.ci),
                },
            };
            let failed = matches!(event, Event::WriteErr(_));
            if self.tx.send(event).is_err() || failed {
                return;
            }
        }
    }

    /// The `drop@N` fault: write only the first half of `msg`'s frame,
    /// then sever the link — shut the socket down, or (for a pipe)
    /// return so the caller drops the writer half and closes the
    /// child's stdin. The worker sees a mid-frame cut, so it can never
    /// reply to the shard; the reader's EOF requeues it.
    fn cut(&self, out: &mut impl Write, msg: &Message) -> Result<bool, ProtoError> {
        let mut frame = Vec::new();
        write_message(&mut frame, msg)?;
        out.write_all(&frame[..frame.len() / 2])?;
        out.flush()?;
        if let Some(s) = &self.socket {
            let _ = s.shutdown(Shutdown::Both);
        }
        Ok(false)
    }

    /// Drain queued control frames (heartbeat probes, shutdown) so a
    /// long chunk stream never starves liveness. Returns `Ok(false)`
    /// when a `Stop` was drained — the caller abandons its stream.
    fn drain_control(&self, out: &mut impl Write) -> Result<bool, ProtoError> {
        loop {
            match self.cmds.try_recv() {
                Ok(WriteCmd::Frame(msg)) => {
                    write_message(out, &msg)?;
                }
                Ok(WriteCmd::Stop) => return Ok(false),
                // The coordinator never queues a second shard while one
                // is in flight; drop it defensively rather than
                // interleave two streams.
                Ok(WriteCmd::Shard { .. }) => {}
                Err(TryRecvError::Empty) => return Ok(true),
                Err(TryRecvError::Disconnected) => return Ok(false),
            }
        }
    }

    /// Stream one shard's chunks under flow control, executing an
    /// injected network fault mid-stream. Returns `Ok(true)` when every
    /// chunk was written and `Ok(false)` when the stream was abandoned
    /// — injected drop, torn-down link, or a drained `Stop`.
    fn stream_shard(
        &self,
        out: &mut impl Write,
        plan: &ChunkPlan,
        net_fault: Option<Fault>,
    ) -> Result<bool, ProtoError> {
        let drop_conn = matches!(net_fault, Some(Fault::DropConn));
        if drop_conn && plan.chunks.is_empty() {
            // Even an empty shard's stream can be severed before the
            // worker replies.
            return self.cut(out, &plan.start);
        }
        write_message(out, &plan.start)?;
        for (i, chunk) in plan.chunks.iter().enumerate() {
            if !self.drain_control(out)? {
                return Ok(false);
            }
            // Flow control: at most `window` unacked chunks in flight,
            // so a slow ingester applies backpressure instead of
            // ballooning its link buffer — and so acks arriving before
            // the last chunk is sent are an honest overlap observation.
            while (i as u32)
                >= self
                    .acked
                    .load(Ordering::Acquire)
                    .saturating_add(self.window)
            {
                if self.gone.load(Ordering::Acquire) || !self.drain_control(out)? {
                    return Ok(false);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            if i == 0 && drop_conn {
                // Sever mid-stream: the worker's build dies with the
                // link.
                return self.cut(out, chunk);
            }
            write_message(out, chunk)?;
            if i == 0 {
                match net_fault {
                    Some(Fault::Stall(ms)) => {
                        // Stop writing without closing. Heartbeat probes
                        // queue unwritten behind the stall, so the
                        // pending probe ages into the suspect threshold
                        // — the half-open-link detector under test.
                        let mut left = ms;
                        while left > 0 && !self.gone.load(Ordering::Acquire) {
                            let step = left.min(10);
                            std::thread::sleep(Duration::from_millis(step));
                            left -= step;
                        }
                    }
                    Some(Fault::DupChunk) => {
                        // Deliver chunk 0 twice; the worker must reject
                        // the replay by index without touching its
                        // sketch.
                        write_message(out, chunk)?;
                    }
                    _ => {}
                }
            }
        }
        Ok(true)
    }
}

/// Forward connections accepted on `listener` to the main loop until
/// `stop` is set.
fn spawn_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    tx: Sender<Event>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = listener.set_nonblocking(true);
        while !stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Heartbeat probes and chunk frames are
                    // latency-sensitive; don't let Nagle batch them.
                    let _ = stream.set_nodelay(true);
                    if tx.send(Event::Joined(Link::Tcp(stream))).is_err() {
                        return;
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    })
}

/// Link-kind marker of [`ProcessRunner`]: workers on spawned children's
/// stdin/stdout pipes.
#[derive(Clone, Copy, Debug)]
pub struct Pipes;

/// Link-kind marker of [`SocketRunner`]: workers on TCP connections.
#[derive(Clone, Copy, Debug)]
pub struct Sockets;

/// The multiprocess executor: real OS worker subprocesses, each driven
/// over its stdin/stdout pipes, behind the same map → tree-reduce →
/// solve pipeline as [`crate::ParallelRunner`].
///
/// Returns [`ProcessResult`]s. A run that loses every worker builds the
/// remaining shards inline at once — nothing can join a pipe run.
pub type ProcessRunner = Runner<Pipes>;

/// The TCP executor: the same pipeline with workers on the far end of
/// real socket connections. Two deployment shapes share it:
///
/// - **Loopback self-spawn** ([`SocketRunner::new`]): bind an ephemeral
///   loopback port and launch `processes` copies of the worker command
///   with `--connect ADDR` appended — the tests/bench shape.
/// - **Listen** ([`SocketRunner::listen`]): bind a given address and
///   wait for externally-started `coverage worker --connect HOST:PORT`
///   processes — the multi-host shape. Workers may connect at any
///   point; a worker joining after dispatch began is admitted mid-run
///   and handed queued shards.
///
/// When the registry empties (and stays empty past the join grace),
/// the remaining shards degrade to inline builds.
pub type SocketRunner = Runner<Sockets>;

/// The distributed executor over worker links of kind `L` ([`Pipes`]
/// or [`Sockets`]); use it through [`ProcessRunner`] or
/// [`SocketRunner`].
///
/// The coordinator partitions the stream with the *identical*
/// [`partition_edges`]/[`partition_updates`] +
/// [`DistConfig::shard_seed`] as the in-process executors, streams each
/// shard to a worker as a chunk stream ([`crate::net::chunk`]) — bounded
/// `JobChunk` frames under an ack window, so workers ingest while the
/// shard is still arriving — and tree-reduces the restored snapshots
/// with the same [`tree_reduce_with`]. Locals are always ordered by
/// shard index regardless of which worker produced them, so the
/// selected family is identical to the serial executor's.
///
/// ## Worker loss and recovery
///
/// Liveness is heartbeat-driven: the coordinator probes every link on
/// a fixed cadence, and the registry grades each worker by the age of
/// its oldest unanswered probe (live → suspect → dead; see
/// [`crate::net::registry`]). A crash is EOF from the link's reader, a
/// hang or over-deadline delay is reaped by the per-job deadline (or
/// declared dead first, if it stays silent past the dead threshold), a
/// corrupt reply or version mismatch is a checksum/version error from
/// [`read_message`]. In every case the link is severed and its
/// in-flight shard re-dispatched after an exponential backoff
/// ([`RetryPolicy`]). A shard that exhausts its attempts or the
/// run-wide retry budget — or outlives every worker — is built inline
/// in the coordinator rather than failing the run.
///
/// ## Fault injection
///
/// A [`FaultPlan`] ([`Self::with_fault_plan`]) schedules one fault per
/// shard, consumed on that shard's first dispatch. Worker faults
/// (crash/hang/delay/corrupt) ride in the `ChunkStart*` frame and are
/// executed by the worker at stream completion; network faults
/// (drop/stall/dup) are executed by the link's writer thread, on pipes
/// and sockets alike.
#[derive(Clone, Debug)]
pub struct Runner<L> {
    cfg: DistConfig,
    command: Option<WorkerCommand>,
    processes: usize,
    /// The address TCP links are accepted on; `None` for pipe links.
    listen: Option<String>,
    fan_in: usize,
    batch: usize,
    ship: ShipFormat,
    fault_plan: FaultPlan,
    job_timeout: Duration,
    retry: RetryPolicy,
    chunk_items: usize,
    chunk_window: u32,
    heartbeat_every: Duration,
    suspect_after: Duration,
    dead_after: Duration,
    join_grace: Duration,
    late_spawns: Vec<Duration>,
    link: PhantomData<L>,
}

/// Update-batch size workers use (mirrors the parallel executor).
const DEFAULT_BATCH: usize = 1 << 12;
/// Reduce fan-in (mirrors the parallel executor).
const DEFAULT_FAN_IN: usize = 4;
/// Default per-job deadline — generous for real shard builds, tight
/// enough that an operator notices a hung fleet inside a minute.
const DEFAULT_JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Items (edges or signed updates) per [`Message::JobChunk`].
const DEFAULT_CHUNK_ITEMS: usize = 16 * 1024;
/// Unacked chunks allowed in flight per link.
const DEFAULT_CHUNK_WINDOW: u32 = 4;
/// Heartbeat probe cadence per link.
const DEFAULT_HEARTBEAT_EVERY: Duration = Duration::from_millis(100);
/// Unanswered-probe age that turns a worker suspect.
const DEFAULT_SUSPECT_AFTER: Duration = Duration::from_millis(400);
/// Unanswered-probe age that declares a worker dead.
const DEFAULT_DEAD_AFTER: Duration = Duration::from_secs(3);
/// How long an empty TCP registry waits for a (re)connection before the
/// remaining shards degrade to inline builds.
const DEFAULT_JOIN_GRACE: Duration = Duration::from_secs(5);

impl<L> Runner<L> {
    fn with_defaults(
        cfg: DistConfig,
        command: Option<WorkerCommand>,
        processes: usize,
        listen: Option<String>,
    ) -> Self {
        Runner {
            cfg,
            command,
            processes,
            listen,
            fan_in: DEFAULT_FAN_IN,
            batch: DEFAULT_BATCH,
            ship: ShipFormat::Binary,
            fault_plan: FaultPlan::none(),
            job_timeout: DEFAULT_JOB_TIMEOUT,
            retry: RetryPolicy::default(),
            chunk_items: DEFAULT_CHUNK_ITEMS,
            chunk_window: DEFAULT_CHUNK_WINDOW,
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            suspect_after: DEFAULT_SUSPECT_AFTER,
            dead_after: DEFAULT_DEAD_AFTER,
            join_grace: DEFAULT_JOIN_GRACE,
            late_spawns: Vec::new(),
            link: PhantomData,
        }
    }

    /// Override the reduce fan-in (`≥ 2`).
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "fan-in must be at least 2");
        self.fan_in = fan_in;
        self
    }

    /// Override the worker update-batch size (`≥ 1`).
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch must be at least 1");
        self.batch = batch;
        self
    }

    /// Override the ship format for worker replies *and* the
    /// coordinator-side reduce. [`ShipFormat::InMemory`] cannot cross a
    /// link and is mapped to [`ShipFormat::Binary`] for the replies (the
    /// reduce still honors it).
    pub fn with_ship_format(mut self, ship: ShipFormat) -> Self {
        self.ship = ship;
        self
    }

    /// Thread a deterministic [`FaultPlan`] through the run: each
    /// shard's scheduled fault is consumed on that shard's first
    /// dispatch (see the type-level docs for who executes it).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the per-job deadline. A worker that has not replied
    /// within this window is reaped and its shard re-dispatched — the
    /// only detector that catches a *hung* worker. It must exceed any
    /// injected stall, or the stall is reaped like a hang.
    pub fn with_job_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "job timeout must be positive");
        self.job_timeout = timeout;
        self
    }

    /// Override the retry/backoff discipline for failed shard jobs.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts >= 1, "need at least one attempt");
        self.retry = retry;
        self
    }

    /// The reply encoding actually used on the links.
    fn reply_format(&self) -> ShipFormat {
        match self.ship {
            ShipFormat::Json => ShipFormat::Json,
            _ => ShipFormat::Binary,
        }
    }

    /// Start the workers, drive every shard job to a snapshot, and wind
    /// the links down. See the module docs for the thread shape and the
    /// liveness rules.
    fn dispatch<Snap>(
        &self,
        n_shards: usize,
        plan_shard: impl Fn(usize, Option<Fault>) -> ChunkPlan,
        extract: impl Fn(Message) -> Option<Snap>,
        inline: impl Fn(usize) -> Snap,
    ) -> Result<(Vec<Snap>, SocketRunStats), RunError> {
        let (tx, rx) = channel::<Event>();
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, acceptor) = match &self.listen {
            Some(listen) => {
                let listener = TcpListener::bind(listen)?;
                let addr = listener.local_addr()?.to_string();
                (
                    Some(addr),
                    Some(spawn_acceptor(listener, stop.clone(), tx.clone())),
                )
            }
            None => (None, None),
        };
        let wind_down_acceptor = |acceptor: Option<JoinHandle<()>>| {
            stop.store(true, Ordering::Release);
            if let Some(acceptor) = acceptor {
                let _ = acceptor.join();
            }
        };

        let started = Instant::now();
        // Loopback TCP children (they reach the loop through the
        // acceptor) and pipe links (admitted before the loop starts).
        let mut children: Vec<Child> = Vec::new();
        let mut pipes: Vec<Link> = Vec::new();
        let mut pending_spawns: Vec<Instant> = Vec::new();
        if let Some(command) = &self.command {
            let mut spawn_err: Option<std::io::Error> = None;
            for _ in 0..self.processes.min(n_shards).max(1) {
                match command.spawn(addr.as_deref()) {
                    Ok(child) if addr.is_some() => children.push(child),
                    Ok(child) => pipes.push(Link::Pipe(child)),
                    Err(e) => spawn_err = Some(e),
                }
            }
            if children.is_empty() && pipes.is_empty() {
                wind_down_acceptor(acceptor);
                return Err(RunError::Spawn(spawn_err.unwrap_or_else(|| {
                    std::io::Error::other("no worker could be spawned")
                })));
            }
            if addr.is_some() {
                pending_spawns = self.late_spawns.iter().map(|d| started + *d).collect();
                pending_spawns.sort();
            }
        }

        let mut faults = self.fault_plan.schedule(n_shards);
        let mut registry = WorkerRegistry::new();
        let mut conns: Vec<Conn> = Vec::new();
        let mut wheel = DeadlineWheel::new(0);
        let mut stats = SocketRunStats::default();

        let mut queue: VecDeque<usize> = (0..n_shards).collect();
        let mut ready_at: Vec<Instant> = vec![started; n_shards];
        let mut attempts: Vec<usize> = vec![0; n_shards];
        let mut snapshots: Vec<Option<Snap>> = (0..n_shards).map(|_| None).collect();
        let mut resolved = 0usize;
        let mut retries_spent = 0usize;
        let mut nonce_counter: u64 = 0x4E45_5400_0000_0000;
        let mut next_probe = started + self.heartbeat_every;
        let mut dispatch_started = false;
        // The registry starts empty; the grace clock starts now so a TCP
        // run nobody connects to still terminates (inline).
        let mut empty_since: Option<Instant> = Some(started);

        // A shard's dispatch failed: retry after a backoff, or build it
        // inline once its attempts or the run-wide budget run out.
        macro_rules! fail_shard {
            ($shard:expr) => {{
                let shard = $shard;
                attempts[shard] += 1;
                retries_spent += 1;
                if attempts[shard] >= self.retry.max_attempts || retries_spent > self.retry.budget {
                    snapshots[shard] = Some(inline(shard));
                    stats.shards_built_inline += 1;
                    resolved += 1;
                } else {
                    stats.retries += 1;
                    stats.shards_requeued += 1;
                    ready_at[shard] = Instant::now() + self.retry.backoff_after(attempts[shard]);
                    queue.push_front(shard);
                }
            }};
        }

        // Declare a link dead: sever it, unblock its writer, and
        // requeue whatever it owed.
        macro_rules! reap_conn {
            ($ci:expr) => {{
                let ci = $ci;
                if registry.usable(ci) {
                    stats.workers_lost += 1;
                }
                registry.mark_dead(ci);
                wheel.disarm(ci);
                conns[ci].gone.store(true, Ordering::Release);
                conns[ci].link.sever();
                conns[ci].cmd = None;
                if let Some(shard) = conns[ci].inflight.take() {
                    fail_shard!(shard);
                }
                if registry.usable_count() == 0 && empty_since.is_none() {
                    empty_since = Some(Instant::now());
                }
            }};
        }

        // Admit a link to the registry and send its handshake probe:
        // the first echo moves the worker joining → live and it can
        // take shards.
        macro_rules! admit {
            ($link:expr) => {{
                let link: Link = $link;
                let peer = link.peer();
                if let Ok(conn) = Conn::open(conns.len(), link, self.chunk_window, &tx) {
                    let ci = registry.admit(peer, dispatch_started);
                    stats.workers_joined += 1;
                    if dispatch_started {
                        stats.late_joiners += 1;
                    }
                    nonce_counter += 1;
                    let nonce = nonce_counter;
                    let _ = conn
                        .cmd
                        .as_ref()
                        .expect("a new link has a writer")
                        .send(WriteCmd::Frame(Message::Heartbeat { nonce }));
                    registry.note_probe(ci, nonce, Instant::now());
                    conns.push(conn);
                    empty_since = None;
                }
            }};
        }

        for link in pipes {
            admit!(link);
        }

        while resolved < n_shards {
            let now = Instant::now();

            // Late spawns whose time has come (loopback TCP only).
            if let (Some(command), Some(addr)) = (&self.command, &addr) {
                while pending_spawns.first().is_some_and(|&at| at <= now) {
                    pending_spawns.remove(0);
                    if let Ok(child) = command.spawn(Some(addr)) {
                        children.push(child);
                    }
                }
            }

            // Assign phase: every live idle link takes the next shard
            // whose backoff has matured.
            loop {
                let now = Instant::now();
                let Some(ci) = (0..conns.len()).find(|&ci| {
                    registry.takes_shards(ci)
                        && conns[ci].inflight.is_none()
                        && conns[ci].cmd.is_some()
                }) else {
                    break;
                };
                let Some(pos) = queue.iter().position(|&s| ready_at[s] <= now) else {
                    break;
                };
                let shard = queue.remove(pos).expect("position is in range");
                // Split the shard's scheduled fault by executor: worker
                // faults ride in the ChunkStart frame; network faults
                // are executed by the link's writer.
                let (worker_fault, net_fault) = match faults[shard].take() {
                    Some(f) if f.is_network() => (None, Some(f)),
                    f => (f, None),
                };
                match net_fault {
                    Some(Fault::DropConn) => stats.conn_drops_injected += 1,
                    Some(Fault::Stall(_)) => stats.stalls_injected += 1,
                    Some(Fault::DupChunk) => stats.chunk_dups_injected += 1,
                    _ => {}
                }
                let plan = plan_shard(shard, worker_fault);
                stats.chunks_streamed += plan.chunks.len();
                dispatch_started = true;
                let conn = &mut conns[ci];
                conn.acked.store(0, Ordering::Release);
                conn.sent_all = false;
                conn.chunks_total = plan.chunks.len() as u32;
                conn.overlap_counted = false;
                let sent = conn
                    .cmd
                    .as_ref()
                    .expect("a live idle link has a writer")
                    .send(WriteCmd::Shard {
                        shard,
                        plan,
                        net_fault,
                    })
                    .is_ok();
                if sent {
                    conn.inflight = Some(shard);
                    registry.job_started(ci);
                    wheel.arm(ci, now + self.job_timeout);
                } else {
                    // Writer already gone: free requeue (no attempt
                    // spent).
                    stats.shards_requeued += 1;
                    queue.push_front(shard);
                    reap_conn!(ci);
                }
            }

            // Probe phase: a fixed cadence per link, one probe
            // outstanding at a time (the oldest governs liveness).
            let now = Instant::now();
            if now >= next_probe {
                next_probe = now + self.heartbeat_every;
                for ci in 0..conns.len() {
                    if !registry.usable(ci) || registry.probe_pending(ci) {
                        continue;
                    }
                    let Some(cmd) = conns[ci].cmd.as_ref() else {
                        continue;
                    };
                    nonce_counter += 1;
                    let nonce = nonce_counter;
                    if cmd
                        .send(WriteCmd::Frame(Message::Heartbeat { nonce }))
                        .is_ok()
                    {
                        registry.note_probe(ci, nonce, now);
                    } else {
                        reap_conn!(ci);
                    }
                }
            }

            // Liveness phase: grade every pending probe's age. A worker
            // the registry just declared dead is no longer usable, so it
            // is counted here rather than by `reap_conn!`.
            for ci in 0..conns.len() {
                match registry.check_liveness(ci, now, self.suspect_after, self.dead_after) {
                    Liveness::TurnedDead => {
                        stats.workers_lost += 1;
                        reap_conn!(ci);
                    }
                    Liveness::TurnedSuspect | Liveness::Unchanged => {}
                }
            }

            if resolved >= n_shards {
                break;
            }

            // Degradation: registry empty and nothing scheduled to join.
            // Nothing can join a pipe run, so it builds the rest inline
            // at once; a TCP run first waits out the join grace.
            let waiting_for_joiners = registry.usable_count() == 0 && pending_spawns.is_empty();
            if waiting_for_joiners {
                if acceptor.is_none() {
                    break;
                }
                let since = empty_since.get_or_insert(now);
                if now.saturating_duration_since(*since) >= self.join_grace {
                    break;
                }
            }

            // Wait phase: the next frame, or whichever timer fires
            // first. The probe cadence bounds the wait, so the loop
            // always wakes.
            let mut wake = next_probe;
            if let Some(t) = wheel.next_deadline() {
                wake = wake.min(t);
            }
            if let Some(&t) = pending_spawns.first() {
                wake = wake.min(t);
            }
            if let (true, Some(since)) = (waiting_for_joiners, empty_since) {
                wake = wake.min(since + self.join_grace);
            }
            if (0..conns.len()).any(|ci| registry.takes_shards(ci) && conns[ci].inflight.is_none())
            {
                if let Some(t) = queue.iter().map(|&s| ready_at[s]).min() {
                    wake = wake.min(t);
                }
            }

            match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok(Event::Joined(link)) => admit!(link),
                Ok(Event::Frame(ci, Ok((msg, bytes)))) => {
                    if !registry.usable(ci) {
                        continue; // Stale event from a reaped link.
                    }
                    match msg {
                        Message::Heartbeat { nonce } => {
                            registry.note_echo(ci, nonce, Instant::now());
                        }
                        Message::ChunkAck { shard, index } => {
                            let conn = &mut conns[ci];
                            if conn.inflight == Some(shard as usize) {
                                conn.acked.store(index + 1, Ordering::Release);
                                if !conn.sent_all
                                    && index + 1 < conn.chunks_total
                                    && !conn.overlap_counted
                                {
                                    // Ingest demonstrably began before
                                    // the stream finished sending.
                                    conn.overlap_counted = true;
                                    stats.overlap_shards += 1;
                                }
                            }
                        }
                        msg => match conns[ci].inflight.map(|shard| (shard, extract(msg))) {
                            Some((shard, Some(snap))) => {
                                if snapshots[shard].is_none() {
                                    snapshots[shard] = Some(snap);
                                    resolved += 1;
                                }
                                stats.wire_bytes += bytes;
                                conns[ci].inflight = None;
                                registry.job_finished(ci);
                                wheel.disarm(ci);
                            }
                            // A reply of the wrong species, or one
                            // nobody asked for: a protocol violation.
                            _ => {
                                stats.proto_faults += 1;
                                reap_conn!(ci);
                            }
                        },
                    }
                }
                Ok(Event::Frame(ci, Err(e))) => {
                    if !registry.usable(ci) {
                        continue;
                    }
                    if matches!(e, ProtoError::Wire(_)) {
                        // Corrupt frame or version mismatch — typed,
                        // counted, recovered.
                        stats.proto_faults += 1;
                    }
                    reap_conn!(ci);
                }
                Ok(Event::SentAll(ci, shard)) => {
                    if registry.usable(ci) && conns[ci].inflight == Some(shard) {
                        conns[ci].sent_all = true;
                    }
                }
                Ok(Event::WriteErr(ci)) => {
                    if registry.usable(ci) {
                        reap_conn!(ci);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    for ci in wheel.expired(Instant::now()) {
                        if !registry.usable(ci) {
                            continue;
                        }
                        // The deadline reaper: catches hung workers and
                        // over-deadline stalls.
                        stats.deadline_reaps += 1;
                        reap_conn!(ci);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Unresolved shards — empty registry or exhausted budgets —
        // degrade to inline builds so the run still completes.
        for (shard, snap) in snapshots.iter_mut().enumerate() {
            if snap.is_none() {
                *snap = Some(inline(shard));
                stats.shards_built_inline += 1;
            }
        }

        // Wind down: stop accepting, polite shutdown to survivors, then
        // sever everything and join the threads.
        stop.store(true, Ordering::Release);
        for (ci, conn) in conns.iter().enumerate() {
            if let (true, Some(cmd)) = (registry.usable(ci), conn.cmd.as_ref()) {
                let _ = cmd.send(WriteCmd::Frame(Message::Shutdown));
                let _ = cmd.send(WriteCmd::Stop);
            }
        }
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for conn in &mut conns {
            conn.close();
        }
        drop(tx);
        wind_down_acceptor(acceptor);

        stats.suspect_transitions = registry.suspect_transitions();
        stats.suspect_recoveries = registry.suspect_recoveries();
        stats.heartbeat = registry.aggregate_rtt();
        stats.workers = registry.summaries();

        Ok((
            snapshots
                .into_iter()
                .map(|s| s.expect("every shard resolved"))
                .collect(),
            stats,
        ))
    }

    /// The insertion-only pipeline: partition → dispatch → restore →
    /// tree reduce → solve.
    fn run_sketch(&self, stream: &dyn EdgeStream) -> Result<SocketResult, RunError> {
        let cfg = &self.cfg;
        let params = cfg.sketch_params(stream.num_sets());
        let ship = self.reply_format();

        let t0 = Instant::now();
        let shards = partition_edges(stream, cfg.machines, cfg.shard_seed(), self.batch);
        let partition_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let (snapshots, stats) = self.dispatch(
            shards.len(),
            |shard, fault| {
                let edges = &shards[shard];
                let (items, batch) = (self.chunk_items, self.batch);
                plan_sketch(
                    shard as u32,
                    edges,
                    items,
                    params,
                    cfg.seed,
                    ship,
                    fault,
                    batch,
                )
            },
            |msg| match msg {
                Message::ReplySketch { snapshot, .. } => Some(snapshot),
                _ => None,
            },
            |shard| {
                let mut s = ThresholdSketch::new(params, cfg.seed);
                for chunk in shards[shard].chunks(self.batch) {
                    s.update_batch(chunk);
                }
                SketchSnapshot::of(&s)
            },
        )?;
        let map_ns = t1.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let locals: Vec<ThresholdSketch> = snapshots.iter().map(|s| s.restore()).collect();
        let (merged, rounds) = tree_reduce_with(locals, self.fan_in, self.ship);
        let family = bucket_greedy_k_cover(&merged.csr_view(), cfg.k).family();
        let reduce_solve_ns = t2.elapsed().as_nanos() as u64;

        Ok(SocketResult {
            estimated_coverage: merged.estimate_coverage(&family),
            merged_edges: merged.edges_stored(),
            family,
            rounds,
            stats,
            partition_ns,
            map_ns,
            reduce_solve_ns,
        })
    }

    /// The dynamic pipeline: partition → dispatch → restore → tree
    /// reduce → recover → solve.
    fn run_dyn(&self, stream: &dyn DynamicEdgeStream) -> Result<DynSocketResult, RunError> {
        let cfg = &self.cfg;
        let params = cfg.dynamic_sketch_params(stream.num_sets());
        let ship = self.reply_format();

        let t0 = Instant::now();
        let shards = partition_updates(stream, cfg.machines, cfg.shard_seed(), self.batch);
        let partition_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let (snapshots, stats) = self.dispatch(
            shards.len(),
            |shard, fault| {
                let updates = &shards[shard];
                let (items, batch) = (self.chunk_items, self.batch);
                plan_dynamic(
                    shard as u32,
                    updates,
                    items,
                    params,
                    cfg.seed,
                    ship,
                    fault,
                    batch,
                )
            },
            |msg| match msg {
                Message::ReplyDynamic { snapshot, .. } => Some(snapshot),
                _ => None,
            },
            |shard| {
                let mut s = DynamicSketch::new(params, cfg.seed);
                for chunk in shards[shard].chunks(self.batch) {
                    s.update_batch(chunk);
                }
                DynamicSnapshot::of(&s)
            },
        )?;
        let map_ns = t1.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let locals: Vec<DynamicSketch> = snapshots.iter().map(|s| s.restore()).collect();
        let (merged, rounds) = tree_reduce_with(locals, self.fan_in, self.ship);
        let (family, estimated_coverage, sample) = recover_and_solve(&merged, cfg.k);
        let reduce_solve_ns = t2.elapsed().as_nanos() as u64;

        Ok(DynSocketResult {
            family,
            estimated_coverage,
            sample_level: sample.level,
            sampling_p: sample.sampling_p,
            recovered_edges: sample.edges.len(),
            rounds,
            stats,
            partition_ns,
            map_ns,
            reduce_solve_ns,
        })
    }
}

impl ProcessRunner {
    /// A runner over `processes ≥ 1` workers spawned via `command`.
    pub fn new(cfg: DistConfig, command: WorkerCommand, processes: usize) -> Self {
        assert!(processes >= 1, "need at least one worker process");
        Self::with_defaults(cfg, Some(command), processes, None)
    }

    /// Fault injection shorthand: add a [`Fault::Crash`] entry to the
    /// fault plan for each listed shard, so its first dispatch kills its
    /// worker without a reply — the simulated worker kill the recovery
    /// tests and the BENCH_6 gate exercise. A later
    /// [`with_fault_plan`](Self::with_fault_plan) replaces these.
    pub fn with_injected_failures(mut self, shards: impl IntoIterator<Item = usize>) -> Self {
        self.fault_plan =
            (shards.into_iter()).fold(self.fault_plan, |p, s| p.with_fault(s, Fault::Crash));
        self
    }

    /// Run the insertion-only pipeline over real worker processes.
    ///
    /// Returns `Err` only when not a single worker could be spawned;
    /// worker loss after that is recovered per the type-level docs.
    pub fn run(&self, stream: &dyn EdgeStream) -> Result<ProcessResult, RunError> {
        self.run_sketch(stream).map(ProcessResult::from)
    }

    /// Run the dynamic (insert/delete) pipeline over real worker
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if no subsampling level of the merged sketch decodes (the
    /// sketch was sized with too few levels for the surviving edges).
    pub fn run_dynamic(
        &self,
        stream: &dyn DynamicEdgeStream,
    ) -> Result<DynProcessResult, RunError> {
        self.run_dyn(stream).map(DynProcessResult::from)
    }
}

impl SocketRunner {
    /// Loopback self-spawn mode: bind an ephemeral loopback port and
    /// launch `processes ≥ 1` copies of `command` with
    /// `--connect ADDR` appended.
    pub fn new(cfg: DistConfig, command: WorkerCommand, processes: usize) -> Self {
        assert!(processes >= 1, "need at least one worker process");
        Self::with_defaults(cfg, Some(command), processes, Some("127.0.0.1:0".into()))
    }

    /// Listen mode: bind `addr` (e.g. `0.0.0.0:7700`) and serve
    /// externally-started `coverage worker --connect HOST:PORT`
    /// processes. No workers are spawned; if none connects within the
    /// join grace, every shard is built inline.
    pub fn listen(cfg: DistConfig, addr: impl Into<String>) -> Self {
        Self::with_defaults(cfg, None, 0, Some(addr.into()))
    }

    /// Override the items carried per [`Message::JobChunk`] (`≥ 1`).
    /// Smaller chunks mean earlier ingest overlap and more frames.
    pub fn with_chunk_items(mut self, items: usize) -> Self {
        assert!(items >= 1, "chunks must carry at least one item");
        self.chunk_items = items;
        self
    }

    /// Override the per-connection ack window (`≥ 1` unacked chunks).
    pub fn with_chunk_window(mut self, window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        self.chunk_window = window;
        self
    }

    /// Override the liveness timings: probe cadence, the unanswered
    /// probe age that turns a worker suspect, and the age that declares
    /// it dead (`every < suspect < dead`).
    pub fn with_heartbeats(mut self, every: Duration, suspect: Duration, dead: Duration) -> Self {
        assert!(
            !every.is_zero() && every < suspect && suspect < dead,
            "need probe cadence < suspect threshold < dead threshold"
        );
        self.heartbeat_every = every;
        self.suspect_after = suspect;
        self.dead_after = dead;
        self
    }

    /// How long an empty registry waits for a (re)connection before the
    /// remaining shards degrade to inline builds.
    pub fn with_join_grace(mut self, grace: Duration) -> Self {
        self.join_grace = grace;
        self
    }

    /// Schedule one extra worker process to be spawned `after` the run
    /// starts (loopback mode only) — deterministic late-joiner
    /// admission for tests and the chaos suite. May be called multiple
    /// times.
    pub fn with_late_worker_after(mut self, after: Duration) -> Self {
        self.late_spawns.push(after);
        self
    }

    /// Run the insertion-only pipeline over TCP workers.
    ///
    /// Returns `Err` only when the listener cannot bind or (in loopback
    /// mode) not a single worker could be spawned; every failure after
    /// that is recovered per the type-level docs.
    pub fn run(&self, stream: &dyn EdgeStream) -> Result<SocketResult, RunError> {
        self.run_sketch(stream)
    }

    /// Run the dynamic (insert/delete) pipeline over TCP workers.
    ///
    /// # Panics
    ///
    /// Panics if no subsampling level of the merged sketch decodes (the
    /// sketch was sized with too few levels for the surviving edges).
    pub fn run_dynamic(&self, stream: &dyn DynamicEdgeStream) -> Result<DynSocketResult, RunError> {
        self.run_dyn(stream)
    }
}
