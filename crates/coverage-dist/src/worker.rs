//! The worker half of the distributed executors.
//!
//! A worker is the CLI binary re-invoked in its hidden `worker` mode:
//! it reads framed chunk streams ([`proto`](crate::proto)) from stdin
//! (pipe links) or from a TCP connection it dialed (`--connect`),
//! ingests each chunk as it arrives, acks it, and writes the local
//! sketch's snapshot back when the stream completes — one reply per
//! shard, strictly in order. The worker holds no cross-shard state:
//! determinism lives entirely in the stream (params + seed + shard),
//! exactly as for the in-process executors.
//!
//! Fault injection: a stream may carry a [`Fault`] the worker executes
//! faithfully once the last chunk is in — [`Fault::Crash`] exits the
//! loop without replying (the coordinator sees EOF, the same observable
//! as a crashed or killed worker), [`Fault::Hang`] stalls forever (only
//! the coordinator's deadline reaper can detect it), [`Fault::Delay`]
//! sleeps before replying normally, and [`Fault::CorruptReply`] flips
//! one bit of the reply frame (the coordinator's checksum catches it as
//! a typed error). A [`Message::Heartbeat`] is echoed back verbatim —
//! the coordinator's liveness/version probe.
//!
//! A worker whose coordinator has gone — its writes fail with a broken
//! or reset link, or its input ends mid-frame — has nobody left to
//! report to and exits 0 without printing; real wire and protocol
//! errors are still printed and exit 1.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};

use crate::fault::Fault;
use crate::net::chunk::{malformed, ChunkVerdict, ChunkedBuild};
use crate::proto::{read_message, write_corrupted_message, write_message, Message, ProtoError};

/// Execute a job's pre-reply fault, if any. Returns `false` when the
/// worker must die silently (crash), `true` when it should proceed to
/// reply (possibly after a delay). [`Fault::Hang`] never returns.
fn pre_reply_fault(fault: &Option<Fault>) -> bool {
    match fault {
        Some(Fault::Crash) => false,
        Some(Fault::Hang) => loop {
            // Stall forever: the parent's deadline reaper kills us.
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
        Some(Fault::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            true
        }
        Some(Fault::CorruptReply) | None => true,
        // Network faults are executed coordinator-side by the link
        // writer and never ride in job frames; a worker that does see
        // one treats it as no fault (the codec is total either way).
        Some(Fault::DropConn) | Some(Fault::Stall(_)) | Some(Fault::DupChunk) => true,
    }
}

/// Write `reply`, honoring a [`Fault::CorruptReply`] injection.
fn write_reply(
    output: &mut impl Write,
    reply: &Message,
    fault: &Option<Fault>,
    seed: u64,
) -> Result<u64, ProtoError> {
    match fault {
        Some(Fault::CorruptReply) => write_corrupted_message(output, reply, seed),
        _ => write_message(output, reply),
    }
}

/// Serve framed chunk streams from `input` until EOF, shutdown, or an
/// injected failure. Every completed stream produces exactly one
/// in-order reply on `output`.
///
/// Returns `Ok(())` on a clean end (EOF between frames, an explicit
/// [`Message::Shutdown`], or an injected failure) and the underlying
/// [`ProtoError`] when the link breaks or a frame is corrupt.
pub fn worker_loop(input: &mut impl Read, output: &mut impl Write) -> Result<(), ProtoError> {
    // At most one chunked shard stream is open at a time (the
    // coordinator never pipelines a second job before the reply).
    let mut chunked: Option<ChunkedBuild> = None;
    // The (shard, chunk count) of the most recently completed stream,
    // so a duplicate of its tail arriving *after* completion is
    // recognized and dropped instead of killing the connection.
    let mut finished: Option<(u32, u32)> = None;
    loop {
        let msg = match read_message(input) {
            Ok((msg, _)) => msg,
            Err(ProtoError::Eof) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Message::Heartbeat { nonce } => {
                // Liveness/version probe: echo the nonce verbatim so the
                // coordinator can match reply to probe.
                write_message(output, &Message::Heartbeat { nonce })?;
            }
            start @ (Message::ChunkStartSketch { .. } | Message::ChunkStartDynamic { .. }) => {
                if chunked.is_some() {
                    return Err(malformed("chunk stream opened while one is in progress"));
                }
                let build = ChunkedBuild::open(start)?;
                if build.complete() {
                    // Empty shard: reply immediately.
                    if !finish_chunked(output, build)? {
                        return Ok(());
                    }
                } else {
                    chunked = Some(build);
                }
            }
            Message::JobChunk {
                shard,
                index,
                count,
                payload,
            } => {
                let Some(build) = chunked.as_mut() else {
                    if finished == Some((shard, count)) && index < count {
                        // A straggling duplicate from the stream that
                        // just completed: dropped like any other replay.
                        continue;
                    }
                    return Err(malformed("chunk without an open stream"));
                };
                match build.accept(shard, index, count, payload)? {
                    ChunkVerdict::Ingested => {
                        // Ack means *ingested*: the coordinator's flow
                        // control and overlap observation both rely on
                        // that.
                        write_message(output, &Message::ChunkAck { shard, index })?;
                        if build.complete() {
                            let build = chunked.take().expect("stream is open");
                            finished = Some((shard, count));
                            if !finish_chunked(output, build)? {
                                return Ok(());
                            }
                        }
                    }
                    // A replayed chunk: dropped silently — no ack, no
                    // ingest, sketch untouched.
                    ChunkVerdict::DuplicateRejected => {}
                }
            }
            Message::Shutdown => return Ok(()),
            Message::ReplySketch { .. }
            | Message::ReplyDynamic { .. }
            | Message::ChunkAck { .. } => {
                // Replies and acks flow worker → coordinator only;
                // receiving one here means the links are crossed.
                return Err(malformed("worker received a reply message"));
            }
        }
    }
}

/// Close a completed chunk stream: execute its pre-reply fault and
/// write the reply. Returns `false` when the injected fault says the
/// worker must die silently.
fn finish_chunked(output: &mut impl Write, build: ChunkedBuild) -> Result<bool, ProtoError> {
    let (reply, fault, seed) = build.finish()?;
    if !pre_reply_fault(&fault) {
        return Ok(false);
    }
    write_reply(output, &reply, &fault, seed)?;
    Ok(true)
}

/// Whether `e` only says that the coordinator has gone: a write hit a
/// closed or reset link, or the input ended mid-frame after the
/// coordinator severed it.
fn coordinator_gone(e: &ProtoError) -> bool {
    matches!(e, ProtoError::Io(io) if matches!(
        io.kind(),
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    ))
}

/// The process exit code for a finished [`worker_loop`]: 0 for a clean
/// end or a vanished coordinator (nobody is left to tell), 1 with the
/// error printed for anything else.
fn exit_code(result: Result<(), ProtoError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) if coordinator_gone(&e) => 0,
        Err(e) => {
            eprintln!("worker: {e}");
            1
        }
    }
}

/// Run [`worker_loop`] over this process's stdin/stdout — the body of
/// the CLI's hidden `worker` subcommand. Returns the process exit code.
pub fn run_stdio() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = BufReader::new(stdin.lock());
    let mut output = BufWriter::new(stdout.lock());
    exit_code(worker_loop(&mut input, &mut output))
}

/// Dial the coordinator at `addr` and run [`worker_loop`] over the TCP
/// connection — the body of `coverage worker --connect HOST:PORT`.
/// Returns the process exit code. The framed protocol is byte-identical
/// to the pipe link's.
pub fn run_connect(addr: &str) -> i32 {
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: connect {addr}: {e}");
            return 1;
        }
    };
    // Replies and acks are latency-sensitive (the coordinator's flow
    // control waits on acks); don't let Nagle batch them.
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: {e}");
            return 1;
        }
    };
    let mut input = BufReader::new(read_half);
    let mut output = BufWriter::new(stream);
    exit_code(worker_loop(&mut input, &mut output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::chunk::{plan_dynamic, plan_sketch, ChunkPlan};
    use crate::rounds::ShipFormat;
    use coverage_core::Edge;
    use coverage_sketch::{
        DynamicSketch, DynamicSketchParams, DynamicSnapshot, SketchParams, SketchSnapshot,
        ThresholdSketch,
    };
    use coverage_stream::{SignedEdge, VecStream};

    fn shard_edges(n: u64) -> Vec<Edge> {
        (0..n).map(|e| Edge::new((e % 5) as u32, e * 7)).collect()
    }

    /// Append one shard's chunk stream (start frame, then its chunks).
    fn write_plan(jobs: &mut Vec<u8>, plan: &ChunkPlan) {
        write_message(jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            write_message(jobs, chunk).unwrap();
        }
    }

    /// Run the worker over `jobs` and return its non-ack frames.
    fn replies(jobs: &[u8]) -> Vec<Message> {
        let mut out = Vec::new();
        worker_loop(&mut &jobs[..], &mut out).unwrap();
        let mut cursor = &out[..];
        let mut replies = Vec::new();
        while !cursor.is_empty() {
            match read_message(&mut cursor).unwrap().0 {
                Message::ChunkAck { .. } => {}
                reply => replies.push(reply),
            }
        }
        replies
    }

    #[test]
    fn worker_answers_streams_in_order() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mut jobs = Vec::new();
        for seed in [1u64, 2, 3] {
            let plan = plan_sketch(
                seed as u32,
                &shard_edges(100),
                40,
                params,
                seed,
                ShipFormat::Binary,
                None,
                64,
            );
            write_plan(&mut jobs, &plan);
        }
        let seeds: Vec<u64> = replies(&jobs)
            .into_iter()
            .map(|reply| match reply {
                Message::ReplySketch { snapshot, .. } => snapshot.raw_seed,
                other => panic!("wrong reply: {other:?}"),
            })
            .collect();
        let want: Vec<u64> = [1u64, 2, 3]
            .iter()
            .map(|&seed| coverage_hash::UnitHash::new(seed).seed())
            .collect();
        assert_eq!(seeds, want);
    }

    #[test]
    fn injected_failure_dies_without_reply() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mut jobs = Vec::new();
        let crash = plan_sketch(
            0,
            &shard_edges(50),
            20,
            params,
            1,
            ShipFormat::Binary,
            Some(Fault::Crash),
            64,
        );
        write_plan(&mut jobs, &crash);
        // A second stream that would normally be answered.
        let next = plan_sketch(
            1,
            &shard_edges(50),
            20,
            params,
            2,
            ShipFormat::Binary,
            None,
            64,
        );
        write_plan(&mut jobs, &next);
        assert!(replies(&jobs).is_empty(), "failing worker must not reply");
    }

    #[test]
    fn dynamic_stream_roundtrips_through_worker() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(4, 2, 0.5, 90));
        let updates: Vec<SignedEdge> = (0..300u64)
            .map(|e| {
                let edge = Edge::new((e % 4) as u32, e);
                if e % 5 == 0 {
                    SignedEdge::delete(edge)
                } else {
                    SignedEdge::insert(edge)
                }
            })
            .collect();
        let mut jobs = Vec::new();
        let plan = plan_dynamic(0, &updates, 128, params, 19, ShipFormat::Json, None, 77);
        write_plan(&mut jobs, &plan);
        let mut inline = DynamicSketch::new(params, 19);
        inline.update_batch(&updates);
        match &replies(&jobs)[..] {
            [Message::ReplyDynamic { snapshot, .. }] => {
                assert_eq!(*snapshot, DynamicSnapshot::of(&inline));
            }
            other => panic!("wrong replies: {other:?}"),
        }
    }

    #[test]
    fn shutdown_ends_the_loop() {
        let mut jobs = Vec::new();
        write_message(&mut jobs, &Message::Shutdown).unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    fn delayed_stream_still_replies_identically() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let edges = shard_edges(80);
        let output = |fault| {
            let mut jobs = Vec::new();
            let plan = plan_sketch(0, &edges, 30, params, 4, ShipFormat::Binary, fault, 32);
            write_plan(&mut jobs, &plan);
            let mut out = Vec::new();
            worker_loop(&mut &jobs[..], &mut out).unwrap();
            out
        };
        // A short delay changes the timing, never the bytes.
        assert_eq!(output(Some(Fault::Delay(5))), output(None));
    }

    #[test]
    fn corrupt_reply_fails_the_parent_checksum() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mut jobs = Vec::new();
        let plan = plan_sketch(
            0,
            &shard_edges(120),
            50,
            params,
            21,
            ShipFormat::Binary,
            Some(Fault::CorruptReply),
            32,
        );
        write_plan(&mut jobs, &plan);
        let mut out = Vec::new();
        worker_loop(&mut &jobs[..], &mut out).unwrap();
        let mut cursor = &out[..];
        for _ in 0..plan.chunks.len() {
            assert!(matches!(
                read_message(&mut cursor).unwrap().0,
                Message::ChunkAck { .. }
            ));
        }
        assert!(!cursor.is_empty(), "corrupt replies still travel");
        assert!(
            matches!(read_message(&mut cursor), Err(ProtoError::Wire(_))),
            "a corrupted reply must be a typed wire error on the parent side"
        );
    }

    #[test]
    fn a_vanished_coordinator_is_a_quiet_exit_but_wire_errors_are_not() {
        use std::io::Error;
        for kind in [
            ErrorKind::BrokenPipe,
            ErrorKind::ConnectionReset,
            ErrorKind::UnexpectedEof,
        ] {
            assert_eq!(exit_code(Err(ProtoError::Io(Error::from(kind)))), 0);
        }
        assert_eq!(exit_code(Err(malformed("crossed links"))), 1);
        assert_eq!(
            exit_code(Err(ProtoError::Io(Error::from(
                ErrorKind::PermissionDenied
            )))),
            1
        );
    }

    #[test]
    fn heartbeat_is_echoed_verbatim() {
        let mut jobs = Vec::new();
        write_message(&mut jobs, &Message::Heartbeat { nonce: 77 }).unwrap();
        write_message(&mut jobs, &Message::Heartbeat { nonce: u64::MAX }).unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for expect in [77u64, u64::MAX] {
            match read_message(&mut cursor).unwrap().0 {
                Message::Heartbeat { nonce } => assert_eq!(nonce, expect),
                other => panic!("wrong reply: {other:?}"),
            }
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn chunked_stream_acks_every_chunk_and_replies_like_an_inline_build() {
        let params = SketchParams::with_budget(5, 2, 0.5, 120);
        let edges = shard_edges(600);
        let plan = plan_sketch(4, &edges, 100, params, 33, ShipFormat::Binary, None, 128);
        let mut jobs = Vec::new();
        write_message(&mut jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            write_message(&mut jobs, chunk).unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for expect in 0..6u32 {
            match read_message(&mut cursor).unwrap().0 {
                Message::ChunkAck { shard, index } => {
                    assert_eq!((shard, index), (4, expect));
                }
                other => panic!("expected an ack: {other:?}"),
            }
        }
        let inline = ThresholdSketch::from_stream(params, 33, &VecStream::new(5, edges));
        match read_message(&mut cursor).unwrap().0 {
            Message::ReplySketch { snapshot, .. } => {
                assert_eq!(snapshot, SketchSnapshot::of(&inline));
            }
            other => panic!("wrong reply: {other:?}"),
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn duplicated_chunks_are_not_acked_twice_and_never_double_ingested() {
        // Dynamic build: the linear sketch is not idempotent, so a
        // duplicate that slipped through would change the snapshot.
        let params = DynamicSketchParams::new(SketchParams::with_budget(4, 2, 0.5, 90));
        let updates: Vec<SignedEdge> = (0..300u64)
            .map(|e| SignedEdge::insert(Edge::new((e % 4) as u32, e)))
            .collect();
        let plan = plan_dynamic(0, &updates, 64, params, 19, ShipFormat::Binary, None, 77);
        let mut jobs = Vec::new();
        write_message(&mut jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            // Every chunk delivered twice — the dup@N fault's shape.
            write_message(&mut jobs, chunk).unwrap();
            write_message(&mut jobs, chunk).unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        let mut acks = 0;
        loop {
            match read_message(&mut cursor).unwrap().0 {
                Message::ChunkAck { .. } => acks += 1,
                Message::ReplyDynamic { snapshot, .. } => {
                    let mut inline = DynamicSketch::new(params, 19);
                    for sub in updates.chunks(77) {
                        inline.update_batch(sub);
                    }
                    assert_eq!(snapshot, DynamicSnapshot::of(&inline));
                    break;
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert_eq!(acks, plan.chunks.len(), "one ack per unique chunk");
        assert!(cursor.is_empty());
    }

    #[test]
    fn chunk_gap_is_a_typed_error_and_crash_fault_ends_a_chunked_stream() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        // Gap: a chunk stream whose first frame has index 1.
        let mut jobs = Vec::new();
        let plan = plan_sketch(
            0,
            &shard_edges(100),
            40,
            params,
            1,
            ShipFormat::Binary,
            None,
            32,
        );
        write_message(&mut jobs, &plan.start).unwrap();
        write_message(&mut jobs, &plan.chunks[1]).unwrap();
        let mut replies = Vec::new();
        assert!(worker_loop(&mut &jobs[..], &mut replies).is_err());

        // A crash fault on the stream kills the worker after the last
        // chunk, without a reply (acks still travel).
        let mut jobs = Vec::new();
        let plan = plan_sketch(
            0,
            &shard_edges(100),
            40,
            params,
            1,
            ShipFormat::Binary,
            Some(Fault::Crash),
            32,
        );
        write_message(&mut jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            write_message(&mut jobs, chunk).unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for _ in 0..plan.chunks.len() {
            assert!(matches!(
                read_message(&mut cursor).unwrap().0,
                Message::ChunkAck { .. }
            ));
        }
        assert!(cursor.is_empty(), "crashing stream must not reply");
    }

    #[test]
    fn old_version_frame_is_a_typed_error_not_a_hang() {
        // A version-1 frame (the version field is validated before the
        // checksum, so patching the bytes is enough to simulate an old
        // peer).
        let mut jobs = Vec::new();
        write_message(&mut jobs, &Message::Heartbeat { nonce: 1 }).unwrap();
        jobs[4] = 1;
        jobs[5] = 0;
        let mut replies = Vec::new();
        let err = worker_loop(&mut &jobs[..], &mut replies).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::Wire(coverage_sketch::WireError::UnsupportedVersion { found: 1 })
        ));
        assert!(replies.is_empty());
    }
}
