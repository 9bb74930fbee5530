//! The client↔daemon pipe protocol of the serving subsystem.
//!
//! Same envelope as the dist worker protocol — the frames are read and
//! written by `coverage_dist::proto::{read_frame, write_frame}` under
//! [`SERVE_FRAMING`] — with its own magic so a serve frame can never be
//! confused with a dist frame or a snapshot (`coverage_sketch::wire`).
//!
//! ## Frame layout (version 2)
//!
//! | offset   | size | field                                   |
//! |----------|------|-----------------------------------------|
//! | 0        | 4    | magic `b"CVSV"`                         |
//! | 4        | 2    | protocol version, `u16` LE (currently 2)|
//! | 6        | 1    | frame kind                              |
//! | 7        | 1    | reserved (0)                            |
//! | 8        | 8    | payload length `u64` LE                 |
//! | 16       | len  | payload                                 |
//! | 16 + len | 8    | FNV-1a 64 checksum of bytes `0..16+len` |
//!
//! ## Conversation
//!
//! Clients send [`Request`] frames; the daemon answers with [`Reply`]
//! frames matched by the request's `id`. [`Request::Update`] is
//! fire-and-forget (no reply on success; a rejected batch — e.g. a
//! delete in insertion-only mode — answers [`Reply::Error`]). Requests
//! are handled strictly in arrival order, so replies arrive in request
//! order. [`Request::Shutdown`] drains the engine and answers one
//! final [`Reply::Stats`]; closing the pipe drains without a reply.
//! Snapshot responses carry `coverage_sketch::wire` binary frames
//! (magic `CVSK`) as opaque payload bytes.

use std::io::{Read, Write};

use coverage_core::SetId;
use coverage_dist::proto::{read_frame, write_frame, Framing};
use coverage_dist::{RoundCost, RoundsReport};
use coverage_sketch::wire::{WireReader, WireWriter};
use coverage_sketch::WireError;
use coverage_stream::SignedEdge;

use crate::engine::{QueryAnswer, ServeError, ServeStats};

/// Serve frame magic (distinct from snapshot `CVSK` and dist `CVPR`).
pub const SERVE_MAGIC: [u8; 4] = *b"CVSV";
/// Current serve protocol version (2 added the degraded-mode flag to
/// stats payloads).
pub const SERVE_VERSION: u16 = 2;

/// Hard ceiling on a frame's declared payload length, checked *before*
/// the payload buffer is allocated so a corrupt or hostile length field
/// cannot trigger an enormous allocation.
pub const MAX_SERVE_PAYLOAD: u64 = 1 << 28;

/// The envelope of serve frames.
pub const SERVE_FRAMING: Framing = Framing {
    magic: SERVE_MAGIC,
    version: SERVE_VERSION,
    max_payload: MAX_SERVE_PAYLOAD,
};

const KIND_UPDATE: u8 = 1;
const KIND_QUERY: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_FLUSH: u8 = 4;
const KIND_SNAPSHOT: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;
const KIND_REPLY_QUERY: u8 = 64;
const KIND_REPLY_STATS: u8 = 65;
const KIND_REPLY_FLUSH: u8 = 66;
const KIND_REPLY_SNAPSHOT: u8 = 67;
const KIND_REPLY_ERROR: u8 = 68;

/// A serve protocol failure.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying pipe failed mid-frame.
    Io(std::io::Error),
    /// A frame or its payload failed validation.
    Wire(WireError),
    /// The pipe closed cleanly between frames (client hangup).
    Eof,
    /// The engine refused an operation (e.g. already shut down).
    Engine(ServeError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "pipe error: {e}"),
            ProtoError::Wire(e) => write!(f, "serve frame error: {e}"),
            ProtoError::Eof => write!(f, "pipe closed"),
            ProtoError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

impl From<coverage_dist::ProtoError> for ProtoError {
    fn from(e: coverage_dist::ProtoError) -> Self {
        match e {
            coverage_dist::ProtoError::Io(e) => ProtoError::Io(e),
            coverage_dist::ProtoError::Wire(e) => ProtoError::Wire(e),
            coverage_dist::ProtoError::Eof => ProtoError::Eof,
        }
    }
}

impl From<ServeError> for ProtoError {
    fn from(e: ServeError) -> Self {
        ProtoError::Engine(e)
    }
}

/// Client → daemon.
#[derive(Clone, Debug)]
pub enum Request {
    /// Stream a batch of signed updates into the live store. No reply
    /// on success; [`Reply::Error`] (same `id`) on rejection.
    Update {
        /// Echoed in an error reply if the batch is rejected.
        id: u64,
        /// The signed updates, in intended application order.
        updates: Vec<SignedEdge>,
    },
    /// Answer `k`-cover on the freshest published snapshot.
    Query {
        /// Reply correlation id.
        id: u64,
        /// Target family size.
        k: usize,
    },
    /// Report the engine's counters.
    Stats {
        /// Reply correlation id.
        id: u64,
    },
    /// Publish everything applied so far as a fresh epoch.
    Flush {
        /// Reply correlation id.
        id: u64,
    },
    /// Publish, then ship binary snapshots of the live store.
    Snapshot {
        /// Reply correlation id.
        id: u64,
    },
    /// Drain the queue, publish a final epoch, answer [`Reply::Stats`],
    /// and exit.
    Shutdown {
        /// Reply correlation id.
        id: u64,
    },
}

/// Daemon → client.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Answer to a [`Request::Query`].
    Query {
        /// The request's id.
        id: u64,
        /// The epoch-tagged deterministic answer.
        answer: QueryAnswer,
    },
    /// Answer to a [`Request::Stats`] or [`Request::Shutdown`].
    Stats {
        /// The request's id.
        id: u64,
        /// Counters at reply time (final counters for a shutdown).
        stats: ServeStats,
    },
    /// Answer to a [`Request::Flush`].
    Flush {
        /// The request's id.
        id: u64,
        /// The epoch now published.
        epoch: u64,
        /// Updates visible at that epoch.
        updates_applied: u64,
    },
    /// Answer to a [`Request::Snapshot`].
    Snapshot {
        /// The request's id.
        id: u64,
        /// The epoch the snapshots were exported at.
        epoch: u64,
        /// One `coverage_sketch::wire` binary frame per live sketch.
        frames: Vec<Vec<u8>>,
    },
    /// A rejected request (bad update batch, unknown operation, …).
    Error {
        /// The offending request's id.
        id: u64,
        /// Human-readable rejection reason.
        message: String,
    },
}

fn put_updates(w: &mut WireWriter, updates: &[SignedEdge]) {
    w.put_varint(updates.len() as u64);
    for u in updates {
        w.put_u8(if u.sign() >= 0 { 0 } else { 1 });
        w.put_varint(u.edge.set.0 as u64);
        w.put_varint(u.edge.element.0);
    }
}

fn get_updates(r: &mut WireReader<'_>) -> Result<Vec<SignedEdge>, ProtoError> {
    let n = r.get_len()?;
    if n > r.remaining() {
        return Err(WireError::Malformed("update count exceeds payload size").into());
    }
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        let sign = r.get_u8()?;
        let set = u32::try_from(r.get_varint()?)
            .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
        let edge = coverage_core::Edge::new(set, r.get_varint()?);
        updates.push(match sign {
            0 => SignedEdge::insert(edge),
            1 => SignedEdge::delete(edge),
            _ => return Err(WireError::Malformed("unknown update sign").into()),
        });
    }
    Ok(updates)
}

fn put_answer(w: &mut WireWriter, a: &QueryAnswer) {
    w.put_varint(a.epoch);
    w.put_varint(a.updates_applied);
    w.put_varint(a.guess_index as u64);
    w.put_varint(a.guess_k as u64);
    w.put_varint(a.family.len() as u64);
    for s in &a.family {
        w.put_varint(s.0 as u64);
    }
    w.put_varint(a.sketch_coverage as u64);
    w.put_u64(a.estimate.to_bits());
    w.put_u64(a.sampling_p.to_bits());
}

fn get_answer(r: &mut WireReader<'_>) -> Result<QueryAnswer, ProtoError> {
    let epoch = r.get_varint()?;
    let updates_applied = r.get_varint()?;
    let guess_index = r.get_len()?;
    let guess_k = r.get_len()?;
    let len = r.get_len()?;
    if len > r.remaining() {
        return Err(WireError::Malformed("family length exceeds payload size").into());
    }
    let mut family = Vec::with_capacity(len);
    for _ in 0..len {
        let s = u32::try_from(r.get_varint()?)
            .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
        family.push(SetId(s));
    }
    Ok(QueryAnswer {
        epoch,
        updates_applied,
        guess_index,
        guess_k,
        family,
        sketch_coverage: r.get_len()?,
        estimate: f64::from_bits(r.get_u64()?),
        sampling_p: f64::from_bits(r.get_u64()?),
    })
}

fn put_stats(w: &mut WireWriter, s: &ServeStats) {
    w.put_varint(s.epoch);
    w.put_varint(s.epochs_published);
    w.put_varint(s.publish_failures);
    w.put_varint(s.updates_enqueued);
    w.put_varint(s.updates_applied);
    w.put_varint(s.published_updates);
    w.put_varint(s.queries_served);
    w.put_u8(u8::from(s.degraded));
    w.put_varint(s.report.rounds.len() as u64);
    for r in &s.report.rounds {
        w.put_varint(r.sketches_in as u64);
        w.put_varint(r.sketches_out as u64);
        w.put_varint(r.words_shipped);
        w.put_varint(r.bytes_shipped);
    }
}

fn get_stats(r: &mut WireReader<'_>) -> Result<ServeStats, ProtoError> {
    let epoch = r.get_varint()?;
    let epochs_published = r.get_varint()?;
    let publish_failures = r.get_varint()?;
    let updates_enqueued = r.get_varint()?;
    let updates_applied = r.get_varint()?;
    let published_updates = r.get_varint()?;
    let queries_served = r.get_varint()?;
    let degraded = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("unknown degraded flag").into()),
    };
    let n = r.get_len()?;
    if n > r.remaining() {
        return Err(WireError::Malformed("round count exceeds payload size").into());
    }
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(RoundCost {
            sketches_in: r.get_len()?,
            sketches_out: r.get_len()?,
            words_shipped: r.get_varint()?,
            bytes_shipped: r.get_varint()?,
        });
    }
    Ok(ServeStats {
        epoch,
        epochs_published,
        publish_failures,
        updates_enqueued,
        updates_applied,
        published_updates,
        queries_served,
        degraded,
        report: RoundsReport { rounds },
    })
}

fn encode_request(msg: &Request) -> (u8, Vec<u8>) {
    let mut w = WireWriter::new();
    match msg {
        Request::Update { id, updates } => {
            w.put_varint(*id);
            put_updates(&mut w, updates);
            (KIND_UPDATE, w.into_bytes())
        }
        Request::Query { id, k } => {
            w.put_varint(*id);
            w.put_varint(*k as u64);
            (KIND_QUERY, w.into_bytes())
        }
        Request::Stats { id } => {
            w.put_varint(*id);
            (KIND_STATS, w.into_bytes())
        }
        Request::Flush { id } => {
            w.put_varint(*id);
            (KIND_FLUSH, w.into_bytes())
        }
        Request::Snapshot { id } => {
            w.put_varint(*id);
            (KIND_SNAPSHOT, w.into_bytes())
        }
        Request::Shutdown { id } => {
            w.put_varint(*id);
            (KIND_SHUTDOWN, w.into_bytes())
        }
    }
}

fn decode_request(kind: u8, payload: &[u8]) -> Result<Request, ProtoError> {
    let mut r = WireReader::new(payload);
    let msg = match kind {
        KIND_UPDATE => {
            let id = r.get_varint()?;
            let updates = get_updates(&mut r)?;
            Request::Update { id, updates }
        }
        KIND_QUERY => Request::Query {
            id: r.get_varint()?,
            k: r.get_len()?,
        },
        KIND_STATS => Request::Stats {
            id: r.get_varint()?,
        },
        KIND_FLUSH => Request::Flush {
            id: r.get_varint()?,
        },
        KIND_SNAPSHOT => Request::Snapshot {
            id: r.get_varint()?,
        },
        KIND_SHUTDOWN => Request::Shutdown {
            id: r.get_varint()?,
        },
        other => return Err(WireError::UnknownKind { found: other }.into()),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes").into());
    }
    Ok(msg)
}

fn encode_reply(msg: &Reply) -> (u8, Vec<u8>) {
    let mut w = WireWriter::new();
    match msg {
        Reply::Query { id, answer } => {
            w.put_varint(*id);
            put_answer(&mut w, answer);
            (KIND_REPLY_QUERY, w.into_bytes())
        }
        Reply::Stats { id, stats } => {
            w.put_varint(*id);
            put_stats(&mut w, stats);
            (KIND_REPLY_STATS, w.into_bytes())
        }
        Reply::Flush {
            id,
            epoch,
            updates_applied,
        } => {
            w.put_varint(*id);
            w.put_varint(*epoch);
            w.put_varint(*updates_applied);
            (KIND_REPLY_FLUSH, w.into_bytes())
        }
        Reply::Snapshot { id, epoch, frames } => {
            w.put_varint(*id);
            w.put_varint(*epoch);
            w.put_varint(frames.len() as u64);
            for frame in frames {
                w.put_varint(frame.len() as u64);
                w.put_bytes(frame);
            }
            (KIND_REPLY_SNAPSHOT, w.into_bytes())
        }
        Reply::Error { id, message } => {
            w.put_varint(*id);
            w.put_varint(message.len() as u64);
            w.put_bytes(message.as_bytes());
            (KIND_REPLY_ERROR, w.into_bytes())
        }
    }
}

fn decode_reply(kind: u8, payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut r = WireReader::new(payload);
    let msg = match kind {
        KIND_REPLY_QUERY => {
            let id = r.get_varint()?;
            let answer = get_answer(&mut r)?;
            Reply::Query { id, answer }
        }
        KIND_REPLY_STATS => {
            let id = r.get_varint()?;
            let stats = get_stats(&mut r)?;
            Reply::Stats { id, stats }
        }
        KIND_REPLY_FLUSH => Reply::Flush {
            id: r.get_varint()?,
            epoch: r.get_varint()?,
            updates_applied: r.get_varint()?,
        },
        KIND_REPLY_SNAPSHOT => {
            let id = r.get_varint()?;
            let epoch = r.get_varint()?;
            let n = r.get_len()?;
            if n > r.remaining() {
                return Err(WireError::Malformed("frame count exceeds payload size").into());
            }
            let mut frames = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.get_len()?;
                frames.push(r.get_bytes(len)?.to_vec());
            }
            Reply::Snapshot { id, epoch, frames }
        }
        KIND_REPLY_ERROR => {
            let id = r.get_varint()?;
            let len = r.get_len()?;
            let bytes = r.get_bytes(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?
                .to_string();
            Reply::Error { id, message }
        }
        other => return Err(WireError::UnknownKind { found: other }.into()),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes").into());
    }
    Ok(msg)
}

/// Write one framed request; returns the bytes put on the pipe.
pub fn write_request(out: &mut impl Write, msg: &Request) -> Result<u64, ProtoError> {
    let (kind, payload) = encode_request(msg);
    Ok(write_frame(out, &SERVE_FRAMING, kind, &payload)?)
}

/// Read one framed request ([`ProtoError::Eof`] on clean hangup).
pub fn read_request(input: &mut impl Read) -> Result<(Request, u64), ProtoError> {
    let (kind, payload, total) = read_frame(input, &SERVE_FRAMING)?;
    Ok((decode_request(kind, &payload)?, total))
}

/// Write one framed reply; returns the bytes put on the pipe.
pub fn write_reply(out: &mut impl Write, msg: &Reply) -> Result<u64, ProtoError> {
    let (kind, payload) = encode_reply(msg);
    Ok(write_frame(out, &SERVE_FRAMING, kind, &payload)?)
}

/// Read one framed reply ([`ProtoError::Eof`] on clean hangup).
pub fn read_reply(input: &mut impl Read) -> Result<(Reply, u64), ProtoError> {
    let (kind, payload, total) = read_frame(input, &SERVE_FRAMING)?;
    Ok((decode_reply(kind, &payload)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::Edge;

    fn roundtrip_request(msg: &Request) -> Request {
        let mut buf = Vec::new();
        let written = write_request(&mut buf, msg).unwrap();
        assert_eq!(written as usize, buf.len());
        let mut cursor = &buf[..];
        let (back, read) = read_request(&mut cursor).unwrap();
        assert_eq!(read, written);
        assert!(cursor.is_empty());
        back
    }

    fn roundtrip_reply(msg: &Reply) -> Reply {
        let mut buf = Vec::new();
        let written = write_reply(&mut buf, msg).unwrap();
        let (back, read) = read_reply(&mut &buf[..]).unwrap();
        assert_eq!(read, written);
        back
    }

    #[test]
    fn update_roundtrips_signs() {
        let msg = Request::Update {
            id: 9,
            updates: vec![
                SignedEdge::insert(Edge::new(3u32, 17u64)),
                SignedEdge::delete(Edge::new(3u32, 17u64)),
                SignedEdge::insert(Edge::new(0u32, u64::MAX)),
            ],
        };
        match roundtrip_request(&msg) {
            Request::Update { id, updates } => {
                assert_eq!(id, 9);
                assert_eq!(updates.len(), 3);
                assert!(updates[0].sign() > 0);
                assert!(updates[1].sign() < 0);
                assert_eq!(updates[2].edge, Edge::new(0u32, u64::MAX));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn control_requests_roundtrip() {
        for (msg, want_id) in [
            (Request::Query { id: 1, k: 4 }, 1),
            (Request::Stats { id: 2 }, 2),
            (Request::Flush { id: 3 }, 3),
            (Request::Snapshot { id: 4 }, 4),
            (Request::Shutdown { id: 5 }, 5),
        ] {
            let back = roundtrip_request(&msg);
            let id = match back {
                Request::Update { id, .. }
                | Request::Query { id, .. }
                | Request::Stats { id }
                | Request::Flush { id }
                | Request::Snapshot { id }
                | Request::Shutdown { id } => id,
            };
            assert_eq!(id, want_id);
        }
    }

    #[test]
    fn query_reply_roundtrips_bit_exactly() {
        let answer = QueryAnswer {
            epoch: 7,
            updates_applied: 4_000,
            guess_index: 2,
            guess_k: 4,
            family: vec![SetId(5), SetId(0), SetId(31)],
            sketch_coverage: 1234,
            estimate: 9876.5,
            sampling_p: 0.125,
        };
        match roundtrip_reply(&Reply::Query {
            id: 11,
            answer: answer.clone(),
        }) {
            Reply::Query { id, answer: back } => {
                assert_eq!(id, 11);
                assert!(back.bit_eq(&answer));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn stats_reply_roundtrips_rounds() {
        let stats = ServeStats {
            epoch: 3,
            epochs_published: 3,
            publish_failures: 1,
            updates_enqueued: 500,
            updates_applied: 480,
            published_updates: 400,
            queries_served: 42,
            degraded: true,
            report: RoundsReport {
                rounds: vec![
                    RoundCost {
                        sketches_in: 8,
                        sketches_out: 8,
                        words_shipped: 999,
                        bytes_shipped: 0,
                    },
                    RoundCost {
                        sketches_in: 8,
                        sketches_out: 8,
                        words_shipped: 1234,
                        bytes_shipped: 777,
                    },
                ],
            },
        };
        match roundtrip_reply(&Reply::Stats {
            id: 1,
            stats: stats.clone(),
        }) {
            Reply::Stats { stats: back, .. } => {
                assert_eq!(back.epoch, 3);
                assert!(back.degraded);
                assert_eq!(back.staleness(), 80);
                assert_eq!(back.queue_lag(), 20);
                assert_eq!(back.report.rounds, stats.report.rounds);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn snapshot_and_error_replies_roundtrip() {
        match roundtrip_reply(&Reply::Snapshot {
            id: 2,
            epoch: 5,
            frames: vec![vec![1, 2, 3], vec![], vec![255; 64]],
        }) {
            Reply::Snapshot { epoch, frames, .. } => {
                assert_eq!(epoch, 5);
                assert_eq!(frames.len(), 3);
                assert_eq!(frames[2].len(), 64);
            }
            other => panic!("wrong message: {other:?}"),
        }
        match roundtrip_reply(&Reply::Error {
            id: 3,
            message: "no deletes in insert-only mode".into(),
        }) {
            Reply::Error { id, message } => {
                assert_eq!(id, 3);
                assert!(message.contains("insert-only"));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Stats { id: 1 }).unwrap();
        let mut empty: &[u8] = &[];
        assert!(matches!(read_request(&mut empty), Err(ProtoError::Eof)));
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_request(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::BadMagic))
        ));
        let mut bad = buf.clone();
        bad[4] = 7;
        assert!(matches!(
            read_request(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::UnsupportedVersion { found: 7 }))
        ));
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            read_request(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_request(&mut &cut[..]),
            Err(ProtoError::Io(_))
        ));
        // A dist worker frame (CVPR) must be rejected by magic.
        let mut cvpr = buf.clone();
        cvpr[0..4].copy_from_slice(b"CVPR");
        assert!(matches!(
            read_request(&mut &cvpr[..]),
            Err(ProtoError::Wire(_))
        ));
    }

    #[test]
    fn a_lying_length_is_a_mid_frame_cut_not_an_allocation() {
        // A header claiming the cap with only 1 KiB behind it: the
        // shared reader reports the truncation after reading what
        // arrived, without first committing the claimed 256 MiB.
        let mut raw = Vec::new();
        raw.extend_from_slice(&SERVE_MAGIC);
        raw.extend_from_slice(&SERVE_VERSION.to_le_bytes());
        raw.extend_from_slice(&[KIND_STATS, 0]);
        raw.extend_from_slice(&MAX_SERVE_PAYLOAD.to_le_bytes());
        raw.extend(std::iter::repeat_n(0u8, 1024));
        match read_request(&mut &raw[..]) {
            Err(ProtoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected a mid-frame cut, got {other:?}"),
        }
    }
}
