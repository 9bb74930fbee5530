//! The coordinator↔worker protocol of the distributed executors.
//!
//! [`ProcessRunner`](crate::ProcessRunner) (stdin/stdout pipes) and
//! [`SocketRunner`](crate::SocketRunner) (TCP) speak the same
//! length-prefixed, checksummed message frames — the same envelope
//! discipline as the snapshot wire format (`coverage_sketch::wire`),
//! under its own magic so a snapshot frame can never be confused for a
//! protocol message. The envelope reader and writer ([`read_frame`],
//! [`write_frame`]) are parameterized by a [`Framing`], so the serve
//! protocol shares them under its own magic.
//!
//! ## Frame layout (version 3)
//!
//! | offset   | size | field                                   |
//! |----------|------|-----------------------------------------|
//! | 0        | 4    | magic `b"CVPR"`                         |
//! | 4        | 2    | protocol version, `u16` LE (currently 3)|
//! | 6        | 1    | message kind                            |
//! | 7        | 1    | reserved (0)                            |
//! | 8        | 8    | payload length `u64` LE                 |
//! | 16       | len  | payload                                 |
//! | 16 + len | 8    | FNV-1a 64 checksum of bytes `0..16+len` |
//!
//! Version 2 replaced version 1's boolean `fail` flag with a
//! generalized fault descriptor (a [`Fault`] code plus argument) and
//! added the [`Message::Heartbeat`] probe. Version 3 removed the blob
//! job frames (kinds 1 and 2, one frame carrying a whole shard): every
//! shard now travels as a chunked stream, and a blob kind byte is an
//! unknown kind. A frame from either side of a version fence is
//! reported as a **typed** [`WireError::UnsupportedVersion`] — an
//! old-version worker can never look like a hang or a crash. Payloads
//! above [`MAX_FRAME_PAYLOAD`] are rejected from the header alone, and
//! a payload buffer grows only as its bytes arrive, so a lying length
//! costs what was actually sent.
//!
//! ## Conversation
//!
//! The coordinator opens a shard with a `ChunkStart*` frame (sketch
//! parameters, seed, reply encoding, optional worker [`Fault`]) and
//! streams the shard's edges or signed updates in bounded
//! [`Message::JobChunk`] frames; the worker acks each chunk once it is
//! ingested and answers the completed stream with one *reply* carrying
//! its local sketch's snapshot, encoded per the requested
//! [`ShipFormat`] (binary frames in deployment; JSON kept for
//! wire-fidelity comparisons). A [`Message::Heartbeat`] is echoed back
//! verbatim — the coordinator's liveness/version probe. A
//! [`Message::Shutdown`] — or simply closing the link — ends the worker.
//! The worker executes a stream's fault at stream completion (crash
//! without replying, hang forever, delay, or corrupt its reply frame),
//! and the coordinator observes each through a different detector —
//! EOF, the deadline reaper, nothing, or the frame checksum (see
//! `dispatch.rs`).

use std::io::{Read, Write};

use coverage_core::Edge;
use coverage_sketch::wire::{checksum64, checksum64_extend, WireReader, WireWriter};
use coverage_sketch::{
    DynamicSketchParams, DynamicSnapshot, SketchParams, SketchSnapshot, WireError,
};
use coverage_stream::SignedEdge;

use crate::fault::Fault;
use crate::rounds::ShipFormat;

/// Protocol frame magic (distinct from the snapshot frame magic).
pub const PROTO_MAGIC: [u8; 4] = *b"CVPR";
/// Current protocol version. Version 3 removed the blob job frames;
/// frames of any other version are rejected as typed
/// [`WireError::UnsupportedVersion`] errors.
pub const PROTO_VERSION: u16 = 3;

/// Hard cap on a frame's payload length. A length field above this is a
/// typed wire error detected **before** the payload buffer is allocated,
/// so a corrupt or hostile length can never balloon parent memory.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 28;

/// The envelope of the dist protocol's frames.
pub const DIST_FRAMING: Framing = Framing {
    magic: PROTO_MAGIC,
    version: PROTO_VERSION,
    max_payload: MAX_FRAME_PAYLOAD as u64,
};

/// How much of a declared payload length is trusted before any of its
/// bytes arrive; past this the buffer grows by doubling as data comes.
const FIRST_PAYLOAD_STEP: usize = 64 * 1024;

// Kinds 1 and 2 were the version-2 blob jobs; they stay unassigned.
const KIND_REPLY_SKETCH: u8 = 3;
const KIND_REPLY_DYNAMIC: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_HEARTBEAT: u8 = 6;
const KIND_CHUNK_START_SKETCH: u8 = 7;
const KIND_CHUNK_START_DYNAMIC: u8 = 8;
const KIND_JOB_CHUNK: u8 = 9;
const KIND_CHUNK_ACK: u8 = 10;

const SHIP_BINARY: u8 = 0;
const SHIP_JSON: u8 = 1;

const FAULT_NONE: u8 = 0;
const FAULT_CRASH: u8 = 1;
const FAULT_HANG: u8 = 2;
const FAULT_DELAY: u8 = 3;
const FAULT_CORRUPT: u8 = 4;
const FAULT_DROP: u8 = 5;
const FAULT_STALL: u8 = 6;
const FAULT_DUP: u8 = 7;

const CHUNK_EDGES: u8 = 0;
const CHUNK_UPDATES: u8 = 1;

/// A protocol failure: either the link broke or a frame was corrupt.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying link (pipe or socket) failed mid-frame.
    Io(std::io::Error),
    /// A frame or its payload failed validation.
    Wire(WireError),
    /// The link closed cleanly between frames (worker exit / EOF).
    Eof,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "link error: {e}"),
            ProtoError::Wire(e) => write!(f, "protocol frame error: {e}"),
            ProtoError::Eof => write!(f, "link closed"),
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

/// One protocol message.
#[derive(Clone, Debug)]
pub enum Message {
    /// Worker → parent: the local insertion-only sketch's snapshot.
    ReplySketch {
        /// The worker's local snapshot.
        snapshot: SketchSnapshot,
        /// The encoding it traveled in.
        ship: ShipFormat,
    },
    /// Worker → parent: the local dynamic sketch's snapshot.
    ReplyDynamic {
        /// The worker's local snapshot.
        snapshot: DynamicSnapshot,
        /// The encoding it traveled in.
        ship: ShipFormat,
    },
    /// Liveness/version probe. The parent sends it; a live,
    /// version-compatible worker echoes the same nonce back. An
    /// old-version worker answers with a frame the parent rejects as a
    /// typed [`WireError::UnsupportedVersion`] — never a silent hang.
    Heartbeat {
        /// Opaque echo token chosen by the sender.
        nonce: u64,
    },
    /// Coordinator → worker: open a **chunked** insertion-only shard
    /// stream: the sketch parameters, with the edges following in
    /// `chunks` bounded [`Message::JobChunk`] frames — the worker
    /// starts ingesting on the first chunk instead of waiting for the
    /// whole shard.
    ChunkStartSketch {
        /// Shard index this stream builds (echoed in every chunk/ack).
        shard: u32,
        /// How many [`Message::JobChunk`] frames follow (may be 0 for an
        /// empty shard).
        chunks: u32,
        /// Sketch parameters for the worker's local sketch.
        params: SketchParams,
        /// Shared hash seed (workers must agree to merge).
        seed: u64,
        /// How the reply snapshot travels back.
        ship: ShipFormat,
        /// Deterministic **worker** fault, executed when the last chunk
        /// has been ingested (network faults never ride in frames).
        fault: Option<Fault>,
        /// Update-batch size (parity with the in-process executors).
        batch: usize,
    },
    /// Coordinator → worker: open a chunked **dynamic** shard stream;
    /// the signed updates follow in [`Message::JobChunk`] frames.
    ChunkStartDynamic {
        /// Shard index this stream builds (echoed in every chunk/ack).
        shard: u32,
        /// How many [`Message::JobChunk`] frames follow.
        chunks: u32,
        /// Dynamic sketch parameters for the worker's local sketch.
        params: DynamicSketchParams,
        /// Shared hash seed (workers must agree to merge).
        seed: u64,
        /// How the reply snapshot travels back.
        ship: ShipFormat,
        /// Deterministic worker fault, executed at stream completion.
        fault: Option<Fault>,
        /// Update-batch size (parity with the in-process executors).
        batch: usize,
    },
    /// Coordinator → worker: one bounded slice of a chunked shard
    /// stream. Carries the shard id, its index in the stream, the total
    /// chunk count, and a payload-level FNV checksum (verified at decode
    /// on top of the frame checksum), so a duplicate, reordered, or torn
    /// chunk is always a typed observation.
    JobChunk {
        /// The shard this chunk belongs to.
        shard: u32,
        /// 0-based position in the stream; the worker ingests chunks
        /// strictly in order and rejects duplicates by this index.
        index: u32,
        /// Total chunks in the stream (repeated per chunk so a worker
        /// can validate consistency without trusting its own state).
        count: u32,
        /// The slice of the shard's payload.
        payload: ChunkPayload,
    },
    /// Worker → coordinator: chunk `index` of `shard` has been
    /// **ingested** (not merely received). The coordinator uses acks for
    /// flow control (bounded chunks in flight) and to observe that
    /// ingest started before the last chunk was sent.
    ChunkAck {
        /// The shard whose chunk was ingested.
        shard: u32,
        /// The ingested chunk's index.
        index: u32,
    },
    /// Parent → worker: exit cleanly.
    Shutdown,
}

/// The payload of one [`Message::JobChunk`]: a slice of an
/// insertion-only shard's edges or of a dynamic shard's signed updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPayload {
    /// A slice of an insertion-only shard.
    Edges(Vec<Edge>),
    /// A slice of a dynamic shard's signed updates.
    Updates(Vec<SignedEdge>),
}

impl ChunkPayload {
    /// Number of items (edges or updates) in this slice.
    pub fn len(&self) -> usize {
        match self {
            ChunkPayload::Edges(e) => e.len(),
            ChunkPayload::Updates(u) => u.len(),
        }
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn put_fault(w: &mut WireWriter, fault: &Option<Fault>) {
    let (code, arg) = match fault {
        None => (FAULT_NONE, 0),
        Some(Fault::Crash) => (FAULT_CRASH, 0),
        Some(Fault::Hang) => (FAULT_HANG, 0),
        Some(Fault::Delay(ms)) => (FAULT_DELAY, *ms),
        Some(Fault::CorruptReply) => (FAULT_CORRUPT, 0),
        // Network faults are executed by the coordinator's link writer
        // and never ride in a job frame in practice, but the codec
        // stays total so a round-trip can never panic.
        Some(Fault::DropConn) => (FAULT_DROP, 0),
        Some(Fault::Stall(ms)) => (FAULT_STALL, *ms),
        Some(Fault::DupChunk) => (FAULT_DUP, 0),
    };
    w.put_u8(code);
    w.put_varint(arg);
}

fn get_fault(r: &mut WireReader<'_>) -> Result<Option<Fault>, ProtoError> {
    let code = r.get_u8()?;
    let arg = r.get_varint()?;
    Ok(match code {
        FAULT_NONE => None,
        FAULT_CRASH => Some(Fault::Crash),
        FAULT_HANG => Some(Fault::Hang),
        FAULT_DELAY => Some(Fault::Delay(arg)),
        FAULT_CORRUPT => Some(Fault::CorruptReply),
        FAULT_DROP => Some(Fault::DropConn),
        FAULT_STALL => Some(Fault::Stall(arg)),
        FAULT_DUP => Some(Fault::DupChunk),
        _ => return Err(WireError::Malformed("unknown fault code").into()),
    })
}

fn put_ship(w: &mut WireWriter, ship: ShipFormat) {
    // In-memory shipping cannot cross a link; the runner maps it to
    // binary before dispatch, so only two codes exist on the wire.
    w.put_u8(match ship {
        ShipFormat::Json => SHIP_JSON,
        _ => SHIP_BINARY,
    });
}

fn get_ship(r: &mut WireReader<'_>) -> Result<ShipFormat, ProtoError> {
    match r.get_u8()? {
        SHIP_BINARY => Ok(ShipFormat::Binary),
        SHIP_JSON => Ok(ShipFormat::Json),
        _ => Err(WireError::Malformed("unknown ship format code").into()),
    }
}

fn put_base_params(w: &mut WireWriter, p: &SketchParams) {
    w.put_varint(p.num_sets as u64);
    w.put_varint(p.k as u64);
    w.put_u64(p.epsilon.to_bits());
    w.put_varint(p.degree_cap as u64);
    w.put_varint(p.edge_budget as u64);
    w.put_varint(p.edge_slack as u64);
    w.put_u8(p.dedup as u8);
}

fn get_base_params(r: &mut WireReader<'_>) -> Result<SketchParams, ProtoError> {
    Ok(SketchParams {
        num_sets: r.get_len()?,
        k: r.get_len()?,
        epsilon: f64::from_bits(r.get_u64()?),
        degree_cap: r.get_len()?,
        edge_budget: r.get_len()?,
        edge_slack: r.get_len()?,
        dedup: match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("dedup flag is not 0 or 1").into()),
        },
    })
}

fn get_u32v(r: &mut WireReader<'_>) -> Result<u32, ProtoError> {
    u32::try_from(r.get_varint()?)
        .map_err(|_| WireError::Malformed("chunk field exceeds u32").into())
}

fn encode_payload(msg: &Message) -> (u8, Vec<u8>) {
    let mut w = WireWriter::new();
    match msg {
        Message::ReplySketch { snapshot, ship } => {
            put_ship(&mut w, *ship);
            let encoded = match ship {
                ShipFormat::Json => snapshot.to_json().into_bytes(),
                _ => snapshot.encode_binary(),
            };
            w.put_varint(encoded.len() as u64);
            w.put_bytes(&encoded);
            (KIND_REPLY_SKETCH, w.into_bytes())
        }
        Message::ReplyDynamic { snapshot, ship } => {
            put_ship(&mut w, *ship);
            let encoded = match ship {
                ShipFormat::Json => snapshot.to_json().into_bytes(),
                _ => snapshot.encode_binary(),
            };
            w.put_varint(encoded.len() as u64);
            w.put_bytes(&encoded);
            (KIND_REPLY_DYNAMIC, w.into_bytes())
        }
        Message::Heartbeat { nonce } => {
            w.put_u64(*nonce);
            (KIND_HEARTBEAT, w.into_bytes())
        }
        Message::ChunkStartSketch {
            shard,
            chunks,
            params,
            seed,
            ship,
            fault,
            batch,
        } => {
            w.put_varint(*shard as u64);
            w.put_varint(*chunks as u64);
            put_base_params(&mut w, params);
            w.put_u64(*seed);
            put_ship(&mut w, *ship);
            put_fault(&mut w, fault);
            w.put_varint(*batch as u64);
            (KIND_CHUNK_START_SKETCH, w.into_bytes())
        }
        Message::ChunkStartDynamic {
            shard,
            chunks,
            params,
            seed,
            ship,
            fault,
            batch,
        } => {
            w.put_varint(*shard as u64);
            w.put_varint(*chunks as u64);
            put_base_params(&mut w, &params.base);
            w.put_varint(params.levels as u64);
            w.put_varint(params.rows as u64);
            w.put_varint(params.row_len as u64);
            w.put_u64(*seed);
            put_ship(&mut w, *ship);
            put_fault(&mut w, fault);
            w.put_varint(*batch as u64);
            (KIND_CHUNK_START_DYNAMIC, w.into_bytes())
        }
        Message::JobChunk {
            shard,
            index,
            count,
            payload,
        } => {
            w.put_varint(*shard as u64);
            w.put_varint(*index as u64);
            w.put_varint(*count as u64);
            // Serialize the items into their own region so a per-chunk
            // checksum can cover exactly the payload bytes.
            let mut items = WireWriter::new();
            let tag = match payload {
                ChunkPayload::Edges(edges) => {
                    items.put_varint(edges.len() as u64);
                    for e in edges {
                        items.put_varint(e.set.0 as u64);
                        items.put_varint(e.element.0);
                    }
                    CHUNK_EDGES
                }
                ChunkPayload::Updates(updates) => {
                    items.put_varint(updates.len() as u64);
                    for u in updates {
                        items.put_u8(if u.sign() >= 0 { 0 } else { 1 });
                        items.put_varint(u.edge.set.0 as u64);
                        items.put_varint(u.edge.element.0);
                    }
                    CHUNK_UPDATES
                }
            };
            let items = items.into_bytes();
            w.put_u8(tag);
            w.put_u64(checksum64(&items));
            w.put_varint(items.len() as u64);
            w.put_bytes(&items);
            (KIND_JOB_CHUNK, w.into_bytes())
        }
        Message::ChunkAck { shard, index } => {
            w.put_varint(*shard as u64);
            w.put_varint(*index as u64);
            (KIND_CHUNK_ACK, w.into_bytes())
        }
        Message::Shutdown => (KIND_SHUTDOWN, Vec::new()),
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, ProtoError> {
    let mut r = WireReader::new(payload);
    let msg = match kind {
        KIND_REPLY_SKETCH => {
            let ship = get_ship(&mut r)?;
            let len = r.get_len()?;
            let encoded = r.get_bytes(len)?;
            let snapshot = match ship {
                ShipFormat::Json => {
                    let text = std::str::from_utf8(encoded)
                        .map_err(|_| WireError::Malformed("reply JSON is not UTF-8"))?;
                    SketchSnapshot::from_json(text)
                        .map_err(|_| WireError::Malformed("reply JSON does not parse"))?
                }
                _ => SketchSnapshot::decode_binary(encoded)?,
            };
            Message::ReplySketch { snapshot, ship }
        }
        KIND_REPLY_DYNAMIC => {
            let ship = get_ship(&mut r)?;
            let len = r.get_len()?;
            let encoded = r.get_bytes(len)?;
            let snapshot = match ship {
                ShipFormat::Json => {
                    let text = std::str::from_utf8(encoded)
                        .map_err(|_| WireError::Malformed("reply JSON is not UTF-8"))?;
                    DynamicSnapshot::from_json(text)
                        .map_err(|_| WireError::Malformed("reply JSON does not parse"))?
                }
                _ => DynamicSnapshot::decode_binary(encoded)?,
            };
            Message::ReplyDynamic { snapshot, ship }
        }
        KIND_HEARTBEAT => Message::Heartbeat {
            nonce: r.get_u64()?,
        },
        KIND_CHUNK_START_SKETCH => {
            let shard = get_u32v(&mut r)?;
            let chunks = get_u32v(&mut r)?;
            let params = get_base_params(&mut r)?;
            let seed = r.get_u64()?;
            let ship = get_ship(&mut r)?;
            let fault = get_fault(&mut r)?;
            let batch = r.get_len()?;
            Message::ChunkStartSketch {
                shard,
                chunks,
                params,
                seed,
                ship,
                fault,
                batch,
            }
        }
        KIND_CHUNK_START_DYNAMIC => {
            let shard = get_u32v(&mut r)?;
            let chunks = get_u32v(&mut r)?;
            let base = get_base_params(&mut r)?;
            let params = DynamicSketchParams {
                base,
                levels: r.get_len()?,
                rows: r.get_len()?,
                row_len: r.get_len()?,
            };
            let seed = r.get_u64()?;
            let ship = get_ship(&mut r)?;
            let fault = get_fault(&mut r)?;
            let batch = r.get_len()?;
            Message::ChunkStartDynamic {
                shard,
                chunks,
                params,
                seed,
                ship,
                fault,
                batch,
            }
        }
        KIND_JOB_CHUNK => {
            let shard = get_u32v(&mut r)?;
            let index = get_u32v(&mut r)?;
            let count = get_u32v(&mut r)?;
            let tag = r.get_u8()?;
            let sum = r.get_u64()?;
            let len = r.get_len()?;
            let items = r.get_bytes(len)?;
            if checksum64(items) != sum {
                return Err(WireError::ChecksumMismatch.into());
            }
            let mut ir = WireReader::new(items);
            let n = ir.get_len()?;
            if n > ir.remaining() {
                return Err(WireError::Malformed("chunk item count exceeds payload size").into());
            }
            let payload = match tag {
                CHUNK_EDGES => {
                    let mut edges = Vec::with_capacity(n);
                    for _ in 0..n {
                        let set = u32::try_from(ir.get_varint()?)
                            .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                        edges.push(Edge::new(set, ir.get_varint()?));
                    }
                    ChunkPayload::Edges(edges)
                }
                CHUNK_UPDATES => {
                    let mut updates = Vec::with_capacity(n);
                    for _ in 0..n {
                        let sign = ir.get_u8()?;
                        let set = u32::try_from(ir.get_varint()?)
                            .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                        let edge = Edge::new(set, ir.get_varint()?);
                        updates.push(match sign {
                            0 => SignedEdge::insert(edge),
                            1 => SignedEdge::delete(edge),
                            _ => return Err(WireError::Malformed("unknown update sign").into()),
                        });
                    }
                    ChunkPayload::Updates(updates)
                }
                _ => return Err(WireError::Malformed("unknown chunk payload tag").into()),
            };
            if !ir.is_done() {
                return Err(WireError::Malformed("leftover chunk payload bytes").into());
            }
            Message::JobChunk {
                shard,
                index,
                count,
                payload,
            }
        }
        KIND_CHUNK_ACK => Message::ChunkAck {
            shard: get_u32v(&mut r)?,
            index: get_u32v(&mut r)?,
        },
        KIND_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::UnknownKind { found: other }.into()),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes").into());
    }
    Ok(msg)
}

/// The envelope of one framed protocol: its magic, its version, and
/// the cap on a frame's declared payload length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Framing {
    /// The four bytes every frame starts with.
    pub magic: [u8; 4],
    /// The only version a reader accepts.
    pub version: u16,
    /// Largest payload length a header may declare.
    pub max_payload: u64,
}

impl Framing {
    fn header(&self, kind: u8, payload_len: usize) -> [u8; 16] {
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(&self.magic);
        header[4..6].copy_from_slice(&self.version.to_le_bytes());
        header[6] = kind;
        header[8..].copy_from_slice(&(payload_len as u64).to_le_bytes());
        header
    }
}

/// Write one frame: header, `payload`, and the checksum trailer folded
/// over both where they lie. Returns the total bytes written.
pub fn write_frame(
    out: &mut impl Write,
    framing: &Framing,
    kind: u8,
    payload: &[u8],
) -> Result<u64, ProtoError> {
    let header = framing.header(kind, payload.len());
    let sum = checksum64_extend(checksum64(&header), payload);
    write_parts(out, &header, payload, &sum.to_le_bytes())
}

fn write_parts(
    out: &mut impl Write,
    header: &[u8; 16],
    payload: &[u8],
    sum: &[u8; 8],
) -> Result<u64, ProtoError> {
    out.write_all(header)?;
    out.write_all(payload)?;
    out.write_all(sum)?;
    out.flush()?;
    Ok(16 + payload.len() as u64 + 8)
}

/// Read one frame, returning its kind byte, its payload, and the total
/// bytes consumed.
///
/// Returns [`ProtoError::Eof`] when the link closes cleanly *between*
/// frames; a link that dies mid-frame is an [`ProtoError::Io`] of kind
/// `UnexpectedEof`, and a frame that fails validation (magic, version,
/// length cap, checksum) is a [`ProtoError::Wire`]. The payload buffer
/// grows only as bytes arrive, so a header that lies about its length
/// commits memory in proportion to what was actually sent.
pub fn read_frame(
    input: &mut impl Read,
    framing: &Framing,
) -> Result<(u8, Vec<u8>, u64), ProtoError> {
    let mut header = [0u8; 16];
    // Distinguish clean EOF (no bytes at all) from a mid-frame cut.
    let mut got = 0usize;
    while got < header.len() {
        match input.read(&mut header[got..])? {
            0 if got == 0 => return Err(ProtoError::Eof),
            0 => return Err(mid_frame_eof()),
            n => got += n,
        }
    }
    if header[0..4] != framing.magic {
        return Err(WireError::BadMagic.into());
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != framing.version {
        return Err(WireError::UnsupportedVersion { found: version }.into());
    }
    let payload_len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if payload_len > framing.max_payload {
        return Err(WireError::Malformed("frame payload exceeds the size cap").into());
    }
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| WireError::Malformed("payload length exceeds the address space"))?;
    let mut payload = Vec::new();
    read_payload(input, payload_len, &mut payload)?;
    let mut sum = [0u8; 8];
    input.read_exact(&mut sum)?;
    if checksum64_extend(checksum64(&header), &payload) != u64::from_le_bytes(sum) {
        return Err(WireError::ChecksumMismatch.into());
    }
    Ok((header[6], payload, 16 + payload_len as u64 + 8))
}

fn mid_frame_eof() -> ProtoError {
    ProtoError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "link closed mid-frame",
    ))
}

/// Append exactly `len` bytes from `input` to `buf`, reserving in
/// doubling steps (first [`FIRST_PAYLOAD_STEP`], never past `len`) so
/// the buffer's capacity stays within `2 × received + FIRST_PAYLOAD_STEP`.
fn read_payload(input: &mut impl Read, len: usize, buf: &mut Vec<u8>) -> Result<(), ProtoError> {
    while buf.len() < len {
        let step = (len - buf.len()).min(buf.len().max(FIRST_PAYLOAD_STEP));
        buf.reserve_exact(step);
        if input.by_ref().take(step as u64).read_to_end(buf)? < step {
            return Err(mid_frame_eof());
        }
    }
    Ok(())
}

/// Write one framed message, returning the total bytes put on the link.
pub fn write_message(out: &mut impl Write, msg: &Message) -> Result<u64, ProtoError> {
    let (kind, payload) = encode_payload(msg);
    write_frame(out, &DIST_FRAMING, kind, &payload)
}

/// Write `msg` as a frame with exactly one bit flipped in its payload
/// (or, for an empty payload, in its checksum), deterministically
/// positioned by `seed` — the executable [`Fault::CorruptReply`]. The
/// checksum is computed over the *pristine* frame and the flip lands in
/// the payload region (never the header), so the receiver is guaranteed
/// a typed [`WireError::ChecksumMismatch`] — never silently merged
/// garbage.
pub fn write_corrupted_message(
    out: &mut impl Write,
    msg: &Message,
    seed: u64,
) -> Result<u64, ProtoError> {
    let (kind, mut payload) = encode_payload(msg);
    let header = DIST_FRAMING.header(kind, payload.len());
    let mut sum = checksum64_extend(checksum64(&header), &payload).to_le_bytes();
    if payload.is_empty() {
        sum[(seed % 8) as usize] ^= 1 << ((seed / 8) % 8);
    } else {
        let at = seed as usize % payload.len();
        payload[at] ^= 1 << ((seed / 7) % 8);
    }
    write_parts(out, &header, &payload, &sum)
}

/// Read one framed message, returning it with the total bytes consumed
/// (see [`read_frame`] for the error taxonomy).
pub fn read_message(input: &mut impl Read) -> Result<(Message, u64), ProtoError> {
    let (kind, payload, total) = read_frame(input, &DIST_FRAMING)?;
    Ok((decode_payload(kind, &payload)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_sketch::ThresholdSketch;
    use coverage_stream::VecStream;

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        let written = write_message(&mut buf, msg).unwrap();
        assert_eq!(written as usize, buf.len());
        let mut cursor = &buf[..];
        let (back, read) = read_message(&mut cursor).unwrap();
        assert_eq!(read, written);
        assert!(cursor.is_empty());
        back
    }

    #[test]
    fn every_fault_kind_roundtrips() {
        for fault in [
            Some(Fault::Crash),
            Some(Fault::Hang),
            Some(Fault::Delay(1234)),
            Some(Fault::CorruptReply),
            Some(Fault::DropConn),
            Some(Fault::Stall(77)),
            Some(Fault::DupChunk),
            None,
        ] {
            let msg = Message::ChunkStartSketch {
                shard: 0,
                chunks: 1,
                params: SketchParams::with_budget(4, 1, 0.5, 40),
                seed: 3,
                ship: ShipFormat::Binary,
                fault,
                batch: 16,
            };
            match roundtrip(&msg) {
                Message::ChunkStartSketch { fault: back, .. } => assert_eq!(back, fault),
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn dynamic_stream_frames_roundtrip_params_fault_and_signs() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(3, 1, 0.5, 50));
        let start = Message::ChunkStartDynamic {
            shard: 2,
            chunks: 1,
            params,
            seed: 7,
            ship: ShipFormat::Json,
            fault: Some(Fault::Crash),
            batch: 512,
        };
        match roundtrip(&start) {
            Message::ChunkStartDynamic {
                params: p,
                seed,
                ship,
                fault,
                batch,
                ..
            } => {
                assert_eq!(p, params);
                assert_eq!((seed, batch), (7, 512));
                assert_eq!(fault, Some(Fault::Crash));
                assert_eq!(ship, ShipFormat::Json);
            }
            other => panic!("wrong message: {other:?}"),
        }
        let chunk = Message::JobChunk {
            shard: 2,
            index: 0,
            count: 1,
            payload: ChunkPayload::Updates(vec![
                SignedEdge::insert(Edge::new(1u32, 10u64)),
                SignedEdge::delete(Edge::new(1u32, 10u64)),
            ]),
        };
        match roundtrip(&chunk) {
            Message::JobChunk {
                payload: ChunkPayload::Updates(updates),
                ..
            } => {
                assert_eq!(updates.len(), 2);
                assert!(updates[0].sign() > 0);
                assert!(updates[1].sign() < 0);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn blob_job_kinds_are_unknown_since_version_3() {
        for kind in [1u8, 2] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &DIST_FRAMING, kind, &[0u8; 4]).unwrap();
            assert!(matches!(
                read_message(&mut &buf[..]),
                Err(ProtoError::Wire(WireError::UnknownKind { found })) if found == kind
            ));
        }
    }

    #[test]
    fn replies_roundtrip_in_both_encodings() {
        let params = SketchParams::with_budget(4, 2, 0.5, 80);
        let edges: Vec<Edge> = (0..200u64).map(|e| Edge::new((e % 4) as u32, e)).collect();
        let sketch = ThresholdSketch::from_stream(params, 11, &VecStream::new(4, edges));
        let snapshot = SketchSnapshot::of(&sketch);
        for ship in [ShipFormat::Binary, ShipFormat::Json] {
            let msg = Message::ReplySketch {
                snapshot: snapshot.clone(),
                ship,
            };
            match roundtrip(&msg) {
                Message::ReplySketch { snapshot: back, .. } => assert_eq!(back, snapshot),
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_roundtrips() {
        assert!(matches!(roundtrip(&Message::Shutdown), Message::Shutdown));
    }

    #[test]
    fn heartbeat_roundtrips_its_nonce() {
        match roundtrip(&Message::Heartbeat { nonce: 0xDEAD_BEEF }) {
            Message::Heartbeat { nonce } => assert_eq!(nonce, 0xDEAD_BEEF),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn chunk_frames_roundtrip() {
        let start = Message::ChunkStartSketch {
            shard: 3,
            chunks: 7,
            params: SketchParams::with_budget(6, 2, 0.5, 100),
            seed: 42,
            ship: ShipFormat::Binary,
            fault: Some(Fault::Delay(5)),
            batch: 4096,
        };
        match roundtrip(&start) {
            Message::ChunkStartSketch {
                shard,
                chunks,
                params,
                seed,
                ship,
                fault,
                batch,
            } => {
                assert_eq!((shard, chunks, seed, batch), (3, 7, 42, 4096));
                assert_eq!(params, SketchParams::with_budget(6, 2, 0.5, 100));
                assert_eq!(ship, ShipFormat::Binary);
                assert_eq!(fault, Some(Fault::Delay(5)));
            }
            other => panic!("wrong message: {other:?}"),
        }
        let dstart = Message::ChunkStartDynamic {
            shard: 1,
            chunks: 2,
            params: DynamicSketchParams::new(SketchParams::with_budget(3, 1, 0.5, 50)),
            seed: 9,
            ship: ShipFormat::Json,
            fault: None,
            batch: 64,
        };
        match roundtrip(&dstart) {
            Message::ChunkStartDynamic { shard, chunks, .. } => {
                assert_eq!((shard, chunks), (1, 2));
            }
            other => panic!("wrong message: {other:?}"),
        }
        let chunk = Message::JobChunk {
            shard: 3,
            index: 2,
            count: 7,
            payload: ChunkPayload::Edges(vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)]),
        };
        match roundtrip(&chunk) {
            Message::JobChunk {
                shard,
                index,
                count,
                payload,
            } => {
                assert_eq!((shard, index, count), (3, 2, 7));
                assert_eq!(
                    payload,
                    ChunkPayload::Edges(vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)])
                );
            }
            other => panic!("wrong message: {other:?}"),
        }
        let dchunk = Message::JobChunk {
            shard: 1,
            index: 0,
            count: 2,
            payload: ChunkPayload::Updates(vec![
                SignedEdge::insert(Edge::new(1u32, 10u64)),
                SignedEdge::delete(Edge::new(1u32, 10u64)),
            ]),
        };
        match roundtrip(&dchunk) {
            Message::JobChunk {
                payload: ChunkPayload::Updates(u),
                ..
            } => {
                assert!(u[0].sign() > 0 && u[1].sign() < 0);
            }
            other => panic!("wrong message: {other:?}"),
        }
        match roundtrip(&Message::ChunkAck { shard: 5, index: 4 }) {
            Message::ChunkAck { shard, index } => assert_eq!((shard, index), (5, 4)),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn chunk_payload_checksum_catches_item_corruption() {
        // Corrupt an item byte but fix up the frame checksum, simulating
        // corruption that slipped past the outer envelope: the inner
        // per-chunk checksum must still catch it.
        let msg = Message::JobChunk {
            shard: 0,
            index: 0,
            count: 1,
            payload: ChunkPayload::Edges((0..50u64).map(|e| Edge::new(1u32, e)).collect()),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let body_len = buf.len() - 8;
        buf[body_len - 1] ^= 0x40;
        let sum = checksum64(&buf[..body_len]).to_le_bytes();
        buf[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            read_message(&mut &buf[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
    }

    /// A reader that returns at most one byte per `read` call — the
    /// worst-case TCP segmentation, which never respects frame
    /// boundaries the way pipe writes mostly do.
    struct OneByteReader<'a>(&'a [u8]);

    impl std::io::Read for OneByteReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn every_message_decodes_from_a_one_byte_at_a_time_reader() {
        let params = SketchParams::with_budget(4, 2, 0.5, 80);
        let edges: Vec<Edge> = (0..200u64).map(|e| Edge::new((e % 4) as u32, e)).collect();
        let sketch = ThresholdSketch::from_stream(params, 11, &VecStream::new(4, edges.clone()));
        let messages = vec![
            Message::ChunkStartDynamic {
                shard: 1,
                chunks: 1,
                params: DynamicSketchParams::new(params),
                seed: 7,
                ship: ShipFormat::Json,
                fault: Some(Fault::Delay(3)),
                batch: 32,
            },
            Message::JobChunk {
                shard: 1,
                index: 0,
                count: 1,
                payload: ChunkPayload::Updates(vec![SignedEdge::insert(Edge::new(1u32, 2u64))]),
            },
            Message::ReplySketch {
                snapshot: SketchSnapshot::of(&sketch),
                ship: ShipFormat::Binary,
            },
            Message::Heartbeat { nonce: u64::MAX },
            Message::ChunkStartSketch {
                shard: 2,
                chunks: 3,
                params,
                seed: 1,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 16,
            },
            Message::JobChunk {
                shard: 2,
                index: 1,
                count: 3,
                payload: ChunkPayload::Edges(edges),
            },
            Message::ChunkAck { shard: 2, index: 1 },
            Message::Shutdown,
        ];
        // All frames concatenated through the 1-byte reader decode in
        // order and byte-for-byte.
        let mut buf = Vec::new();
        for m in &messages {
            write_message(&mut buf, m).unwrap();
        }
        let mut reader = OneByteReader(&buf);
        for m in &messages {
            let (back, _) = read_message(&mut reader).unwrap();
            let mut a = Vec::new();
            let mut b = Vec::new();
            write_message(&mut a, m).unwrap();
            write_message(&mut b, &back).unwrap();
            assert_eq!(a, b, "short-read decode must be byte-identical");
        }
        assert!(matches!(read_message(&mut reader), Err(ProtoError::Eof)));
    }

    #[test]
    fn old_version_frames_are_typed_not_fatal() {
        // Hand-craft a version-1 frame: take a valid frame, rewrite the
        // version field, and re-checksum — exactly the bytes an
        // old-version worker would produce.
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        let body_len = buf.len() - 8;
        buf[4] = 1;
        buf[5] = 0;
        let sum = checksum64(&buf[..body_len]).to_le_bytes();
        buf[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            read_message(&mut &buf[..]),
            Err(ProtoError::Wire(WireError::UnsupportedVersion { found: 1 }))
        ));
    }

    #[test]
    fn corrupted_writer_output_is_a_typed_checksum_error() {
        let msg = Message::JobChunk {
            shard: 0,
            index: 0,
            count: 1,
            payload: ChunkPayload::Edges(vec![Edge::new(0u32, 1u64), Edge::new(2u32, 3u64)]),
        };
        for seed in 0u64..32 {
            let mut buf = Vec::new();
            let written = write_corrupted_message(&mut buf, &msg, seed).unwrap();
            assert_eq!(written as usize, buf.len());
            match read_message(&mut &buf[..]) {
                Err(ProtoError::Wire(_)) => {}
                other => {
                    panic!("seed {seed}: corrupt frame must be a typed wire error, got {other:?}")
                }
            }
        }
        // Empty payload: the flip lands in the checksum trailer.
        let mut buf = Vec::new();
        write_corrupted_message(&mut buf, &Message::Shutdown, 11).unwrap();
        assert!(matches!(
            read_message(&mut &buf[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        // A 16-byte header claiming a payload beyond the cap, with
        // nothing behind it: if the reader tried to allocate/read it,
        // this would be an Io error — the cap must fire first.
        let mut header = Vec::new();
        header.extend_from_slice(&PROTO_MAGIC);
        header.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        header.push(KIND_SHUTDOWN);
        header.push(0);
        header.extend_from_slice(&((MAX_FRAME_PAYLOAD as u64 + 1).to_le_bytes()));
        assert!(matches!(
            read_message(&mut &header[..]),
            Err(ProtoError::Wire(WireError::Malformed(_)))
        ));
    }

    #[test]
    fn a_lying_length_commits_only_the_bytes_that_arrive() {
        // A header claiming the cap, then 1 KiB, then EOF: a typed
        // mid-frame truncation, after committing memory for what
        // arrived rather than for what the header promised.
        let mut frame = DIST_FRAMING
            .header(KIND_SHUTDOWN, MAX_FRAME_PAYLOAD)
            .to_vec();
        frame.extend(std::iter::repeat_n(7u8, 1024));
        match read_message(&mut &frame[..]) {
            Err(ProtoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("a truncated payload must be a mid-frame cut: {other:?}"),
        }
        let mut payload = Vec::new();
        assert!(read_payload(&mut &frame[16..], MAX_FRAME_PAYLOAD, &mut payload).is_err());
        assert_eq!(payload.len(), 1024);
        assert!(
            payload.capacity() <= 2 * 1024 + FIRST_PAYLOAD_STEP,
            "capacity {} must track the bytes received",
            payload.capacity()
        );
    }

    #[test]
    fn empty_pipe_is_clean_eof() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_message(&mut empty), Err(ProtoError::Eof)));
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_message(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::BadMagic))
        ));
        // Version bump.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            read_message(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::UnsupportedVersion { found: 9 }))
        ));
        // Payload-area corruption → checksum. (Shutdown has no payload;
        // flip a checksum byte instead.)
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            read_message(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
        // Mid-frame cut → Io, not Eof.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_message(&mut &cut[..]),
            Err(ProtoError::Io(_))
        ));
    }
}
