//! Versioned binary wire format for sketch snapshots.
//!
//! JSON snapshots ([`SketchSnapshot::to_json`],
//! [`DynamicSnapshot::to_json`]) are the readable interchange format; this
//! module is the *deployable* one — the compact, length-prefixed,
//! checksummed frames the distributed executors ship between worker
//! processes (`coverage-dist`).
//!
//! ## Frame layout (version 1)
//!
//! | offset        | size | field                                     |
//! |---------------|------|-------------------------------------------|
//! | 0             | 4    | magic `b"CVSK"`                           |
//! | 4             | 2    | format version, `u16` LE (currently 1)    |
//! | 6             | 1    | payload kind (1 = threshold, 2 = dynamic) |
//! | 7             | 1    | flags (see below)                         |
//! | 8             | 8    | payload length `u64` LE                   |
//! | 16            | len  | payload                                   |
//! | 16 + len      | 8    | FNV-1a 64 checksum of bytes `0..16+len`   |
//!
//! Version policy: the version is bumped whenever the payload encoding
//! changes incompatibly; decoders reject frames from any other version
//! with [`WireError::UnsupportedVersion`] rather than guessing. Flags are
//! per-kind encoding options (today: bit 0 = explicit hashes, bit 1 = raw
//! keys, both threshold-only); unknown flag bits are rejected so future
//! options cannot be silently misread.
//!
//! ## Decoding is total
//!
//! [`decode_binary`](SketchSnapshot::decode_binary) never panics:
//! corrupt input of every class maps to a typed [`WireError`] — bad
//! magic, unknown version or kind, truncation, trailing bytes, checksum
//! mismatch, malformed payload structure, or a payload that parses but
//! violates a sketch invariant (an entry hashing above the acceptance
//! bound, a degree-cap overflow, an impossible cell geometry). The
//! validation order is fixed so each corruption class reports its own
//! error: magic → version → kind → length → checksum → payload structure
//! → semantic invariants. A successfully decoded snapshot satisfies every
//! precondition of `restore()`, so `decode → restore` cannot panic.
//!
//! ## Payload encodings
//!
//! The threshold payload exploits snapshot canonical form: entry keys are
//! strictly increasing, so they are delta-encoded as LEB128 varints;
//! per-entry hashes are *omitted* entirely (the hash is always
//! `h(key)` under the snapshot's seeded [`UnitHash`], so the decoder
//! recomputes them); set ids are varints; `truncated` flags pack into a
//! bitset. The dynamic payload is sparse: only non-zero cells are
//! written (index-gap varints + zigzag sums), which is what makes deep,
//! mostly-empty level banks cheap to ship.

use coverage_hash::UnitHash;

use crate::dynamic::{Cell, DynamicCounters, DynamicSketchParams, DynamicSnapshot};
use crate::params::SketchParams;
use crate::serial::{SketchSnapshot, SnapshotEntry};
use crate::threshold::SketchCounters;

/// Frame magic: the first four bytes of every snapshot frame.
pub const WIRE_MAGIC: [u8; 4] = *b"CVSK";
/// Current (and only) frame format version.
pub const WIRE_VERSION: u16 = 1;
/// Fixed header size: magic + version + kind + flags + payload length.
pub const HEADER_LEN: usize = 16;
/// Trailing checksum size.
pub const CHECKSUM_LEN: usize = 8;

/// Threshold-payload flag: per-entry hashes are stored explicitly
/// (written only for non-canonical snapshots whose hashes differ from
/// `h(key)`; never produced by [`SketchSnapshot::of`]).
const FLAG_EXPLICIT_HASHES: u8 = 1 << 0;
/// Threshold-payload flag: entry keys are stored as raw varints instead
/// of deltas (written only when keys are not strictly increasing).
const FLAG_RAW_KEYS: u8 = 1 << 1;

/// Upper bound on the cell count a decoded dynamic frame may declare —
/// rejects corrupt geometry before it turns into a giant allocation.
const MAX_WIRE_CELLS: usize = 1 << 28;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// A [`SketchSnapshot`] (insertion-only threshold sketch).
    Threshold,
    /// A [`DynamicSnapshot`] (insert/delete linear sketch).
    Dynamic,
}

impl PayloadKind {
    fn code(self) -> u8 {
        match self {
            PayloadKind::Threshold => 1,
            PayloadKind::Dynamic => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(PayloadKind::Threshold),
            2 => Some(PayloadKind::Dynamic),
            _ => None,
        }
    }
}

/// Typed decode failure. Every corruption class has its own variant so
/// callers (and the corruption tests) can assert the *reason* a frame
/// was rejected, and none of them panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame's format version is not [`WIRE_VERSION`].
    UnsupportedVersion {
        /// The version the frame declared.
        found: u16,
    },
    /// The frame's payload-kind byte names no known payload.
    UnknownKind {
        /// The kind byte the frame declared.
        found: u8,
    },
    /// The frame is valid but carries the other snapshot type.
    WrongKind {
        /// The kind the caller asked to decode.
        expected: PayloadKind,
        /// The kind the frame actually carries.
        found: PayloadKind,
    },
    /// The buffer is shorter than the frame it declares.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The buffer is longer than the frame it declares.
    TrailingBytes,
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch,
    /// The payload structure cannot be parsed (bad varint, impossible
    /// count, unknown flag bits, leftover payload bytes, …).
    Malformed(&'static str),
    /// The payload parsed but violates a sketch invariant that
    /// `restore()` would otherwise panic on.
    Invariant(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (expected {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind { found } => write!(f, "unknown payload kind {found}"),
            WireError::WrongKind { expected, found } => {
                write!(f, "frame carries {found:?}, expected {expected:?}")
            }
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::TrailingBytes => write!(f, "trailing bytes after frame"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Invariant(what) => write!(f, "payload violates sketch invariant: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit checksum (the frame trailer).
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a 64-bit checksum over more bytes:
/// `checksum64_extend(checksum64(a), b)` equals the checksum of `a`
/// followed by `b`, so a frame's header and payload can be checksummed
/// where they lie instead of being copied into one buffer.
pub fn checksum64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian byte writer shared by the snapshot codec
/// and the subprocess protocol in `coverage-dist`.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append an LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a zigzag-mapped signed varint.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Consume the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte reader — the decoding twin of
/// [`WireWriter`]. Every getter returns [`WireError::Malformed`] instead
/// of panicking when the buffer runs out.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte is consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed("payload ends mid-field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read an LEB128 varint (rejects encodings past 10 bytes and
    /// overflowing continuations).
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.get_u8()?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(WireError::Malformed("varint overflows 64 bits"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Malformed("varint longer than 10 bytes"))
    }

    /// Read a zigzag-mapped signed varint.
    pub fn get_zigzag(&mut self) -> Result<i64, WireError> {
        let v = self.get_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read a varint and narrow it to `usize`.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_varint()?)
            .map_err(|_| WireError::Malformed("length exceeds the address space"))
    }
}

/// Wrap `payload` in a version-1 frame of the given kind and flags.
fn encode_frame(kind: PayloadKind, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&WIRE_MAGIC);
    w.put_u16(WIRE_VERSION);
    w.put_u8(kind.code());
    w.put_u8(flags);
    w.put_u64(payload.len() as u64);
    w.put_bytes(payload);
    let sum = checksum64(&w.buf);
    w.put_u64(sum);
    w.into_bytes()
}

/// Validate a frame's envelope and return `(kind, flags, payload)`.
///
/// Validation order (each corruption class gets its own error): size of
/// the fixed parts → magic → version → kind → declared length vs buffer
/// → checksum. Payload structure and semantics are the caller's job.
fn decode_frame(bytes: &[u8]) -> Result<(PayloadKind, u8, &[u8]), WireError> {
    let floor = HEADER_LEN + CHECKSUM_LEN;
    if bytes.len() < floor {
        return Err(WireError::Truncated {
            needed: floor,
            have: bytes.len(),
        });
    }
    if bytes[0..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let kind =
        PayloadKind::from_code(bytes[6]).ok_or(WireError::UnknownKind { found: bytes[6] })?;
    let flags = bytes[7];
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let needed = usize::try_from(payload_len)
        .ok()
        .and_then(|p| p.checked_add(floor))
        .ok_or(WireError::Truncated {
            needed: usize::MAX,
            have: bytes.len(),
        })?;
    if bytes.len() < needed {
        return Err(WireError::Truncated {
            needed,
            have: bytes.len(),
        });
    }
    if bytes.len() > needed {
        return Err(WireError::TrailingBytes);
    }
    let body_end = needed - CHECKSUM_LEN;
    let declared = u64::from_le_bytes(bytes[body_end..needed].try_into().unwrap());
    if checksum64(&bytes[..body_end]) != declared {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((kind, flags, &bytes[HEADER_LEN..body_end]))
}

/// The kind a frame carries, validating the whole envelope (magic,
/// version, length, checksum) along the way.
pub fn frame_kind(bytes: &[u8]) -> Result<PayloadKind, WireError> {
    decode_frame(bytes).map(|(kind, _, _)| kind)
}

fn put_params(w: &mut WireWriter, p: &SketchParams) {
    w.put_varint(p.num_sets as u64);
    w.put_varint(p.k as u64);
    w.put_u64(p.epsilon.to_bits());
    w.put_varint(p.degree_cap as u64);
    w.put_varint(p.edge_budget as u64);
    w.put_varint(p.edge_slack as u64);
    w.put_u8(p.dedup as u8);
}

fn get_params(r: &mut WireReader<'_>) -> Result<SketchParams, WireError> {
    let num_sets = r.get_len()?;
    let k = r.get_len()?;
    let epsilon = f64::from_bits(r.get_u64()?);
    let degree_cap = r.get_len()?;
    let edge_budget = r.get_len()?;
    let edge_slack = r.get_len()?;
    let dedup = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("dedup flag is not 0 or 1")),
    };
    Ok(SketchParams {
        num_sets,
        k,
        epsilon,
        degree_cap,
        edge_budget,
        edge_slack,
        dedup,
    })
}

impl SketchSnapshot {
    /// Encode into a version-1 binary frame.
    ///
    /// Canonical snapshots (as produced by [`SketchSnapshot::of`]) get
    /// the compact encoding: delta-varint keys, recomputable hashes
    /// omitted. Non-canonical snapshots (hand-built, unsorted, or with
    /// hashes that differ from `h(key)`) still encode losslessly via the
    /// `FLAG_RAW_KEYS` / `FLAG_EXPLICIT_HASHES` fallbacks — encoding is
    /// total, it never panics.
    pub fn encode_binary(&self) -> Vec<u8> {
        let sorted = self.entries.windows(2).all(|w| w[0].key < w[1].key);
        let hash = UnitHash::from_raw_seed(self.raw_seed);
        let canonical_hashes = self.entries.iter().all(|e| e.hash == hash.hash(e.key));
        let mut flags = 0u8;
        if !canonical_hashes {
            flags |= FLAG_EXPLICIT_HASHES;
        }
        if !sorted {
            flags |= FLAG_RAW_KEYS;
        }

        let mut w = WireWriter::new();
        w.put_u64(self.raw_seed);
        put_params(&mut w, &self.params);
        w.put_u64(self.bound);
        w.put_varint(self.counters.arrivals);
        w.put_varint(self.counters.rejected_by_bound);
        w.put_varint(self.counters.rejected_by_cap);
        w.put_varint(self.counters.duplicates);
        w.put_varint(self.counters.evictions);
        w.put_varint(self.entries.len() as u64);
        if sorted {
            let mut prev = 0u64;
            for (i, e) in self.entries.iter().enumerate() {
                w.put_varint(if i == 0 { e.key } else { e.key - prev });
                prev = e.key;
            }
        } else {
            for e in &self.entries {
                w.put_varint(e.key);
            }
        }
        if !canonical_hashes {
            for e in &self.entries {
                w.put_u64(e.hash);
            }
        }
        for e in &self.entries {
            w.put_varint(e.sets.len() as u64);
            for &s in &e.sets {
                w.put_varint(s as u64);
            }
        }
        let mut bits = vec![0u8; self.entries.len().div_ceil(8)];
        for (i, e) in self.entries.iter().enumerate() {
            if e.truncated {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        w.put_bytes(&bits);
        encode_frame(PayloadKind::Threshold, flags, &w.into_bytes())
    }

    /// Decode a binary frame produced by
    /// [`encode_binary`](Self::encode_binary).
    ///
    /// Total: every corruption maps to a typed [`WireError`]. On success
    /// the snapshot satisfies every `restore()` precondition (entries
    /// hash at or below the bound, degree cap respected), so
    /// `decode_binary(..)?.restore()` cannot panic.
    pub fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, flags, payload) = decode_frame(bytes)?;
        if kind != PayloadKind::Threshold {
            return Err(WireError::WrongKind {
                expected: PayloadKind::Threshold,
                found: kind,
            });
        }
        if flags & !(FLAG_EXPLICIT_HASHES | FLAG_RAW_KEYS) != 0 {
            return Err(WireError::Malformed("unknown flag bits"));
        }
        let explicit_hashes = flags & FLAG_EXPLICIT_HASHES != 0;
        let raw_keys = flags & FLAG_RAW_KEYS != 0;

        let mut r = WireReader::new(payload);
        let raw_seed = r.get_u64()?;
        let params = get_params(&mut r)?;
        let bound = r.get_u64()?;
        let counters = SketchCounters {
            arrivals: r.get_varint()?,
            rejected_by_bound: r.get_varint()?,
            rejected_by_cap: r.get_varint()?,
            duplicates: r.get_varint()?,
            evictions: r.get_varint()?,
        };
        let n = r.get_len()?;
        // Each entry costs at least one key byte, so a count beyond the
        // remaining payload cannot be honest — refuse before allocating.
        if n > r.remaining() {
            return Err(WireError::Malformed("entry count exceeds payload size"));
        }
        let mut keys = Vec::with_capacity(n);
        if raw_keys {
            for _ in 0..n {
                keys.push(r.get_varint()?);
            }
        } else {
            let mut prev = 0u64;
            for i in 0..n {
                let v = r.get_varint()?;
                let key = if i == 0 {
                    v
                } else {
                    if v == 0 {
                        return Err(WireError::Malformed("delta keys not strictly increasing"));
                    }
                    prev.checked_add(v)
                        .ok_or(WireError::Malformed("delta key overflows u64"))?
                };
                keys.push(key);
                prev = key;
            }
        }
        let hash = UnitHash::from_raw_seed(raw_seed);
        let hashes: Vec<u64> = if explicit_hashes {
            let mut hs = Vec::with_capacity(n);
            for _ in 0..n {
                hs.push(r.get_u64()?);
            }
            hs
        } else {
            keys.iter().map(|&k| hash.hash(k)).collect()
        };
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let len = r.get_len()?;
            if len > r.remaining() {
                return Err(WireError::Malformed("set count exceeds payload size"));
            }
            let mut sets = Vec::with_capacity(len);
            for _ in 0..len {
                let s = r.get_varint()?;
                let s = u32::try_from(s).map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                sets.push(s);
            }
            entries.push(SnapshotEntry {
                key: keys[i],
                hash: hashes[i],
                sets,
                truncated: false,
            });
        }
        let bits = r.get_bytes(n.div_ceil(8))?;
        for (i, e) in entries.iter_mut().enumerate() {
            e.truncated = bits[i / 8] >> (i % 8) & 1 == 1;
        }
        if !r.is_done() {
            return Err(WireError::Malformed("leftover payload bytes"));
        }
        // Semantic invariants: everything `restore()` would panic on.
        for e in &entries {
            if e.hash > bound {
                return Err(WireError::Invariant(
                    "entry hashes above the acceptance bound",
                ));
            }
            if e.sets.len() > params.degree_cap {
                return Err(WireError::Invariant("entry exceeds the degree cap"));
            }
        }
        Ok(SketchSnapshot {
            raw_seed,
            params,
            bound,
            entries,
            counters,
        })
    }
}

impl DynamicSnapshot {
    /// Encode into a version-1 binary frame.
    ///
    /// Sparse: only non-zero cells are written (index gaps + zigzag
    /// sums), so deep mostly-empty level banks cost almost nothing.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.raw_seed);
        put_params(&mut w, &self.params.base);
        w.put_varint(self.params.levels as u64);
        w.put_varint(self.params.rows as u64);
        w.put_varint(self.params.row_len as u64);
        w.put_varint(self.counters.inserts);
        w.put_varint(self.counters.deletes);
        let cells = self.cells();
        let nonzero = cells.iter().filter(|c| !c.is_zero()).count();
        w.put_varint(nonzero as u64);
        let mut prev = 0usize;
        let mut first = true;
        for (i, c) in cells.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            w.put_varint(if first { i as u64 } else { (i - prev) as u64 });
            first = false;
            prev = i;
            w.put_zigzag(c.count);
            w.put_zigzag(c.set_sum as i64);
            w.put_zigzag(c.elem_sum as i64);
            w.put_u64(c.check_sum);
        }
        encode_frame(PayloadKind::Dynamic, 0, &w.into_bytes())
    }

    /// Decode a binary frame produced by
    /// [`encode_binary`](Self::encode_binary).
    ///
    /// Total: every corruption maps to a typed [`WireError`], and the
    /// declared cell geometry is validated (level/row bounds, checked
    /// size arithmetic) so `decode_binary(..)?.restore()` cannot panic.
    pub fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, flags, payload) = decode_frame(bytes)?;
        if kind != PayloadKind::Dynamic {
            return Err(WireError::WrongKind {
                expected: PayloadKind::Dynamic,
                found: kind,
            });
        }
        if flags != 0 {
            return Err(WireError::Malformed("unknown flag bits"));
        }
        let mut r = WireReader::new(payload);
        let raw_seed = r.get_u64()?;
        let base = get_params(&mut r)?;
        let levels = r.get_len()?;
        let rows = r.get_len()?;
        let row_len = r.get_len()?;
        // The geometry bounds `DynamicSketch::with_hash` asserts, plus a
        // total-size cap so a corrupt frame cannot demand a giant
        // allocation.
        if !(1..=48).contains(&levels) {
            return Err(WireError::Invariant("levels outside 1..=48"));
        }
        if !(1..=8).contains(&rows) {
            return Err(WireError::Invariant("rows outside 1..=8"));
        }
        if row_len == 0 {
            return Err(WireError::Invariant("row_len is zero"));
        }
        let total = levels
            .checked_mul(rows)
            .and_then(|x| x.checked_mul(row_len))
            .filter(|&t| t <= MAX_WIRE_CELLS)
            .ok_or(WireError::Invariant("cell geometry too large"))?;
        let params = DynamicSketchParams {
            base,
            levels,
            rows,
            row_len,
        };
        let counters = DynamicCounters {
            inserts: r.get_varint()?,
            deletes: r.get_varint()?,
        };
        let nonzero = r.get_len()?;
        if nonzero > total {
            return Err(WireError::Malformed("non-zero cell count exceeds geometry"));
        }
        if nonzero > r.remaining() {
            return Err(WireError::Malformed(
                "non-zero cell count exceeds payload size",
            ));
        }
        let mut cells = vec![Cell::default(); total];
        let mut idx = 0usize;
        for i in 0..nonzero {
            let gap = r.get_len()?;
            if i == 0 {
                idx = gap;
            } else {
                if gap == 0 {
                    return Err(WireError::Malformed("cell indices not strictly increasing"));
                }
                idx = idx
                    .checked_add(gap)
                    .ok_or(WireError::Malformed("cell index overflows"))?;
            }
            if idx >= total {
                return Err(WireError::Malformed("cell index outside geometry"));
            }
            cells[idx] = Cell {
                count: r.get_zigzag()?,
                set_sum: r.get_zigzag()? as u64,
                elem_sum: r.get_zigzag()? as u64,
                check_sum: r.get_u64()?,
            };
        }
        if !r.is_done() {
            return Err(WireError::Malformed("leftover payload bytes"));
        }
        Ok(DynamicSnapshot::from_parts(
            raw_seed, params, counters, cells,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicSketch;
    use crate::threshold::ThresholdSketch;
    use coverage_core::Edge;
    use coverage_stream::{SignedEdge, VecDynamicStream, VecStream};

    fn sample_snapshot() -> SketchSnapshot {
        let params = SketchParams::with_budget(8, 2, 0.5, 150);
        let mut edges = Vec::new();
        for s in 0..8u32 {
            for e in 0..400u64 {
                if !(e + s as u64).is_multiple_of(3) {
                    edges.push(Edge::new(s, e * 17 + s as u64));
                }
            }
        }
        let sketch = ThresholdSketch::from_stream(params, 42, &VecStream::new(8, edges));
        SketchSnapshot::of(&sketch)
    }

    fn sample_dynamic_snapshot() -> DynamicSnapshot {
        let base = SketchParams::with_budget(5, 2, 0.5, 120);
        let params = DynamicSketchParams::new(base);
        let mut ups = Vec::new();
        for s in 0..5u32 {
            for e in 0..300u64 {
                ups.push(SignedEdge::insert(Edge::new(s, e * 3 + s as u64)));
            }
        }
        for s in 0..5u32 {
            for e in 0..300u64 {
                if e % 4 == 0 {
                    ups.push(SignedEdge::delete(Edge::new(s, e * 3 + s as u64)));
                }
            }
        }
        let sketch = DynamicSketch::from_stream(params, 9, &VecDynamicStream::new(5, ups));
        DynamicSnapshot::of(&sketch)
    }

    #[test]
    fn threshold_roundtrip_is_bit_identical() {
        let snap = sample_snapshot();
        let frame = snap.encode_binary();
        let back = SketchSnapshot::decode_binary(&frame).expect("valid frame");
        assert_eq!(back, snap);
        assert_eq!(
            back.restore().canonical_content(),
            snap.restore().canonical_content()
        );
    }

    #[test]
    fn dynamic_roundtrip_is_bit_identical() {
        let snap = sample_dynamic_snapshot();
        let frame = snap.encode_binary();
        let back = DynamicSnapshot::decode_binary(&frame).expect("valid frame");
        assert_eq!(back, snap);
        let (a, b) = (
            snap.restore().recover().unwrap(),
            back.restore().recover().unwrap(),
        );
        assert_eq!(a.level, b.level);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let snap = sample_snapshot();
        let bin = snap.encode_binary().len();
        let json = snap.to_json().len();
        assert!(
            bin * 5 <= json,
            "binary {bin}B should be at least 5x smaller than JSON {json}B"
        );
        let dsnap = sample_dynamic_snapshot();
        let dbin = dsnap.encode_binary().len();
        let djson = dsnap.to_json().len();
        assert!(
            dbin * 5 <= djson,
            "dynamic binary {dbin}B should be at least 5x smaller than JSON {djson}B"
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let params = SketchParams::with_budget(3, 1, 0.5, 10);
        let sketch = ThresholdSketch::new(params, 1);
        let snap = SketchSnapshot::of(&sketch);
        let back = SketchSnapshot::decode_binary(&snap.encode_binary()).unwrap();
        assert_eq!(back, snap);
        let d = DynamicSketch::new(DynamicSketchParams::new(params), 1);
        let dsnap = DynamicSnapshot::of(&d);
        let dback = DynamicSnapshot::decode_binary(&dsnap.encode_binary()).unwrap();
        assert_eq!(dback, dsnap);
    }

    #[test]
    fn non_canonical_snapshots_still_roundtrip() {
        // Hand-built snapshot: unsorted keys AND hashes that are not
        // h(key) — both fallback flags engage, round-trip stays exact.
        let params = SketchParams::with_budget(4, 1, 0.5, 10);
        let snap = SketchSnapshot {
            raw_seed: 123,
            params,
            bound: u64::MAX,
            entries: vec![
                SnapshotEntry {
                    key: 50,
                    hash: 7,
                    sets: vec![1, 3],
                    truncated: true,
                },
                SnapshotEntry {
                    key: 10,
                    hash: 9,
                    sets: vec![0],
                    truncated: false,
                },
            ],
            counters: SketchCounters::default(),
        };
        let back = SketchSnapshot::decode_binary(&snap.encode_binary()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut frame = sample_snapshot().encode_binary();
        frame[0] ^= 0xff;
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::BadMagic)
        );
    }

    #[test]
    fn rejects_version_bump() {
        let mut frame = sample_snapshot().encode_binary();
        frame[4] = 2;
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::UnsupportedVersion { found: 2 })
        );
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut frame = sample_snapshot().encode_binary();
        frame[6] = 9;
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::UnknownKind { found: 9 })
        );
    }

    #[test]
    fn rejects_wrong_kind() {
        let frame = sample_dynamic_snapshot().encode_binary();
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::WrongKind {
                expected: PayloadKind::Threshold,
                found: PayloadKind::Dynamic,
            })
        );
        let frame = sample_snapshot().encode_binary();
        assert_eq!(
            DynamicSnapshot::decode_binary(&frame),
            Err(WireError::WrongKind {
                expected: PayloadKind::Dynamic,
                found: PayloadKind::Threshold,
            })
        );
    }

    #[test]
    fn rejects_every_truncation_length() {
        let frame = sample_snapshot().encode_binary();
        for cut in 0..frame.len() {
            let err = SketchSnapshot::decode_binary(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut frame = sample_snapshot().encode_binary();
        frame.push(0);
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn payload_bit_flips_hit_the_checksum() {
        let frame = sample_snapshot().encode_binary();
        for &offset in &[HEADER_LEN, HEADER_LEN + 7, frame.len() - CHECKSUM_LEN - 1] {
            let mut bad = frame.clone();
            bad[offset] ^= 0x40;
            assert_eq!(
                SketchSnapshot::decode_binary(&bad),
                Err(WireError::ChecksumMismatch),
                "flip at {offset}"
            );
        }
    }

    #[test]
    fn invariant_violations_are_typed_not_panics() {
        // Entry above the bound: re-encode a corrupt snapshot via the
        // explicit-hash fallback, then decode must refuse.
        let mut snap = sample_snapshot();
        assert!(!snap.entries.is_empty());
        snap.entries[0].hash = u64::MAX;
        snap.bound = 1;
        let frame = snap.encode_binary();
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::Invariant(
                "entry hashes above the acceptance bound"
            ))
        );
        // Degree-cap overflow.
        let mut snap = sample_snapshot();
        snap.entries[0].sets = (0..snap.params.degree_cap as u32 + 1).collect();
        let frame = snap.encode_binary();
        assert_eq!(
            SketchSnapshot::decode_binary(&frame),
            Err(WireError::Invariant("entry exceeds the degree cap"))
        );
    }

    #[test]
    fn frame_kind_reports_payload_type() {
        assert_eq!(
            frame_kind(&sample_snapshot().encode_binary()),
            Ok(PayloadKind::Threshold)
        );
        assert_eq!(
            frame_kind(&sample_dynamic_snapshot().encode_binary()),
            Ok(PayloadKind::Dynamic)
        );
        assert_eq!(
            frame_kind(b"nope"),
            Err(WireError::Truncated {
                needed: 24,
                have: 4
            })
        );
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        let mut w = WireWriter::new();
        let us = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let is = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &us {
            w.put_varint(v);
        }
        for &v in &is {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for &v in &us {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
        assert!(r.is_done());
    }

    #[test]
    fn decoded_dynamic_restore_matches_original() {
        let snap = sample_dynamic_snapshot();
        let restored = DynamicSnapshot::decode_binary(&snap.encode_binary())
            .unwrap()
            .restore();
        let original = snap.restore();
        let mut a = restored.clone();
        let mut b = original.clone();
        let extra = SignedEdge::insert(Edge::new(1u32, 987_654u64));
        a.update(extra);
        b.update(extra);
        assert_eq!(
            DynamicSnapshot::of(&a),
            DynamicSnapshot::of(&b),
            "restored sketch must keep evolving identically"
        );
    }
}
