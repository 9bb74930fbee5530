//! The building blocks the dispatcher ([`crate::dispatch`]) runs on,
//! for pipe and TCP links alike:
//!
//! - [`registry`] — the worker registry: heartbeat-probe liveness
//!   grading (joining → live → suspect → dead), per-worker RTT stats,
//!   and admission of late or rejoining workers mid-run. It is the only
//!   liveness model: a pipe worker that hangs with its pipes open is as
//!   silent as a partitioned socket, so EOF alone proves nothing.
//! - [`chunk`] — chunked shard streaming: bounded `JobChunk` frames
//!   with per-chunk checksums, strict in-order ingest, and duplicate
//!   rejection by chunk index, so transfer and ingest overlap.
//!
//! The determinism contract is unchanged and non-negotiable: under any
//! fault schedule — network faults (`drop@N`, `stall<MS>@N`, `dup@N`)
//! layered over worker faults (crash/hang/delay/corrupt) — the family
//! is bit-identical to the serial executor, because shard jobs are
//! self-contained and `merge_from` is associative and commutative.

pub mod chunk;
pub mod registry;

pub use chunk::{ChunkPlan, ChunkVerdict, ChunkedBuild};
pub use registry::{HeartbeatStats, Liveness, WorkerRegistry, WorkerState, WorkerSummary};
