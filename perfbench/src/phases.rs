//! The end-to-end phases: one timed rep of each public entry point,
//! with its output checked. Every check that fails counts as a failed
//! operation.

use std::hint::black_box;
use std::time::Instant;

use coverage_algs::{
    dynamic_k_cover, k_cover_streaming, set_cover_outliers, DynamicKCoverConfig, KCoverConfig,
    OutlierConfig,
};
use coverage_core::SetId;
use coverage_dist::{ParallelRunner, ProcessRunner, SocketRunner, WorkerCommand};
use coverage_sketch::SketchSizing;
use coverage_stream::EdgeStream;

use crate::workload::{
    hash_seed, Inputs, Spec, EPSILON, K, SETCOVER_EPSILON, SETCOVER_LAMBDA, WORKERS,
};

/// The end-to-end phases, in the order every round runs them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    Kcover,
    Setcover,
    Dynamic,
    DistThreads,
    DistPipes,
    DistSockets,
    Serve,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Kcover,
        Phase::Setcover,
        Phase::Dynamic,
        Phase::DistThreads,
        Phase::DistPipes,
        Phase::DistSockets,
        Phase::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Kcover => "kcover",
            Phase::Setcover => "setcover",
            Phase::Dynamic => "dynamic",
            Phase::DistThreads => "dist_threads",
            Phase::DistPipes => "dist_pipes",
            Phase::DistSockets => "dist_sockets",
            Phase::Serve => "serve",
        }
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; it fails unless `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(reason());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// What the insertion-only phases share: the workload, its inputs, the
/// seed, and the command that re-spawns this binary as a worker.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub seed: u64,
    pub worker: &'a WorkerCommand,
}

pub fn kcover_config(spec: &Spec, seed: u64) -> KCoverConfig {
    KCoverConfig::new(K, EPSILON, hash_seed(seed)).with_sizing(SketchSizing::Budget(spec.budget))
}

pub fn setcover_config(spec: &Spec, seed: u64) -> OutlierConfig {
    OutlierConfig::new(SETCOVER_LAMBDA, SETCOVER_EPSILON, hash_seed(seed))
        .with_sizing(SketchSizing::Budget(spec.setcover_budget))
}

pub fn dynamic_config(spec: &Spec, seed: u64) -> DynamicKCoverConfig {
    DynamicKCoverConfig::new(K, EPSILON, hash_seed(seed))
        .with_sizing(SketchSizing::Budget(spec.budget))
}

/// The family's true coverage ÷ the reference coverage; counted as a
/// failed operation when below the paper's guarantee `1 − 1/e − ε`.
fn coverage_ratio(ctx: &Ctx, tally: &mut Tally, what: &str, family: &[SetId]) -> f64 {
    let ratio =
        ctx.inputs.instance.coverage(family) as f64 / ctx.inputs.reference_coverage.max(1) as f64;
    let bound = 1.0 - 1.0 / std::f64::consts::E - EPSILON;
    tally.check(ratio >= bound, || {
        format!("{what} coverage ratio {ratio:.4} below the 1-1/e-eps bound {bound:.4}")
    });
    ratio
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Algorithm 3, `kcover_calls` times back to back. Returns ms per call
/// and the family's true coverage ÷ the reference coverage.
pub fn kcover(ctx: &Ctx, tally: &mut Tally) -> (f64, f64) {
    let cfg = kcover_config(ctx.spec, ctx.seed);
    let calls = ctx.spec.kcover_calls;
    let t = Instant::now();
    let mut family = Vec::new();
    for _ in 0..calls {
        family = black_box(k_cover_streaming(&ctx.inputs.stream, &cfg)).family;
    }
    let ms = ms_since(t) / calls as f64;
    (ms, coverage_ratio(ctx, tally, "kcover", &family))
}

/// Algorithm 5: the family must verify and, on workloads with a planted
/// optimum, cover ≥ (1−λ) of the instance's elements. Returns ms and the
/// fraction of elements the family covers.
pub fn setcover(ctx: &Ctx, tally: &mut Tally) -> (f64, f64) {
    let cfg = setcover_config(ctx.spec, ctx.seed);
    let t = Instant::now();
    let res = black_box(set_cover_outliers(&ctx.inputs.stream, &cfg));
    let ms = ms_since(t);
    let fraction = ctx.inputs.instance.coverage_fraction(&res.family);
    let need = if ctx.spec.planted() {
        1.0 - SETCOVER_LAMBDA
    } else {
        0.0
    };
    tally.check(res.verified && fraction >= need, || {
        format!(
            "setcover verified={} covers {fraction:.4} of the elements, need {need:.4}",
            res.verified
        )
    });
    (ms, fraction)
}

/// Dynamic ℓ₀ Algorithm 3 on the signed stream, `dynamic_calls` times
/// back to back; the family's coverage of the surviving instance must
/// meet the k-cover bound against the reference.
pub fn dynamic(ctx: &Ctx, tally: &mut Tally) -> f64 {
    let cfg = dynamic_config(ctx.spec, ctx.seed);
    let calls = ctx.spec.dynamic_calls;
    let t = Instant::now();
    let mut family = Vec::new();
    for _ in 0..calls {
        family = black_box(dynamic_k_cover(&ctx.inputs.signed, &cfg)).family;
    }
    let ms = ms_since(t) / calls as f64;
    coverage_ratio(ctx, tally, "dynamic", &family);
    ms
}

fn check_family(tally: &mut Tally, what: &str, got: Result<&[SetId], String>, want: &[SetId]) {
    tally.check(got == Ok(want), || match got {
        Ok(f) => format!("{what} family {f:?} differs from the serial executor's {want:?}"),
        Err(e) => format!("{what} runner failed: {e}"),
    });
}

/// What an executor run reports besides its family.
#[derive(Default, Clone, Copy)]
pub struct RunnerCounts {
    pub wire_bytes: u64,
    pub retries: usize,
    pub workers_lost: usize,
    pub chunks_streamed: usize,
    pub overlap_shards: usize,
    pub heartbeat_rtt_us: f64,
}

/// `ParallelRunner` with `WORKERS` threads.
pub fn dist_threads(ctx: &Ctx, tally: &mut Tally) -> f64 {
    let runner = ParallelRunner::new(ctx.spec.dist_config(ctx.seed), WORKERS);
    let t = Instant::now();
    let res = black_box(runner.run(&ctx.inputs.stream));
    let ms = ms_since(t);
    check_family(tally, "threads", Ok(&res.family), &ctx.inputs.dist_family);
    ms
}

/// `ProcessRunner` with `WORKERS` worker processes over pipes, on
/// `stream`; its family must equal `want`.
pub fn dist_pipes(
    ctx: &Ctx,
    stream: &dyn EdgeStream,
    want: &[SetId],
    tally: &mut Tally,
) -> (f64, RunnerCounts) {
    let runner = ProcessRunner::new(ctx.spec.dist_config(ctx.seed), ctx.worker.clone(), WORKERS);
    let t = Instant::now();
    let res = black_box(runner.run(stream));
    let ms = ms_since(t);
    let counts = res
        .as_ref()
        .map_or(RunnerCounts::default(), |r| RunnerCounts {
            wire_bytes: r.wire_bytes,
            retries: r.retries,
            workers_lost: r.workers_lost,
            ..RunnerCounts::default()
        });
    let family = res
        .as_ref()
        .map(|r| r.family.as_slice())
        .map_err(|e| e.to_string());
    check_family(tally, "pipes", family, want);
    (ms, counts)
}

/// `SocketRunner` with `WORKERS` loopback worker processes, on
/// `stream`; its family must equal `want`.
pub fn dist_sockets(
    ctx: &Ctx,
    stream: &dyn EdgeStream,
    want: &[SetId],
    tally: &mut Tally,
) -> (f64, RunnerCounts) {
    let runner = SocketRunner::new(ctx.spec.dist_config(ctx.seed), ctx.worker.clone(), WORKERS);
    let t = Instant::now();
    let res = black_box(runner.run(stream));
    let ms = ms_since(t);
    let counts = res
        .as_ref()
        .map_or(RunnerCounts::default(), |r| RunnerCounts {
            wire_bytes: r.stats.wire_bytes,
            retries: r.stats.retries,
            workers_lost: r.stats.workers_lost,
            chunks_streamed: r.stats.chunks_streamed,
            overlap_shards: r.stats.overlap_shards,
            heartbeat_rtt_us: r.stats.heartbeat.mean_ns() as f64 / 1e3,
        });
    let family = res
        .as_ref()
        .map(|r| r.family.as_slice())
        .map_err(|e| e.to_string());
    check_family(tally, "sockets", family, want);
    (ms, counts)
}
