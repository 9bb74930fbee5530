//! perfbench: one command that generates a workload from a seed, runs
//! it through the public entry points of every layer, checks the
//! outputs, and prints every metric by name and unit.
//!
//! ```text
//! perfbench --workload <ingest-zipf|ship-planted> --seed N
//!           --seconds S --trace <0|1> [--trace-file PATH]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is 1 when any output check failed and 2
//! on a usage error. `perfbench/README.md` maps each metric to its layer
//! and workload.

mod alloc;
mod phases;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::{Duration, Instant};

use coverage_dist::{distributed_k_cover_serial, WorkerCommand};
use coverage_stream::{EdgeStream, VecStream};

use phases::{Ctx, Phase, RunnerCounts, Tally};
use serve::ServeSamples;
use stats::{median, quantile};
use trace::Tracer;
use workload::{Inputs, Spec, K};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds measured even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;
/// Edges of the stream whose executor runs measure fixed costs.
const TINY_EDGES: usize = 1_000;
/// Latency samples per quantile window of a serve rep.
const WINDOW: usize = 100;
const MB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_file = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--trace-file" => trace_file = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_file,
    })
}

/// Every sample one run collects.
#[derive(Default)]
struct Samples {
    phase_ms: BTreeMap<Phase, Vec<f64>>,
    heap_mb: BTreeMap<Phase, Vec<f64>>,
    kcover_coverage: Vec<f64>,
    setcover_coverage: Vec<f64>,
    serve: ServeSamples,
    pipes: Vec<RunnerCounts>,
    sockets: Vec<RunnerCounts>,
}

/// One round: one rep of every end-to-end phase in the workload's
/// schedule, each with its heap high-water mark above the heap live
/// when it started.
fn e2e_round(
    ctx: &Ctx,
    serve_cfg: &coverage_serve::ServeConfig,
    tally: &mut Tally,
    s: &mut Samples,
) {
    let inputs = ctx.inputs;
    for &phase in ctx.spec.schedule {
        let base = alloc::reset_peak();
        let ms = match phase {
            Phase::Kcover => {
                let (ms, ratio) = phases::kcover(ctx, tally);
                s.kcover_coverage.push(ratio);
                Some(ms)
            }
            Phase::Setcover => {
                let (ms, fraction) = phases::setcover(ctx, tally);
                s.setcover_coverage.push(fraction);
                Some(ms)
            }
            Phase::Dynamic => Some(phases::dynamic(ctx, tally)),
            Phase::DistThreads => Some(phases::dist_threads(ctx, tally)),
            Phase::DistPipes => {
                let (ms, c) = phases::dist_pipes(ctx, &inputs.stream, &inputs.dist_family, tally);
                s.pipes.push(c);
                Some(ms)
            }
            Phase::DistSockets => {
                let (ms, c) = phases::dist_sockets(ctx, &inputs.stream, &inputs.dist_family, tally);
                s.sockets.push(c);
                Some(ms)
            }
            Phase::Serve => {
                serve::run(serve_cfg, &inputs.serve_batches, K, tally, &mut s.serve);
                None
            }
        };
        let heap = alloc::peak().saturating_sub(base) as f64 / MB;
        s.heap_mb.entry(phase).or_default().push(heap);
        if let Some(ms) = ms {
            s.phase_ms.entry(phase).or_default().push(ms);
        }
    }
}

/// What the traced replays report besides their spans.
#[derive(Default)]
struct LayerFacts {
    sketch: Option<replay::SketchFacts>,
    wire_bytes: u64,
    fixed_pipes_ms: Vec<f64>,
    fixed_sockets_ms: Vec<f64>,
}

/// The traced half of a round: every replay, then the executors' fixed
/// cost on a tiny stream.
fn traced_round(
    ctx: &Ctx,
    serve_cfg: &coverage_serve::ServeConfig,
    tiny: &(VecStream, Vec<coverage_core::SetId>),
    tr: &mut Tracer,
    tally: &mut Tally,
    facts: &mut LayerFacts,
) {
    replay::hash(tr, ctx);
    facts.sketch = Some(replay::kcover(tr, ctx));
    replay::setcover(tr, ctx);
    replay::dynamic(tr, ctx);
    facts.wire_bytes = replay::dist(tr, ctx, tally);
    replay::serve(tr, ctx, serve_cfg);
    let (tiny_stream, tiny_family) = tiny;
    facts
        .fixed_pipes_ms
        .push(phases::dist_pipes(ctx, tiny_stream, tiny_family, tally).0);
    facts
        .fixed_sockets_ms
        .push(phases::dist_sockets(ctx, tiny_stream, tiny_family, tally).0);
}

/// The `q`-quantile of each window of `WINDOW` consecutive samples of a
/// serve rep, median over all windows of all reps. On a shared VM the
/// host deschedules a vCPU for several milliseconds about 1% of the
/// time, so a pooled p99 lands on the edge of those stalls and moves
/// with how many a run happened to meet; a window that met one moves
/// one sample of this median instead.
fn window_quantile(reps: &[Vec<f64>], q: f64) -> f64 {
    let per_window: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.chunks(WINDOW))
        .filter(|w| w.len() == WINDOW)
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

fn e2e_metrics(s: &Samples, setup_s: &[f64]) -> Metrics {
    let ms = |p: Phase| median(s.phase_ms.get(&p).map_or(&[][..], Vec::as_slice));
    let peak_heap = s.heap_mb.values().map(|v| median(v)).fold(0.0f64, f64::max);
    let (visible, query) = (&s.serve.visible_ms, &s.serve.query_ms);
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit| m.push((name.to_string(), value, unit));
    put("setup_s", median(setup_s), "s");
    put("kcover_ms", ms(Phase::Kcover), "ms");
    put("setcover_ms", ms(Phase::Setcover), "ms");
    put("dynamic_ms", ms(Phase::Dynamic), "ms");
    put("dist_threads_ms", ms(Phase::DistThreads), "ms");
    put("dist_pipes_ms", ms(Phase::DistPipes), "ms");
    put("dist_sockets_ms", ms(Phase::DistSockets), "ms");
    put("visible_ms_p50", window_quantile(visible, 0.5), "ms");
    put("query_ms_p50", window_quantile(query, 0.5), "ms");
    put("peak_heap_mb", peak_heap, "MB");
    put("kcover_coverage", median(&s.kcover_coverage), "ratio");
    m
}

fn layer_metrics(
    s: &Samples,
    tr: &Tracer,
    facts: &LayerFacts,
    generate_s: &[f64],
    edges: usize,
) -> Metrics {
    let totals = tr.totals();
    let children = tr.child_totals();
    let rounds = |root, name| totals.get(&(root, name)).map(|r| r.values());
    // Median over rounds of a span's summed time under its root.
    let span =
        |root, name| median(&rounds(root, name).map_or(vec![], |r| r.map(|t| t.ms).collect()));
    // Median over rounds of a span's mean time per call.
    let per_call = |root, name| {
        let mean = |t: &trace::Total| t.ms / t.count.max(1) as f64;
        median(&rounds(root, name).map_or(vec![], |r| r.map(mean).collect()))
    };
    // Median over rounds of the time a root span's direct children cover.
    let child_ms = |root| {
        median(
            &children
                .get(root)
                .map_or(vec![], |r| r.values().copied().collect()),
        )
    };
    let e2e = |p: Phase| median(s.phase_ms.get(&p).map_or(&[][..], Vec::as_slice));
    let sketch = facts.sketch.as_ref().expect("a traced round ran");
    let c = sketch.counters;
    let sv = &s.serve;
    let sum = |f: fn(&RunnerCounts) -> usize| -> f64 {
        s.pipes.iter().chain(&s.sockets).map(f).sum::<usize>() as f64
    };
    let pipes = s.pipes.last().copied().unwrap_or_default();
    let sockets = s.sockets.last().copied().unwrap_or_default();
    let rtt: Vec<f64> = s.sockets.iter().map(|c| c.heartbeat_rtt_us).collect();

    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit| m.push((name.to_string(), value, unit));
    put("data.generate_s", median(generate_s), "s");
    put(
        "hash.ns_per_edge",
        span("hash", "hash.batch") * 1e6 / edges.max(1) as f64,
        "ns",
    );
    put("sketch.ingest_ms", span("kcover", "sketch.ingest"), "ms");
    put("sketch.arrivals", c.arrivals as f64, "count");
    put(
        "sketch.rejected_by_bound",
        c.rejected_by_bound as f64,
        "count",
    );
    put("sketch.evictions", c.evictions as f64, "count");
    put("sketch.edges_stored", sketch.edges_stored as f64, "count");
    let admit = sketch.edges_stored as f64 / c.arrivals.max(1) as f64;
    put("sketch.admit_ratio", admit, "ratio");
    put("bank.ingest_ms", span("setcover", "bank.ingest"), "ms");
    put(
        "sketch.csr_view_ms",
        span("kcover", "sketch.csr_view"),
        "ms",
    );
    put("sketch.merge_ms", span("dist", "sketch.merge"), "ms");
    put("wire.encode_ms", span("dist", "wire.encode"), "ms");
    put("wire.decode_ms", span("dist", "wire.decode"), "ms");
    put("wire.bytes", facts.wire_bytes as f64, "bytes");
    put(
        "dynsketch.ingest_ms",
        span("dynamic", "dynsketch.ingest"),
        "ms",
    );
    put(
        "dynsketch.recover_ms",
        span("dynamic", "dynsketch.recover"),
        "ms",
    );
    put("greedy.bucket_ms", span("kcover", "greedy.bucket"), "ms");
    put(
        "greedy.budgeted_ms",
        span("setcover", "greedy.budgeted"),
        "ms",
    );
    put("setcover.coverage", median(&s.setcover_coverage), "ratio");
    put("space.peak_words", sketch.space_words as f64, "words");
    put("dist.partition_ms", span("dist", "dist.partition"), "ms");
    put(
        "dist.shard_build_ms",
        span("dist", "dist.shard_build"),
        "ms",
    );
    put("dist.reduce_ms", span("dist", "dist.reduce"), "ms");
    put("dist.fixed_ms.pipes", median(&facts.fixed_pipes_ms), "ms");
    put(
        "dist.fixed_ms.sockets",
        median(&facts.fixed_sockets_ms),
        "ms",
    );
    // Transport: an executor's wall clock minus its replayed compute.
    put(
        "dist.transport_ms.pipes",
        e2e(Phase::DistPipes) - child_ms("dist"),
        "ms",
    );
    put(
        "dist.transport_ms.sockets",
        e2e(Phase::DistSockets) - child_ms("dist"),
        "ms",
    );
    put("dist.wire_bytes.pipes", pipes.wire_bytes as f64, "bytes");
    put(
        "dist.wire_bytes.sockets",
        sockets.wire_bytes as f64,
        "bytes",
    );
    put("dist.retries", sum(|c| c.retries), "count");
    put("dist.workers_lost", sum(|c| c.workers_lost), "count");
    put(
        "net.chunks_streamed",
        sockets.chunks_streamed as f64,
        "count",
    );
    put("net.overlap_shards", sockets.overlap_shards as f64, "count");
    put("net.heartbeat_rtt_us", median(&rtt), "us");
    put("serve.apply_ms", per_call("serve", "serve.apply"), "ms");
    put(
        "serve.snapshot_ms",
        per_call("serve", "serve.snapshot"),
        "ms",
    );
    put("serve.answer_ms", per_call("serve", "serve.answer"), "ms");
    put(
        "serve.epochs_published",
        median(&sv.epochs_published),
        "count",
    );
    put(
        "serve.publish_failures",
        sv.publish_failures as f64,
        "count",
    );
    put("serve.queue_lag_max", sv.queue_lag_max as f64, "count");
    put("serve.staleness_max", sv.staleness_max as f64, "count");
    put("bench.gen_lag_ms_p99", quantile(&sv.gen_lag_ms, 0.99), "ms");
    // The serve tails: reported here, without a bound, because host
    // stalls move them by more than any bound allows (perfbench/README.md).
    put(
        "visible_ms_p99",
        window_quantile(&sv.visible_ms, 0.99),
        "ms",
    );
    put("query_ms_p99", window_quantile(&sv.query_ms, 0.99), "ms");
    for (phase, v) in &s.heap_mb {
        put(&format!("heap.{}_mb", phase.name()), median(v), "MB");
    }
    // Self share: the part of a replay's root span no child span covers.
    for root in ["kcover", "setcover", "dynamic", "dist", "serve"] {
        let share = 1.0 - child_ms(root) / span(root, root);
        put(&format!("phase.{root}.self_share"), share, "ratio");
    }
    // Unaccounted share: the part of the end-to-end time the replayed
    // layer calls do not account for; negative when the entry point is
    // faster than its replay (the threads executor overlaps shards).
    let serve_replay =
        (span("serve", "serve.apply") + span("serve", "serve.snapshot")) / serve::BATCHES as f64;
    let accounted = [
        ("kcover", child_ms("kcover") / e2e(Phase::Kcover)),
        ("setcover", child_ms("setcover") / e2e(Phase::Setcover)),
        ("dynamic", child_ms("dynamic") / e2e(Phase::Dynamic)),
        ("dist_threads", child_ms("dist") / e2e(Phase::DistThreads)),
        ("dist_pipes", child_ms("dist") / e2e(Phase::DistPipes)),
        ("dist_sockets", child_ms("dist") / e2e(Phase::DistSockets)),
        ("serve", serve_replay / window_quantile(&sv.visible_ms, 0.5)),
    ];
    for (phase, share) in accounted {
        put(
            &format!("phase.{phase}.unaccounted_share"),
            1.0 - share,
            "ratio",
        );
    }
    m
}

/// Render the result line. Values print with every digit Rust keeps.
fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Worker mode: the pipe and socket executors re-spawn this binary.
    if argv.first().map(String::as_str) == Some("__worker") {
        match argv.get(1).map(String::as_str) {
            Some("--connect") => match argv.get(2) {
                Some(addr) => exit(coverage_dist::worker::run_connect(addr)),
                None => {
                    eprintln!("__worker --connect needs HOST:PORT");
                    exit(2);
                }
            },
            _ => exit(coverage_dist::worker::run_stdio()),
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    let spec = args.workload;
    let seed = args.seed;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut generate_s = Vec::with_capacity(SETUPS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        let built = workload::setup(spec, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(built.generate_s);
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUPS >= 1");
    let worker = match WorkerCommand::current_exe(vec!["__worker".to_string()]) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot locate its own binary: {e}");
            exit(2);
        }
    };
    let ctx = Ctx {
        spec,
        inputs: &inputs,
        seed,
        worker: &worker,
    };
    let serve_cfg = spec.serve_config(inputs.stream.num_sets(), seed);
    let tiny = {
        let edges = inputs.stream.edges()[..TINY_EDGES.min(inputs.stream.edges().len())].to_vec();
        let stream = VecStream::new(inputs.stream.num_sets(), edges);
        let family = distributed_k_cover_serial(&stream, &spec.dist_config(seed)).family;
        (stream, family)
    };
    eprintln!(
        "perfbench: {} seed {seed}: {} edges, {} signed updates, serve offers {:.0} updates/s; \
         setup {:.2} s (median of {SETUPS})",
        spec.name,
        inputs.stream.edges().len(),
        inputs.signed.updates().len(),
        serve::offered_rate(),
        median(&setup_s),
    );

    let mut tally = Tally::default();
    // Warm-up round: first-touch page faults and first worker spawns
    // stay out of the samples; its checks still count.
    e2e_round(&ctx, &serve_cfg, &mut tally, &mut Samples::default());

    let mut samples = Samples::default();
    let mut tracer = Tracer::new();
    let mut facts = LayerFacts::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t0.elapsed() < budget {
        e2e_round(&ctx, &serve_cfg, &mut tally, &mut samples);
        if args.trace {
            tracer.set_round(rounds);
            traced_round(&ctx, &serve_cfg, &tiny, &mut tracer, &mut tally, &mut facts);
        }
        rounds += 1;
    }
    eprintln!(
        "perfbench: {rounds} rounds in {:.1} s; {} visibility and {} query samples",
        t0.elapsed().as_secs_f64(),
        samples.serve.visible_ms.iter().map(Vec::len).sum::<usize>(),
        samples.serve.query_ms.iter().map(Vec::len).sum::<usize>(),
    );

    let metrics = if args.trace {
        let edges = inputs.stream.edges().len();
        layer_metrics(&samples, &tracer, &facts, &generate_s, edges)
    } else {
        e2e_metrics(&samples, &setup_s)
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            tally.attempted += 1;
            tally.fail(format!("metric {name} was not measured"));
        }
    }
    let metrics: Metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    if let Some(path) = &args.trace_file {
        if args.trace {
            let written = std::fs::File::create(path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
            if let Err(e) = written {
                eprintln!("perfbench: cannot write {path}: {e}");
            }
        }
    }
    for reason in tally.reasons() {
        eprintln!("perfbench: FAILED {reason}");
    }
    println!("{}", result_json(&tally, &metrics));
    exit(if tally.failed == 0 { 0 } else { 1 });
}
