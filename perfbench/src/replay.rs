//! The traced run's replays: each end-to-end phase rebuilt from the
//! public calls of the crates beneath it, with a span around every
//! call. A replay's root span is named after the phase; its children
//! are named `<layer>.<call>`.

use coverage_core::offline::{bucket_greedy_budgeted_cover, bucket_greedy_k_cover};
use coverage_core::{CoverageView, SetId};
use coverage_dist::partition_edges;
use coverage_hash::UnitHash;
use coverage_serve::{answer_query, LiveStore, ServeConfig};
use coverage_sketch::{DynamicSketch, SketchBank, SketchCounters, SketchSnapshot, ThresholdSketch};
use coverage_stream::{DynamicEdgeStream, EdgeStream};

use crate::phases::{dynamic_config, kcover_config, setcover_config, Ctx, Tally};
use crate::serve;
use crate::trace::Tracer;
use crate::workload::{hash_seed, K, MACHINES};

/// Edges per `update_batch` call, as the executors use.
const BATCH: usize = 4096;

/// `UnitHash::hash_batch` over every element of the stream.
pub fn hash(tr: &mut Tracer, ctx: &Ctx) {
    let edges = ctx.inputs.stream.edges();
    let h = UnitHash::new(hash_seed(ctx.seed));
    let mut out = Vec::with_capacity(edges.len());
    tr.open("hash");
    tr.time("hash.batch", || {
        h.hash_batch(edges.iter().map(|e| e.element.0), &mut out)
    });
    tr.close();
    std::hint::black_box(out);
}

/// What the k-cover replay's sketch reports.
pub struct SketchFacts {
    pub counters: SketchCounters,
    pub edges_stored: usize,
    pub space_words: u64,
}

/// `k_cover_streaming` = sketch ingest → `csr_view` → bucket greedy →
/// estimate.
pub fn kcover(tr: &mut Tracer, ctx: &Ctx) -> SketchFacts {
    let cfg = kcover_config(ctx.spec, ctx.seed);
    let params = cfg.sketch_params(ctx.inputs.stream.num_sets());
    let edges = ctx.inputs.stream.edges();
    tr.open("kcover");
    let sketch = tr.time("sketch.ingest", || {
        let mut s = ThresholdSketch::new(params, cfg.seed);
        for chunk in edges.chunks(BATCH) {
            s.update_batch(chunk);
        }
        s
    });
    let view = tr.time("sketch.csr_view", || sketch.csr_view());
    let family = tr.time("greedy.bucket", || {
        bucket_greedy_k_cover(&view, cfg.k).family()
    });
    std::hint::black_box(tr.time("sketch.estimate", || sketch.estimate_coverage(&family)));
    tr.close();
    SketchFacts {
        counters: sketch.counters(),
        edges_stored: sketch.edges_stored(),
        space_words: sketch.space_report().total_words(),
    }
}

/// `set_cover_outliers` = bank ingest → per guess `csr_view` + budgeted
/// greedy (every guess is evaluated, as Algorithm 5 does).
pub fn setcover(tr: &mut Tracer, ctx: &Ctx) {
    let cfg = setcover_config(ctx.spec, ctx.seed);
    let n = ctx.inputs.stream.num_sets();
    let guesses = cfg.guesses(n);
    let eps = cfg.sketch_epsilon();
    let params: Vec<_> = guesses
        .iter()
        .map(|g| cfg.sizing.params(n, g.budget_sets, eps))
        .collect();
    let lp = cfg.lambda_prime();
    let required_fraction = (1.0 - lp - eps * (1.0 / lp).ln()).clamp(0.0, 1.0);
    let edges = ctx.inputs.stream.edges();
    tr.open("setcover");
    let bank = tr.time("bank.ingest", || {
        let mut b = SketchBank::new(params, cfg.seed);
        for chunk in edges.chunks(BATCH) {
            b.update_batch(chunk);
        }
        b
    });
    for (sketch, guess) in bank.sketches().iter().zip(&guesses) {
        let view = tr.time("bank.csr_view", || sketch.csr_view());
        let required = (required_fraction * view.num_elements() as f64).ceil() as usize;
        std::hint::black_box(tr.time("greedy.budgeted", || {
            bucket_greedy_budgeted_cover(&view, required, guess.budget_sets)
        }));
    }
    tr.close();
}

/// `dynamic_k_cover` = ℓ₀ sketch ingest → recovery → `csr_view` →
/// bucket greedy.
pub fn dynamic(tr: &mut Tracer, ctx: &Ctx) {
    let cfg = dynamic_config(ctx.spec, ctx.seed);
    let params = cfg.sketch_params(ctx.inputs.signed.num_sets());
    let updates = ctx.inputs.signed.updates();
    tr.open("dynamic");
    let sketch = tr.time("dynsketch.ingest", || {
        let mut s = DynamicSketch::new(params, cfg.seed);
        for chunk in updates.chunks(BATCH) {
            s.update_batch(chunk);
        }
        s
    });
    let sample = tr.time("dynsketch.recover", || sketch.recover_expect());
    let view = tr.time("dynsketch.csr_view", || sketch.csr_view(&sample));
    std::hint::black_box(tr.time("greedy.bucket", || bucket_greedy_k_cover(&view, cfg.k)));
    tr.close();
}

/// Every executor = partition → shard builds → snapshot encode/decode →
/// merge → solve. The family must equal the serial executor's. Returns
/// the encoded snapshot bytes.
pub fn dist(tr: &mut Tracer, ctx: &Ctx, tally: &mut Tally) -> u64 {
    let cfg = ctx.spec.dist_config(ctx.seed);
    let params = cfg.sketch_params(ctx.inputs.stream.num_sets());
    tr.open("dist");
    let shards = tr.time("dist.partition", || {
        partition_edges(&ctx.inputs.stream, MACHINES, cfg.shard_seed(), BATCH)
    });
    let locals: Vec<ThresholdSketch> = tr.time("dist.shard_build", || {
        shards
            .iter()
            .map(|shard| {
                let mut s = ThresholdSketch::new(params, cfg.seed);
                for chunk in shard.chunks(BATCH) {
                    s.update_batch(chunk);
                }
                s
            })
            .collect()
    });
    let frames: Vec<Vec<u8>> = tr.time("wire.encode", || {
        locals
            .iter()
            .map(|s| SketchSnapshot::of(s).encode_binary())
            .collect()
    });
    let decoded: Result<Vec<ThresholdSketch>, _> = tr.time("wire.decode", || {
        frames
            .iter()
            .map(|f| SketchSnapshot::decode_binary(f).map(|s| s.restore()))
            .collect()
    });
    let family: Result<Vec<SetId>, String> = match decoded {
        Ok(mut sketches) => {
            tr.open("dist.reduce");
            // The fold order of the serial executor: last shard first.
            let merged = tr.time("sketch.merge", || {
                let mut acc = sketches.pop().expect("at least one machine");
                for s in &sketches {
                    acc.merge_from(s);
                }
                acc
            });
            let view = tr.time("sketch.csr_view", || merged.csr_view());
            let family = tr.time("greedy.bucket", || {
                bucket_greedy_k_cover(&view, cfg.k).family()
            });
            tr.close();
            Ok(family)
        }
        Err(e) => Err(e.to_string()),
    };
    tr.close();
    let want = &ctx.inputs.dist_family;
    tally.check(family.as_ref() == Ok(want), || {
        format!("dist replay family {family:?} differs from the serial executor's {want:?}")
    });
    frames.iter().map(|f| f.len() as u64).sum()
}

/// The serve engine's ingest thread, inline: after the untimed warm-up
/// batches, `LiveStore::apply` and `LiveStore::snapshot` per batch, and
/// `answer_query` on each published snapshot.
pub fn serve(tr: &mut Tracer, ctx: &Ctx, cfg: &ServeConfig) {
    let mut store = LiveStore::new(cfg);
    let mut applied = 0u64;
    let mut epoch = 0u64;
    let (warm, timed) = ctx.inputs.serve_batches.split_at(serve::WARM_BATCHES);
    for batch in warm {
        store.apply(batch);
        applied += batch.len() as u64;
    }
    tr.open("serve");
    for batch in timed {
        tr.time("serve.apply", || store.apply(batch));
        applied += batch.len() as u64;
        epoch += 1;
        if let Some(snap) = tr.time("serve.snapshot", || store.snapshot(epoch, applied)) {
            std::hint::black_box(tr.time("serve.answer", || answer_query(&snap, K)));
        }
    }
    tr.close();
}
