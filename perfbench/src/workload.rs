//! The two workloads: their sizes, their in-process generation from a
//! seed, and the references their outputs are checked against. Why each
//! workload exists is written in `perfbench/README.md`.

use std::time::Instant;

use coverage_algs::k_cover_streaming;
use coverage_core::offline::lazy_greedy_k_cover;
use coverage_core::{CoverageInstance, SetId};
use coverage_data::{planted_k_cover, zipf_instance};
use coverage_dist::{distributed_k_cover_serial, DistConfig};
use coverage_serve::ServeConfig;
use coverage_sketch::SketchSizing;
use coverage_stream::{ArrivalOrder, SignedEdge, VecDynamicStream, VecStream};

use crate::phases::{self, Phase};
use crate::serve;

/// Which generator a workload draws from.
#[derive(Clone, Copy)]
pub enum Source {
    /// `zipf_instance(n, m, 0.5, 1.05, max_size)`: zipf set sizes and
    /// zipf element popularity.
    Zipf { n: usize, m: u64, max_size: usize },
    /// `planted_k_cover(n, m, k, decoy_size)`: the optimum is known.
    Planted { n: usize, m: u64, decoy_size: usize },
}

/// Sets every phase selects (k-cover), and its accuracy ε.
pub const K: usize = 8;
pub const EPSILON: f64 = 0.2;
/// Set cover with outliers: outlier fraction λ and accuracy ε.
pub const SETCOVER_LAMBDA: f64 = 0.2;
pub const SETCOVER_EPSILON: f64 = 1.0;
/// Simulated machines of every distributed executor.
pub const MACHINES: usize = 8;
/// Threads or worker processes: never more than the 2 cores measured on.
pub const WORKERS: usize = 2;
/// Serve: edge budget of each bank sketch, and the bank's guesses `k = 1, 2, 4, …`.
const SERVE_BUDGET: usize = 5_000;
const SERVE_GUESSES: usize = 8;

/// One workload's fixed sizes and parameters.
pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// Edge budget of the k-cover, dynamic and per-machine sketches.
    pub budget: usize,
    /// Back-to-back calls per timed rep, so no timed block is a single
    /// call of only tens of milliseconds.
    pub kcover_calls: usize,
    pub dynamic_calls: usize,
    /// Edge budget of each set-cover guess.
    pub setcover_budget: usize,
    /// The phases of one round, in order. A phase listed twice is
    /// sampled twice per round, spread apart in time.
    pub schedule: &'static [Phase],
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "ingest-zipf",
        source: Source::Zipf {
            n: 4_000,
            m: 400_000,
            max_size: 20_000,
        },
        budget: 20_000,
        kcover_calls: 6,
        dynamic_calls: 1,
        setcover_budget: 5_000,
        // Set cover (~550 ms) and the dynamic phase (~190 ms) are the
        // single calls here whose round-to-round times vary most, so
        // each is sampled twice per round.
        schedule: &[
            Phase::Kcover,
            Phase::Setcover,
            Phase::Dynamic,
            Phase::DistThreads,
            Phase::DistPipes,
            Phase::Setcover,
            Phase::Dynamic,
            Phase::DistSockets,
            Phase::Serve,
        ],
    },
    Spec {
        name: "ship-planted",
        source: Source::Planted {
            n: 400,
            m: 300_000,
            decoy_size: 1_000,
        },
        budget: 40_000,
        kcover_calls: 3,
        dynamic_calls: 2,
        setcover_budget: 4_000,
        schedule: &Phase::ALL,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// True when the instance is built around planted golden sets that
    /// cover every element. Only there does the set-cover check demand
    /// ≥ (1−λ) true coverage: on zipf, sketches of any budget this
    /// benchmark can afford verify on the sketch yet cover far less of
    /// the instance (see `perfbench/README.md`), so there the covered
    /// fraction is reported as `setcover.coverage` instead.
    pub fn planted(&self) -> bool {
        matches!(self.source, Source::Planted { .. })
    }

    pub fn dist_config(&self, seed: u64) -> DistConfig {
        DistConfig::new(MACHINES, K, EPSILON, hash_seed(seed))
            .with_sizing(SketchSizing::Budget(self.budget))
    }

    /// The engine's configuration: one epoch published per batch.
    pub fn serve_config(&self, num_sets: usize, seed: u64) -> ServeConfig {
        ServeConfig::bank_ladder(
            num_sets,
            SERVE_GUESSES,
            EPSILON,
            SERVE_BUDGET,
            hash_seed(seed),
        )
        .with_publish_every(serve::BATCH as u64)
    }
}

/// The hash seed every sketch of a run shares, derived from the
/// workload seed so one `--seed` fixes the whole run.
pub fn hash_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Everything a run reads, built once per setup.
pub struct Inputs {
    /// The insertion-only stream, in random arrival order.
    pub stream: VecStream,
    /// Its instance: ground truth for coverage checks.
    pub instance: CoverageInstance,
    /// The stream as signed updates, all inserts: what the dynamic
    /// phase and the serve phase read.
    pub signed: VecDynamicStream,
    /// Coverage the k-cover family is compared with: the planted
    /// optimum, or offline lazy greedy on the instance.
    pub reference_coverage: usize,
    /// The serial executor's family; every executor must match it.
    pub dist_family: Vec<SetId>,
    /// The serve phase's batches, warm-up first: a prefix of the signed
    /// stream.
    pub serve_batches: Vec<Vec<SignedEdge>>,
    /// Seconds spent in the `coverage-data` generators.
    pub generate_s: f64,
}

/// Generate a workload's inputs from `seed`, build its references and
/// warm up with one k-cover call.
pub fn setup(spec: &Spec, seed: u64) -> Inputs {
    let t = Instant::now();
    let (instance, planted_opt) = match spec.source {
        Source::Zipf { n, m, max_size } => (zipf_instance(n, m, 0.5, 1.05, max_size, seed), None),
        Source::Planted { n, m, decoy_size } => {
            let p = planted_k_cover(n, m, K, decoy_size, seed);
            (p.instance, Some(p.optimal_value))
        }
    };
    let generate_s = t.elapsed().as_secs_f64();

    let mut stream = VecStream::from_instance(&instance);
    ArrivalOrder::Random(seed ^ 0x0DDE).apply(stream.edges_mut());
    let inserts = stream.edges().iter().copied().map(SignedEdge::insert);
    let signed = VecDynamicStream::new(instance.num_sets(), inserts.collect());
    let reference_coverage =
        planted_opt.unwrap_or_else(|| lazy_greedy_k_cover(&instance, K).coverage());
    let dist_family = distributed_k_cover_serial(&stream, &spec.dist_config(seed)).family;
    let serve_batches = signed
        .updates()
        .chunks(serve::BATCH)
        .take(serve::WARM_BATCHES + serve::BATCHES)
        .map(<[_]>::to_vec)
        .collect();
    std::hint::black_box(k_cover_streaming(
        &stream,
        &phases::kcover_config(spec, seed),
    ));
    Inputs {
        stream,
        instance,
        signed,
        reference_coverage,
        dist_family,
        serve_batches,
        generate_s,
    }
}
