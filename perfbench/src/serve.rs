//! The serve phase: an open-loop writer, the engine's ingest thread and
//! one closed-loop query client — three threads for the two cores.
//!
//! The writer submits one fixed-size batch every `period_us` on a
//! schedule that does not slow down when the engine does. A batch's
//! visibility is timed from when it was *due*, not from when it was
//! sent, so a stalled writer charges the stall to every batch behind
//! it; how late the writer ran is reported separately.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coverage_serve::{
    answer_query, EpochSnapshot, QueryAnswer, QueryHandle, ServeConfig, ServeEngine,
};
use coverage_stream::SignedEdge;

use crate::phases::Tally;

/// Updates per submitted batch; one epoch is published per batch.
pub const BATCH: usize = 512;
/// Batches submitted at once, untimed, before the schedule starts.
pub const WARM_BATCHES: usize = 80;
/// Batches submitted on the schedule per serve rep.
pub const BATCHES: usize = 400;
/// The offered schedule: one batch due every `PERIOD`.
const PERIOD: Duration = Duration::from_micros(2_500);

/// Offered load in updates per second.
pub fn offered_rate() -> f64 {
    BATCH as f64 / PERIOD.as_secs_f64()
}

/// The writer's poll interval while it waits for the next due time.
const IDLE: Duration = Duration::from_micros(100);
/// How long the writer waits for the last batches to become visible.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// The client's pause between a reply and its next query, so the three
/// threads rarely all want a core at once.
const THINK: Duration = Duration::from_millis(1);
/// Every `SAMPLE_EVERY`-th query also keeps its snapshot for re-answering.
const SAMPLE_EVERY: usize = 32;

/// Samples of every serve rep of a run; latencies are kept per rep.
#[derive(Default)]
pub struct ServeSamples {
    pub visible_ms: Vec<Vec<f64>>,
    pub query_ms: Vec<Vec<f64>>,
    pub gen_lag_ms: Vec<f64>,
    pub epochs_published: Vec<f64>,
    pub publish_failures: u64,
    pub queue_lag_max: u64,
    pub staleness_max: u64,
}

struct Client {
    latencies_ms: Vec<f64>,
    regressions: Vec<(u64, u64)>,
    sampled: Vec<(Arc<EpochSnapshot>, QueryAnswer)>,
}

/// One closed-loop client: query `k`, pause `THINK`, repeat until
/// `stop`, checking that the epochs it is served never go backwards.
fn query_client(engine: &ServeEngine, k: usize, stop: &AtomicBool) -> Client {
    let mut handle = engine.query_handle();
    let mut out = Client {
        latencies_ms: Vec::new(),
        regressions: Vec::new(),
        sampled: Vec::new(),
    };
    let mut last_epoch = 0;
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let snap = i.is_multiple_of(SAMPLE_EVERY).then(|| handle.snapshot());
        let t = Instant::now();
        let answer = handle.query(k);
        out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if answer.epoch < last_epoch {
            out.regressions.push((last_epoch, answer.epoch));
        }
        last_epoch = answer.epoch;
        if let Some(snap) = snap.filter(|s| s.epoch == answer.epoch) {
            out.sampled.push((snap, answer));
        }
        i += 1;
        std::thread::sleep(THINK);
    }
    out
}

/// Tracks which submitted batches the published epochs cover.
struct Visibility<'a> {
    watch: QueryHandle,
    /// `covers[i]`: updates applied once batch `i` is in the store.
    covers: &'a [u64],
    /// First batch not yet seen in a published epoch.
    next: usize,
}

impl Visibility<'_> {
    /// Time every one of the first `sent` batches that the freshest
    /// published epoch covers, from its due time.
    fn poll(&mut self, sent: usize, due: &impl Fn(usize) -> Instant, out: &mut Vec<f64>) {
        let applied = self.watch.snapshot().updates_applied;
        let now = Instant::now();
        while self.next < sent && self.covers[self.next] <= applied {
            let late = now.saturating_duration_since(due(self.next));
            out.push(late.as_secs_f64() * 1e3);
            self.next += 1;
        }
    }
}

/// One serve rep on a fresh engine: submit the first `WARM_BATCHES` at
/// once and flush, so the store is past the transient of filling its
/// sketches; then submit the rest on the schedule while one client
/// queries `k`, drain, and check every answer.
pub fn run(
    cfg: &ServeConfig,
    batches: &[Vec<SignedEdge>],
    k: usize,
    tally: &mut Tally,
    out: &mut ServeSamples,
) {
    let (warm, timed) = batches.split_at(WARM_BATCHES.min(batches.len()));
    let engine = ServeEngine::start(cfg.clone());
    let mut total = 0u64;
    for (i, batch) in warm.iter().enumerate() {
        total += batch.len() as u64;
        tally.attempted += 1;
        if let Err(e) = engine.submit(batch.clone()) {
            tally.fail(format!("serve refused warm-up batch {i}: {e}"));
        }
    }
    tally.attempted += 1;
    if let Err(e) = engine.flush() {
        tally.fail(format!("serve flush after warm-up failed: {e}"));
    }
    let mut owned: Vec<Vec<SignedEdge>> = timed.to_vec();
    let mut covers = Vec::with_capacity(owned.len());
    for b in &owned {
        total += b.len() as u64;
        covers.push(total);
    }
    let stop = AtomicBool::new(false);
    let mut visible_ms = Vec::with_capacity(owned.len());
    let start = Instant::now() + PERIOD;
    let due = |i: usize| start + PERIOD * i as u32;
    let client = std::thread::scope(|scope| {
        let client = scope.spawn(|| query_client(&engine, k, &stop));
        let mut seen = Visibility {
            watch: engine.query_handle(),
            covers: &covers,
            next: 0,
        };
        for (i, batch) in owned.drain(..).enumerate() {
            loop {
                seen.poll(i, &due, &mut visible_ms);
                let now = Instant::now();
                if now >= due(i) {
                    break;
                }
                std::thread::sleep((due(i) - now).min(IDLE));
            }
            let lag = Instant::now().saturating_duration_since(due(i));
            out.gen_lag_ms.push(lag.as_secs_f64() * 1e3);
            tally.attempted += 1;
            if let Err(e) = engine.submit(batch) {
                tally.fail(format!("serve refused batch {i}: {e}"));
            }
            let stats = engine.stats();
            out.queue_lag_max = out.queue_lag_max.max(stats.queue_lag());
            out.staleness_max = out.staleness_max.max(stats.staleness());
        }
        let sent = covers.len();
        let drain_start = Instant::now();
        while seen.next < sent && drain_start.elapsed() < DRAIN_LIMIT {
            seen.poll(sent, &due, &mut visible_ms);
            std::thread::sleep(IDLE);
        }
        tally.attempted += 1;
        if seen.next < sent {
            tally.fail(format!(
                "serve: {} of {sent} batches never became visible",
                sent - seen.next
            ));
        }
        stop.store(true, Ordering::Release);
        client.join().expect("query client panicked")
    });
    let fin = engine.finish();
    out.epochs_published.push(fin.stats.epochs_published as f64);
    out.publish_failures += fin.stats.publish_failures;

    tally.attempted += client.latencies_ms.len() as u64;
    for (before, after) in &client.regressions {
        tally.fail(format!(
            "serve: client saw epoch {after} after epoch {before}"
        ));
    }
    for (snap, answer) in &client.sampled {
        tally.attempted += 1;
        if !answer_query(snap, k).bit_eq(answer) {
            tally.fail(format!(
                "serve: re-answering epoch {} differs from the served answer",
                snap.epoch
            ));
        }
    }
    out.visible_ms.push(visible_ms);
    out.query_ms.push(client.latencies_ms);
}
