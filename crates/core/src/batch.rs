//! Parallel batch evaluation.
//!
//! Every design evaluation is independent and deterministic, which makes
//! design-space sweeps — comparison matrices, seed ensembles, ablations —
//! embarrassingly parallel. [`evaluate_many_controlled`], the one batch
//! entry point, fans a batch of [`DesignSpec`]s out over a scoped worker
//! pool and returns results in spec order regardless of how the scheduler
//! interleaved them, so callers observe exactly the serial semantics, only
//! faster:
//!
//! * **Work stealing, ordered results.** Workers claim the next un-started
//!   spec from a shared atomic counter (long evaluations don't convoy short
//!   ones behind a static partition) and record results by index.
//! * **Shared artifact cache.** Every batch shares a tiered
//!   [`ArtifactCache`] (see [`crate::artifacts`]): specs whose topology
//!   sub-spec hashes equal generate their network once (the Generate
//!   tier), and specs agreeing on everything a stage tier reads — same
//!   hall, placement and cabling, differing only in, say, fault scenarios
//!   or yield trials — *adopt* that tier's cached artifacts and re-run
//!   only the stages that read the differing fields. Sweeps that vary a
//!   few knobs over a fixed design skip nearly the whole pipeline.
//! * **Park and switch.** The snapshot tiers are single-flight: one state
//!   computes a key while others that reach it are told it is in flight.
//!   A worker whose spec reaches such a key *parks* the spec, with the
//!   artifacts it has, in a pool all the batch's workers share, and takes
//!   other work: a parked spec whose key has landed (or been given up),
//!   else the next un-started spec, else — with neither — it waits on the
//!   oldest parked spec's key. Every key in flight belongs to a state that
//!   is running a stage, so the wait ends. Two workers that start specs
//!   with a shared tier key thus compute it once, and a knob sweep's
//!   second worker runs the knob-specific tiers meanwhile.
//! * **Determinism preserved.** Evaluation never branches on thread
//!   identity or timing, and cached generation returns the same bytes the
//!   cold path would, so reports are byte-identical at any job count.
//! * **Failure isolation.** A spec that panics mid-evaluation (e.g. a
//!   zero-technician schedule) is caught with [`std::panic::catch_unwind`]
//!   and lands as `Err(EvalError::Panicked { .. })` in its own slot —
//!   serial and parallel paths alike — so a thousand-scenario sweep
//!   degrades by one result instead of aborting the batch. The stage
//!   executor ([`crate::stages`]) marks the running stage in a
//!   thread-local, so the error names the stage that died.
//! * **Deadlines, cancellation, retry, supervision.**
//!   Every batch takes a [`BatchControl`]: a batch-wide [`CancelToken`],
//!   per-spec timeouts and a whole-batch deadline
//!   (checked at every stage boundary — completed slots keep their
//!   reports, unfinished slots get typed `Cancelled`/`TimedOut` errors, in
//!   spec order, never a hang), a seeded bounded-backoff [`RetryPolicy`]
//!   for transient failures, and an optional watchdog supervisor that
//!   cancels specs whose worker heartbeat stalls. The CLI bins parse
//!   `--spec-timeout`/`--deadline`/`--retries` into the one
//!   [`BatchControl`] they pass down. With parking,
//!   one attempt may span several resumes, on different workers; each
//!   resume runs under `catch_unwind` and the heartbeat of the worker
//!   running it, and a spec's timeout keeps running while it is parked (it
//!   fires at the boundary where the spec resumes).
//! * **Per-stage observability.** A batch threads an optional
//!   [`StageTrace`] through every evaluation, accumulating per-stage wall
//!   time and artifact counts across the whole batch —
//!   diagnostics only, never part of the deterministic results.
//! * **Process metrics.** Every batch also records into the global
//!   [`pd_metrics`] registry: deterministic counts (`batch.runs`,
//!   `batch.specs`, `batch.errors`) and scheduling-dependent diagnostics
//!   (`batch.jobs`, `batch.queue.depth`, `batch.worker.claimed`,
//!   `batch.worker.{busy_ns,parks,wait_ns}`,
//!   `cache.gen.{hits,misses,evictions}`) — the class split
//!   `docs/OBSERVABILITY.md` documents.
//!
//! ```
//! use pd_core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl, BatchOptions};
//! use pd_core::{DesignSpec, TopologySpec};
//! use pd_geometry::Gbps;
//!
//! let spec = |name: &str, seed| {
//!     let mut s = DesignSpec::new(
//!         name,
//!         TopologySpec::FatTree { k: 4, speed: Gbps::new(100.0) },
//!     );
//!     s.seed = seed;
//!     s.yields.trials = 5; // keep the doctest quick
//!     s.repair.trials = 2;
//!     s
//! };
//! let specs = vec![spec("a", 1), spec("b", 2), spec("c", 3)];
//!
//! let results = evaluate_many_controlled(
//!     &specs,
//!     &BatchOptions::jobs(2),
//!     &ArtifactCache::new(),
//!     None,
//!     &BatchControl::default(),
//! );
//! assert_eq!(results.len(), 3);
//! // Results arrive in spec order, whatever the thread schedule was.
//! assert_eq!(results[1].as_ref().unwrap().report.name, "b");
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use pd_metrics::{Counter, Gauge, Histogram};
use pd_topology::gen::cache_key;

pub use crate::artifacts::ArtifactCache;

use crate::artifacts::{lock, Flight};
use crate::chaos::ChaosPlan;
use crate::design::DesignSpec;
use crate::pipeline::{EvalError, Evaluation};
use crate::resilience::{monotonic_nanos, CancelToken, Deadline, RetryPolicy, WatchdogConfig};
use crate::stages::{take_current_stage, Stage, StageState, StageTrace};

/// Options for a batch-evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOptions {
    /// Worker threads to fan out over. `0` (the default) means one per
    /// available core; `1` runs serially on the calling thread. The
    /// effective pool never exceeds the batch size.
    pub jobs: usize,
}

impl BatchOptions {
    /// Options with an explicit worker count (`0` = one per core).
    pub fn jobs(jobs: usize) -> Self {
        Self { jobs }
    }

    /// The worker count actually used for a batch of `batch_len` specs.
    pub fn effective_jobs(&self, batch_len: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        };
        requested.min(batch_len).max(1)
    }
}

/// Inclusive power-of-two bucket bounds shared by the batch-engine
/// histograms (queue depths and per-worker claim counts are both batch-
/// sized quantities).
const BATCH_SIZE_BUCKETS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Cached handles for the batch engine's global metrics.
///
/// `batch.{runs,specs,errors}` are deterministic counts — which specs a
/// batch holds and which of them fail is a pure function of the workload.
/// Everything observing the scheduler is a diagnostic: `batch.jobs` (the
/// last effective pool size), `batch.queue.depth` (remaining specs at each
/// work-stealing claim), `batch.worker.claimed` (specs each worker
/// started), `batch.worker.busy_ns` (summed time workers spent running
/// specs, without retry backoff or waits — the occupancy numerator, with
/// `batch.jobs` × elapsed as the denominator), `batch.worker.parks` (specs
/// parked on an in-flight tier key) and `batch.worker.wait_ns` (time
/// workers spent waiting for one, having no other work).
struct BatchMetrics {
    batches: Arc<Counter>,
    specs: Arc<Counter>,
    errors: Arc<Counter>,
    jobs: Arc<Gauge>,
    queue_depth: Arc<Histogram>,
    worker_claimed: Arc<Histogram>,
    worker_busy_ns: Arc<Counter>,
    worker_parks: Arc<Counter>,
    worker_wait_ns: Arc<Counter>,
    /// Resilience diagnostics — all wall-clock-dependent (which spec times
    /// out, stalls, or gets retried depends on scheduling), so none may
    /// sit in a byte-compared counts section.
    timeouts: Arc<Counter>,
    cancelled: Arc<Counter>,
    retries: Arc<Counter>,
    watchdog_stalls: Arc<Counter>,
    watchdog_cancels: Arc<Counter>,
}

fn batch_metrics() -> &'static BatchMetrics {
    static CELLS: OnceLock<BatchMetrics> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = pd_metrics::global();
        BatchMetrics {
            batches: reg.counter("batch.runs"),
            specs: reg.counter("batch.specs"),
            errors: reg.counter("batch.errors"),
            jobs: reg.diagnostic_gauge("batch.jobs"),
            queue_depth: reg.diagnostic_histogram("batch.queue.depth", &BATCH_SIZE_BUCKETS),
            worker_claimed: reg.diagnostic_histogram("batch.worker.claimed", &BATCH_SIZE_BUCKETS),
            worker_busy_ns: reg.diagnostic_counter("batch.worker.busy_ns"),
            worker_parks: reg.diagnostic_counter("batch.worker.parks"),
            worker_wait_ns: reg.diagnostic_counter("batch.worker.wait_ns"),
            timeouts: reg.diagnostic_counter("batch.timeouts"),
            cancelled: reg.diagnostic_counter("batch.cancelled"),
            retries: reg.diagnostic_counter("batch.retries"),
            watchdog_stalls: reg.diagnostic_counter("batch.watchdog.stalls"),
            watchdog_cancels: reg.diagnostic_counter("batch.watchdog.cancels"),
        }
    })
}

/// Resilience controls for a batch run: cancellation, deadlines, retry,
/// watchdog supervision, and the chaos test hook.
///
/// [`BatchControl::default`] is fully inert — no timeouts, no retries, a
/// never-cancelled token.
#[derive(Debug, Clone, Default)]
pub struct BatchControl {
    /// Batch-wide cancellation: cancelling this token stops every spec at
    /// its next stage boundary ([`EvalError::Cancelled`] in unfinished
    /// slots, completed slots untouched).
    pub cancel: CancelToken,
    /// Per-spec wall-clock budget; an attempt exceeding it gets
    /// [`EvalError::TimedOut`].
    pub spec_timeout: Option<Duration>,
    /// Whole-batch deadline; combined per spec with `spec_timeout` via
    /// [`Deadline::earliest`], and also bounds retry backoff sleeps.
    pub batch_deadline: Option<Deadline>,
    /// Retry policy for transient failures (panics and local — watchdog or
    /// chaos — cancellations). The default never retries.
    pub retry: RetryPolicy,
    /// When set, a supervisor thread watches per-worker heartbeats and
    /// cancels specs stuck past the stall threshold.
    pub watchdog: Option<WatchdogConfig>,
    /// Chaos injection plan (tests only; `None` in production).
    pub chaos: Option<Arc<ChaosPlan>>,
}

/// One worker's supervision surface: the heartbeat the stage executor
/// stamps at every boundary (0 = idle) and the cancel token of the attempt
/// currently running on that worker. The token sits behind a mutex so the
/// watchdog can re-check staleness *under the lock* before cancelling —
/// otherwise it could race the worker finishing one spec and cancel the
/// fresh token of the next.
#[derive(Default)]
struct WorkerSlot {
    heartbeat: AtomicU64,
    active: Mutex<Option<CancelToken>>,
}

/// The watchdog supervisor loop: scan worker heartbeats every quarter
/// threshold; a worker stuck past the stall threshold has its current
/// attempt's token cancelled. Cooperative by construction — a stage body
/// spinning forever cannot be preempted, only cancelled at its next
/// boundary — which is the honest limit of in-process supervision.
fn supervise(
    slots: &[WorkerSlot],
    cfg: &WatchdogConfig,
    done: &AtomicBool,
    metrics: &'static BatchMetrics,
) {
    let threshold_ns = cfg.stall_threshold.as_nanos() as u64;
    let interval = (cfg.stall_threshold / 4).max(Duration::from_millis(1));
    let stale = |slot: &WorkerSlot| {
        let hb = slot.heartbeat.load(Ordering::Acquire);
        hb != 0 && monotonic_nanos().saturating_sub(hb) > threshold_ns
    };
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(interval);
        for slot in slots {
            if !stale(slot) {
                continue;
            }
            let active = lock(&slot.active);
            // Re-check under the lock: between the scan and the lock the
            // worker may have finished the spec and started a fresh one.
            if !stale(slot) {
                continue;
            }
            if let Some(token) = active.as_ref() {
                if !token.is_cancelled() {
                    metrics.watchdog_stalls.incr();
                    token.cancel();
                    metrics.watchdog_cancels.incr();
                }
            }
        }
    }
}

/// One spec's current attempt: its state, which carries the artifacts it
/// has so far across parks, resumes and workers, and the attempt's cancel
/// token (the watchdog's handle while a worker runs it).
struct Job<'a> {
    index: usize,
    attempt: u32,
    token: CancelToken,
    state: StageState<'a>,
}

/// One batch call's work, shared by its workers: the specs not yet
/// started, the specs parked on an in-flight tier key, and the results.
struct Batch<'a> {
    specs: &'a [DesignSpec],
    cache: &'a ArtifactCache,
    trace: Option<&'a StageTrace>,
    control: &'a BatchControl,
    /// The next spec no worker has started.
    next: AtomicUsize,
    /// Parked specs with the flight each waits on, oldest first.
    parked: Mutex<VecDeque<(Arc<Flight>, Job<'a>)>>,
    /// One slot per spec, in spec order, filled as specs finish.
    results: Mutex<Vec<Option<Result<Evaluation, EvalError>>>>,
}

/// One worker's diagnostics, recorded into [`BatchMetrics`] when it ends.
/// Only pool workers record: a one-worker call runs on the caller's
/// thread, and keeps the single-spec path free of shared counters.
#[derive(Default)]
struct Tally {
    pooled: bool,
    claimed: u64,
    busy: Duration,
    parks: u64,
    waited: Duration,
}

impl<'a> Batch<'a> {
    /// Attempt `attempt` at spec `index`, under a fresh child token: the
    /// watchdog (or chaos) cancelling attempt N must not doom attempt N+1,
    /// while the caller cancelling the batch token still stops everything.
    /// Retry attempts run quiet: `pipeline.<stage>.{runs,artifacts}` count
    /// first attempts only, so wall-clock-dependent retries can never shift
    /// the deterministic counts. The spec timeout starts now and keeps
    /// running while the spec is parked.
    fn start(&self, index: usize, attempt: u32) -> Job<'a> {
        let control = self.control;
        let token = control.cancel.child();
        let mut state = StageState::new(&self.specs[index])
            .with_cancel(&token)
            .quiet(attempt > 1)
            .with_artifacts(self.cache);
        if let Some(trace) = self.trace {
            state = state.traced(trace);
        }
        let deadline = Deadline::earliest(
            control.spec_timeout.map(Deadline::after),
            control.batch_deadline,
        );
        if let Some(deadline) = deadline {
            state = state.with_deadline(deadline);
        }
        if let Some(chaos) = control.chaos.as_deref() {
            state = state.with_chaos(chaos);
        }
        Job {
            index,
            attempt,
            token,
            state,
        }
    }

    /// A worker's next job, in order of preference: a parked spec whose
    /// key has landed or been given up; the next spec nobody has started;
    /// the oldest parked spec, once its key is done. `None` when neither
    /// kind is left. Waiting always ends: every key in flight is held by a
    /// state that is running a stage body.
    fn take(&self, tally: &mut Tally) -> Option<Job<'a>> {
        let mut parked = lock(&self.parked);
        if let Some(i) = parked.iter().position(|(flight, _)| flight.get().is_some()) {
            return parked.remove(i).map(|(_, job)| job);
        }
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        if index < self.specs.len() {
            drop(parked);
            if tally.pooled {
                batch_metrics()
                    .queue_depth
                    .record((self.specs.len() - index) as u64);
            }
            tally.claimed += 1;
            return Some(self.start(index, 1));
        }
        let (flight, job) = parked.pop_front()?;
        drop(parked);
        // An interrupted batch need not wait: the resumed spec stops at its
        // first boundary.
        let control = self.control;
        if !control.cancel.is_cancelled() && control.batch_deadline.is_none_or(|d| !d.expired()) {
            let started = Instant::now();
            flight.wait();
            tally.waited += started.elapsed();
        }
        Some(job)
    }

    /// Runs `job` until its spec has a result, or parks it (`None`) on the
    /// flight of a tier key another state holds. A failed attempt is
    /// retried per the policy, on this worker. Each resume runs inside
    /// `catch_unwind`, so a panic lands as [`EvalError::Panicked`] with
    /// stage attribution; an attempt may span several resumes, on
    /// different workers.
    fn run(
        &self,
        mut job: Job<'a>,
        slot: Option<&'a WorkerSlot>,
        tally: &mut Tally,
    ) -> Option<Result<Evaluation, EvalError>> {
        let control = self.control;
        let metrics = batch_metrics();
        loop {
            if let Some(slot) = slot {
                slot.heartbeat
                    .store(monotonic_nanos().max(1), Ordering::Release);
                *lock(&slot.active) = Some(job.token.clone());
                job.state = job.state.with_heartbeat(&slot.heartbeat);
            }
            let started = tally.pooled.then(Instant::now);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.state.advance(Stage::Report)
            }))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(EvalError::Panicked {
                    stage: take_current_stage(),
                    message,
                })
            });
            if let Some(started) = started {
                tally.busy += started.elapsed();
            }
            if let Some(slot) = slot {
                *lock(&slot.active) = None;
                slot.heartbeat.store(0, Ordering::Release);
            }
            let err = match outcome {
                Ok(None) => return Some(Ok(job.state.into_evaluation())),
                Ok(Some(flight)) => {
                    tally.parks += 1;
                    lock(&self.parked).push_back((flight, job));
                    return None;
                }
                Err(e) => e,
            };
            match &err {
                EvalError::TimedOut { .. } => metrics.timeouts.incr(),
                EvalError::Cancelled => metrics.cancelled.incr(),
                _ => {}
            }
            // A cancellation is *local* — and retryable — when this attempt's
            // child token fired but the caller's batch token did not: that is
            // the watchdog or a chaos injection, not a shutdown request.
            let local_cancel =
                matches!(err, EvalError::Cancelled) && !control.cancel.is_cancelled();
            let may_retry = job.attempt < control.retry.max_attempts
                && !control.cancel.is_cancelled()
                && control.batch_deadline.is_none_or(|d| !d.expired())
                && (err.is_transient() || local_cancel);
            if !may_retry {
                return Some(Err(err));
            }
            metrics.retries.incr();
            let spec = &self.specs[job.index];
            let mut backoff = control
                .retry
                .backoff_for(job.attempt, cache_key(spec.name.as_bytes()));
            if let Some(d) = control.batch_deadline {
                backoff = backoff.min(d.remaining());
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            job = self.start(job.index, job.attempt + 1);
        }
    }

    /// One worker: takes and runs jobs until none is left, recording each
    /// result in its spec's slot.
    fn work(&self, slot: Option<&'a WorkerSlot>) {
        let mut tally = Tally {
            pooled: slot.is_some(),
            ..Tally::default()
        };
        while let Some(job) = self.take(&mut tally) {
            let index = job.index;
            if let Some(result) = self.run(job, slot, &mut tally) {
                lock(&self.results)[index] = Some(result);
            }
        }
        if tally.pooled {
            let metrics = batch_metrics();
            metrics.worker_claimed.record(tally.claimed);
            metrics.worker_busy_ns.add(tally.busy.as_nanos() as u64);
            metrics.worker_parks.add(tally.parks);
            metrics.worker_wait_ns.add(tally.waited.as_nanos() as u64);
        }
    }
}

/// Evaluates a batch of designs in parallel, through `cache`, under
/// `control`.
///
/// Results come back in spec order, one per input, and are byte-identical
/// to running [`crate::pipeline::evaluate`] serially over the slice — the
/// job count affects wall-clock time only. Specs with equal topology
/// sub-specs generate once and specs agreeing on what a stage tier reads
/// reuse its artifacts; pass a fresh [`ArtifactCache::new`] for a
/// self-contained batch, or a caller-owned cache to share work across
/// batches (e.g. an experiment that sweeps one knob per batch over a fixed
/// topology set).
///
/// With `Some(trace)`, every evaluation in the batch records its stage
/// wall times and artifact counts into it (atomics, shared safely across
/// workers). The trace is observability only — it never changes results,
/// which stay byte-identical to an untraced run at any job count.
///
/// The partial-result contract under interruption: the returned vector
/// always has exactly one slot per input spec, in spec order. Specs that
/// completed before the interruption keep their `Ok(Evaluation)` —
/// byte-identical to an uninterrupted run — and unfinished specs carry a
/// typed [`EvalError::Cancelled`] / [`EvalError::TimedOut`]. Never a hang
/// (interruption is checked at every stage boundary, including the one
/// where a parked spec resumes), never a dropped slot.
pub fn evaluate_many_controlled(
    specs: &[DesignSpec],
    opts: &BatchOptions,
    cache: &ArtifactCache,
    trace: Option<&StageTrace>,
    control: &BatchControl,
) -> Vec<Result<Evaluation, EvalError>> {
    let jobs = opts.effective_jobs(specs.len());
    let metrics = batch_metrics();
    if !specs.is_empty() {
        metrics.batches.incr();
        metrics.specs.add(specs.len() as u64);
        metrics.jobs.set(jobs as i64);
    }
    // One worker and no watchdog to host: run on the calling thread, with
    // no worker slot.
    let inline = jobs == 1 && control.watchdog.is_none();
    let pool = if inline { 0 } else { jobs };
    let slots: Vec<WorkerSlot> = (0..pool).map(|_| WorkerSlot::default()).collect();
    let batch = Batch {
        specs,
        cache,
        trace,
        control,
        next: AtomicUsize::new(0),
        parked: Mutex::new(VecDeque::new()),
        results: Mutex::new(specs.iter().map(|_| None).collect()),
    };
    if inline {
        batch.work(None);
    } else {
        // Workers record results by spec index, so output order never
        // depends on the schedule. With a watchdog configured, jobs=1 also
        // runs here (one worker + the supervisor in the same scope).
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let watchdog = control.watchdog.clone().map(|cfg| {
                let slots = &slots;
                let done = &done;
                s.spawn(move || supervise(slots, &cfg, done, metrics))
            });
            let handles: Vec<_> = slots
                .iter()
                .map(|slot| {
                    let batch = &batch;
                    s.spawn(move || batch.work(Some(slot)))
                })
                .collect();
            // Spec panics are caught inside the worker loop, so a join can
            // only fail on a panic in the loop plumbing itself; absorb it
            // rather than poisoning the whole batch — the specs that worker
            // held surface below as `Panicked` slots. The watchdog is
            // stopped only after every worker has joined, so a stall can
            // never outlive supervision.
            for handle in handles {
                let _ = handle.join();
            }
            done.store(true, Ordering::Release);
            if let Some(w) = watchdog {
                let _ = w.join();
            }
        });
    }

    let results: Vec<Result<Evaluation, EvalError>> = batch
        .results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(EvalError::Panicked {
                    stage: None,
                    message: "batch worker died before recording a result".into(),
                })
            })
        })
        .collect();
    metrics
        .errors
        .add(results.iter().filter(|r| r.is_err()).count() as u64);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::TopologySpec;
    use pd_geometry::Gbps;
    use pd_topology::gen::JellyfishParams;

    /// A self-contained batch under an inert control.
    fn run(specs: &[DesignSpec], jobs: usize) -> Vec<Result<Evaluation, EvalError>> {
        run_with(specs, jobs, &ArtifactCache::new())
    }

    fn run_with(
        specs: &[DesignSpec],
        jobs: usize,
        cache: &ArtifactCache,
    ) -> Vec<Result<Evaluation, EvalError>> {
        let control = BatchControl::default();
        evaluate_many_controlled(specs, &BatchOptions::jobs(jobs), cache, None, &control)
    }

    fn quick(name: &str, topo: TopologySpec) -> DesignSpec {
        let mut s = DesignSpec::new(name, topo);
        s.yields.trials = 5;
        s.repair.trials = 2;
        s
    }

    fn jellyfish(seed: u64) -> TopologySpec {
        TopologySpec::Jellyfish(JellyfishParams {
            seed,
            ..JellyfishParams::default()
        })
    }

    fn mixed_batch() -> Vec<DesignSpec> {
        // Six specs over three distinct topologies: the fat-trees and the
        // seed-7 jellyfishes share generation; seed 8 stands alone.
        let ft = TopologySpec::FatTree {
            k: 4,
            speed: Gbps::new(100.0),
        };
        vec![
            quick("ft-a", ft.clone()),
            quick("jf7-a", jellyfish(7)),
            quick("ft-b", ft),
            quick("jf7-b", jellyfish(7)),
            quick("jf8", jellyfish(8)),
            quick("jf7-c", jellyfish(7)),
        ]
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let specs = mixed_batch();
        let serial = run(&specs, 1);
        let parallel = run(&specs, 4);
        assert_eq!(serial.len(), specs.len());
        for ((spec, a), b) in specs.iter().zip(&serial).zip(&parallel) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.report.name, spec.name);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn generation_is_shared_across_equal_subspecs() {
        let specs = mixed_batch();
        let cache = ArtifactCache::new();
        // Serial, so adoption order is deterministic: the first spec of
        // each topology generates, and each duplicate — differing from
        // its twin only in name — adopts every tier up to Goodness without
        // ever reaching the generation tier.
        let results = run_with(&specs, 1, &cache);
        assert!(results.iter().all(Result::is_ok));
        let gen = cache.generate();
        assert_eq!(gen.len(), 3);
        assert_eq!(gen.misses(), 3);
        assert_eq!(gen.hits(), 0, "prefix adoption supersedes generation hits");
        let stats = cache.tier_stats();
        let tier = |stage: Stage| stats.iter().find(|t| t.stage == stage).unwrap();
        // The three duplicates (ft-b, jf7-b, jf7-c) each reused work from
        // Place all the way through Goodness…
        assert_eq!(tier(Stage::Place).hits, 3);
        assert_eq!(tier(Stage::Goodness).hits, 3);
        // …but never the Report tier, whose key folds in the spec name.
        assert_eq!(tier(Stage::Report).hits, 0);
        assert_eq!(tier(Stage::Report).misses, specs.len());
        // Every spec stores its own Report snapshot; shared prefixes
        // stored once.
        assert_eq!(tier(Stage::Report).entries, specs.len());
        assert_eq!(tier(Stage::Place).entries, 3);
    }

    #[test]
    fn errors_stay_at_their_spec_index() {
        let mut specs = mixed_batch();
        // Make the middle spec unplaceable (hall far too small).
        specs[2].hall.rows = 1;
        specs[2].hall.slots_per_row = 2;
        let results = run(&specs, 3);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert!(matches!(r, Err(EvalError::Placement(_))));
            } else {
                assert!(r.is_ok(), "spec {i} failed: {:?}", r.as_ref().err());
            }
        }
    }

    #[test]
    fn panicking_spec_is_isolated_to_its_slot() {
        // A zero-technician schedule trips `Schedule::run`'s documented
        // assert — a user-reachable panic in a post-placement stage.
        let mut specs = mixed_batch();
        specs[1].schedule.technicians = 0;

        let parallel = run(&specs, 3);
        for (i, r) in parallel.iter().enumerate() {
            if i == 1 {
                match r {
                    Err(EvalError::Panicked { stage, message }) => {
                        assert!(
                            message.contains("technician"),
                            "unexpected payload: {message}"
                        );
                        // The unwind was observed inside the schedule stage.
                        assert_eq!(*stage, Some(Stage::Schedule));
                    }
                    other => panic!("expected Panicked at slot 1, got {other:?}"),
                }
            } else {
                assert!(r.is_ok(), "sibling spec {i} failed: {:?}", r.as_ref().err());
            }
        }

        // The serial path isolates identically: same ok/err pattern.
        let serial = run(&specs, 1);
        let pattern = |rs: &[Result<Evaluation, EvalError>]| -> Vec<bool> {
            rs.iter().map(Result::is_ok).collect()
        };
        assert_eq!(pattern(&serial), pattern(&parallel));
        assert!(matches!(
            &serial[1],
            Err(EvalError::Panicked {
                stage: Some(Stage::Schedule),
                ..
            })
        ));
    }

    #[test]
    fn traced_batch_counts_stage_runs_without_changing_results() {
        let specs = mixed_batch();
        let cache = ArtifactCache::new();
        let trace = StageTrace::new();
        let traced = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(3),
            &cache,
            Some(&trace),
            &BatchControl::default(),
        );
        let n = specs.len() as u64;
        for stage in Stage::ALL {
            assert_eq!(trace.runs(stage), n, "every spec runs {stage} once");
        }
        // Fault sweeps are disabled in these specs: stage ran, zero work.
        assert_eq!(trace.artifacts(Stage::Faults), 0);
        assert!(trace.artifacts(Stage::Generate) > 0);
        // Tracing never changes the results.
        let plain = run(&specs, 1);
        for (a, b) in traced.iter().zip(&plain) {
            assert_eq!(a.as_ref().unwrap().report, b.as_ref().unwrap().report);
        }
    }

    #[test]
    fn eviction_does_not_change_results() {
        let specs = mixed_batch();
        let unbounded = ArtifactCache::new();
        let tiny = ArtifactCache::with_capacity(1);
        let a = run_with(&specs, 1, &unbounded);
        let b = run_with(&specs, 1, &tiny);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap().report, y.as_ref().unwrap().report);
        }
        assert!(tiny.generate().len() <= 1);
        assert!(tiny.tier_stats().iter().all(|t| t.entries <= 1));
    }

    #[test]
    fn pre_cancelled_batch_returns_typed_slots_in_order() {
        let specs = mixed_batch();
        let control = BatchControl::default();
        control.cancel.cancel();
        for jobs in [1, 3] {
            let results = evaluate_many_controlled(
                &specs,
                &BatchOptions::jobs(jobs),
                &ArtifactCache::new(),
                None,
                &control,
            );
            assert_eq!(results.len(), specs.len(), "never a dropped slot");
            for r in &results {
                assert!(matches!(r, Err(EvalError::Cancelled)), "got {r:?}");
            }
        }
    }

    #[test]
    fn tiny_spec_timeout_times_out_with_the_pending_stage() {
        let specs = mixed_batch();
        let control = BatchControl {
            spec_timeout: Some(Duration::ZERO),
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(2),
            &ArtifactCache::new(),
            None,
            &control,
        );
        for r in &results {
            match r {
                Err(EvalError::TimedOut { .. }) => {}
                other => panic!("expected TimedOut in every slot, got {other:?}"),
            }
        }
    }

    #[test]
    fn expired_batch_deadline_interrupts_everything() {
        let specs = mixed_batch();
        let control = BatchControl {
            batch_deadline: Some(Deadline::after(Duration::ZERO)),
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(3),
            &ArtifactCache::new(),
            None,
            &control,
        );
        assert_eq!(results.len(), specs.len());
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(EvalError::TimedOut { .. }))));
    }

    #[test]
    fn chaos_cancel_hits_only_its_target_slot() {
        let specs = mixed_batch();
        let control = BatchControl {
            chaos: Some(Arc::new(ChaosPlan::new().inject(
                "jf8",
                Stage::Cost,
                crate::chaos::Injection::Cancel,
            ))),
            ..BatchControl::default()
        };
        for jobs in [1, 4] {
            let results = evaluate_many_controlled(
                &specs,
                &BatchOptions::jobs(jobs),
                &ArtifactCache::new(),
                None,
                &control,
            );
            for (spec, r) in specs.iter().zip(&results) {
                if spec.name == "jf8" {
                    assert!(matches!(r, Err(EvalError::Cancelled)), "got {r:?}");
                } else {
                    assert!(
                        r.is_ok(),
                        "sibling {} failed: {:?}",
                        spec.name,
                        r.as_ref().err()
                    );
                }
            }
        }
    }

    #[test]
    fn retry_recovers_a_once_injected_panic_byte_identically() {
        let specs = mixed_batch();
        let baseline = run(&specs, 1);
        let control = BatchControl {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::attempts(2)
            },
            chaos: Some(Arc::new(ChaosPlan::new().inject_once(
                "ft-b",
                Stage::Schedule,
                crate::chaos::Injection::Panic,
            ))),
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(2),
            &ArtifactCache::new(),
            None,
            &control,
        );
        for (b, r) in baseline.iter().zip(&results) {
            assert_eq!(
                b.as_ref().unwrap().report,
                r.as_ref().expect("retry must recover the slot").report
            );
        }
    }

    #[test]
    fn local_chaos_cancel_is_retryable_but_caller_cancel_is_not() {
        let specs = vec![quick("solo", jellyfish(7))];
        // Chaos cancels attempt 1's child token; the retry's fresh child
        // sails past the once-spent injection.
        let control = BatchControl {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::attempts(2)
            },
            chaos: Some(Arc::new(ChaosPlan::new().inject_once(
                "solo",
                Stage::Bundle,
                crate::chaos::Injection::Cancel,
            ))),
            ..BatchControl::default()
        };
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(1),
            &ArtifactCache::new(),
            None,
            &control,
        );
        assert!(
            results[0].is_ok(),
            "local cancel must be retried: {:?}",
            results[0].as_ref().err()
        );

        // Caller-requested cancellation must NOT be retried.
        let control = BatchControl {
            retry: RetryPolicy::attempts(3),
            ..BatchControl::default()
        };
        control.cancel.cancel();
        let results = evaluate_many_controlled(
            &specs,
            &BatchOptions::jobs(1),
            &ArtifactCache::new(),
            None,
            &control,
        );
        assert!(matches!(&results[0], Err(EvalError::Cancelled)));
    }

    #[test]
    fn watchdog_cancels_a_stalled_spec_and_retry_recovers_it() {
        let specs = mixed_batch();
        let baseline = run(&specs, 1);
        // One spec sleeps 400 ms at a boundary; the watchdog's 50 ms stall
        // threshold cancels that attempt, and the retry (injection is
        // once-only, so a fresh control per job count) completes it
        // byte-identically.
        for jobs in [1, 3] {
            let control = BatchControl {
                retry: RetryPolicy {
                    base_backoff: Duration::from_millis(1),
                    ..RetryPolicy::attempts(2)
                },
                watchdog: Some(WatchdogConfig {
                    stall_threshold: Duration::from_millis(50),
                }),
                chaos: Some(Arc::new(ChaosPlan::new().inject_once(
                    "jf7-b",
                    Stage::Repair,
                    crate::chaos::Injection::Delay(Duration::from_millis(400)),
                ))),
                ..BatchControl::default()
            };
            let results = evaluate_many_controlled(
                &specs,
                &BatchOptions::jobs(jobs),
                &ArtifactCache::new(),
                None,
                &control,
            );
            for (b, r) in baseline.iter().zip(&results) {
                match r {
                    Ok(ev) => assert_eq!(b.as_ref().unwrap().report, ev.report),
                    // Scheduling may let the stalled attempt finish before
                    // the watchdog fires twice; the only acceptable error
                    // is the typed cancellation, never a hang or a panic.
                    Err(EvalError::Cancelled) => {}
                    Err(other) => panic!("unexpected error under watchdog: {other}"),
                }
            }
        }
    }

    #[test]
    fn effective_jobs_clamps_sanely() {
        assert_eq!(BatchOptions::jobs(8).effective_jobs(3), 3);
        assert_eq!(BatchOptions::jobs(2).effective_jobs(100), 2);
        assert_eq!(BatchOptions::jobs(5).effective_jobs(0), 1);
        assert!(BatchOptions::jobs(0).effective_jobs(64) >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run(&[], 0).is_empty());
    }

    /// The knob-sweep grid on one small topology: 16 specs that share the
    /// Place, Cable, Twin and Goodness keys, 4 Schedule keys and 8 Cost
    /// keys.
    fn knob_grid() -> Vec<DesignSpec> {
        let base = quick(
            "jf",
            TopologySpec::Jellyfish(JellyfishParams {
                tors: 24,
                network_degree: 6,
                servers_per_tor: 4,
                link_speed: Gbps::new(100.0),
                seed: 3,
            }),
        );
        let mut specs = Vec::new();
        for use_bundles in [true, false] {
            for min_bundle_size in [2, 4] {
                for repair_trials in [1, 2] {
                    for yield_trials in [2, 4] {
                        let mut s = base.clone();
                        s.name = format!(
                            "jf-b{use_bundles}-m{min_bundle_size}-r{repair_trials}-y{yield_trials}"
                        );
                        s.use_bundles = use_bundles;
                        s.min_bundle_size = min_bundle_size;
                        s.repair.trials = repair_trials;
                        s.yields.trials = yield_trials;
                        specs.push(s);
                    }
                }
            }
        }
        specs
    }

    #[test]
    fn each_tier_key_is_computed_once_at_any_job_count() {
        let specs = knob_grid();
        let keys: Vec<_> = specs.iter().map(|s| s.tier_keys().unwrap()).collect();
        let distinct = |tier: usize| {
            let mut k: Vec<u64> = keys.iter().map(|k| k[tier]).collect();
            k.sort_unstable();
            k.dedup();
            k.len()
        };
        for jobs in [1, 2, 8] {
            let cache = ArtifactCache::new();
            assert!(run_with(&specs, jobs, &cache).iter().all(Result::is_ok));
            for (tier, stats) in cache.tier_stats().iter().enumerate() {
                assert_eq!(
                    stats.misses,
                    distinct(tier),
                    "jobs {jobs}: the {} tier computed a key twice",
                    stats.stage
                );
                assert_eq!(stats.hits + stats.misses, specs.len(), "jobs {jobs}");
            }
        }
        // Schedule reads use_bundles and min_bundle_size; Cost adds the
        // yield trials.
        assert_eq!((distinct(3), distinct(4)), (4, 8));
    }

    #[test]
    fn a_panicking_shared_tier_fails_every_spec_that_shares_it() {
        // Two specs share a Schedule key that panics; the second probes it
        // in flight or after the claim was given up, and computes it itself.
        let mut specs = mixed_batch();
        for (i, yield_trials) in [(1, 2), (3, 4)] {
            specs[i] = quick("jf7-doomed", jellyfish(7));
            specs[i].name = format!("jf7-doomed-y{yield_trials}");
            specs[i].yields.trials = yield_trials;
            specs[i].schedule.technicians = 0;
        }
        let keys = (specs[1].tier_keys().unwrap(), specs[3].tier_keys().unwrap());
        assert_eq!(keys.0[3], keys.1[3], "one Schedule key");
        for jobs in [1, 2, 8] {
            let results = run(&specs, jobs);
            for (i, r) in results.iter().enumerate() {
                if i == 1 || i == 3 {
                    assert!(
                        matches!(
                            r,
                            Err(EvalError::Panicked {
                                stage: Some(Stage::Schedule),
                                ..
                            })
                        ),
                        "jobs {jobs}, slot {i}: {r:?}"
                    );
                } else {
                    assert!(r.is_ok(), "jobs {jobs}, slot {i}: {:?}", r.as_ref().err());
                }
            }
        }
    }

    #[test]
    fn cancelling_while_specs_are_parked_gives_typed_slots_in_order() {
        let specs = knob_grid();
        let cache = ArtifactCache::new();
        let control = BatchControl::default();
        // Hold the grid's shared Place key, so every spec parks on it at
        // its first boundary.
        let place_key = specs[0].tier_keys().unwrap()[0];
        let crate::artifacts::Probe::Mine(claim) = cache.tier(0).probe(place_key) else {
            panic!("a fresh cache has the Place key free");
        };
        let results = std::thread::scope(|s| {
            let batch = s.spawn(|| {
                evaluate_many_controlled(&specs, &BatchOptions::jobs(2), &cache, None, &control)
            });
            // Every spec has found the key in flight and parked.
            while cache.tier(0).waits() < specs.len() {
                std::thread::yield_now();
            }
            control.cancel.cancel();
            drop(claim);
            batch.join().unwrap()
        });
        assert_eq!(results.len(), specs.len(), "never a dropped slot");
        for (spec, r) in specs.iter().zip(&results) {
            let name = &spec.name;
            assert!(matches!(r, Err(EvalError::Cancelled)), "{name}: {r:?}");
        }
        assert!(cache.tier_stats().iter().all(|t| t.entries == 0));
    }
}
