//! Supervised worker pool: crash-isolated, deadline-bounded, retrying.
//!
//! Workers pull per-seed tasks off a shared queue and run each one under
//! full supervision:
//!
//! * **Crash isolation** — the attempt executes inside `catch_unwind` on a
//!   helper thread; a panicking run (or detector stage) becomes that
//!   seed's terminal `Failed` outcome, never a dead worker.
//! * **Deadlines** — an attempt still executing past the job's
//!   `run_deadline` has its per-attempt [`CancelToken`] fired, which
//!   drains the in-flight cluster; the overrun is counted and classified
//!   as *transient* (a retry may land under the deadline).
//! * **Retries** — transient failures ([`RunError::is_transient`]) retry
//!   under the job-wide budget with capped exponential backoff and
//!   seeded jitter (the same splitmix64 dice as the transport's fault
//!   injection, so reruns are reproducible).
//! * **Cancellation** — the job's token is observed between attempts and
//!   propagated into running clusters, so cancel latency is bounded by
//!   the cluster's own poll interval, not by run length.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use cvm_dsm::{CancelToken, DsmError};
use cvm_net::{backoff_delay, splitmix64};
use parking_lot::Mutex;

use crate::job::{JobState, SeedOutcome};
use crate::persist::{JournalRecord, OutcomeImage, Persist};
use crate::store::ResultStore;
use crate::workload::{build_config, run_with_config};

/// How often a supervising worker wakes to check deadline and
/// cancellation while its helper thread runs an attempt.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);

/// Grace period after firing an attempt's cancel token before the worker
/// detaches the helper thread and moves on.  Covers the cluster's drain
/// path with wide margin; a helper that outlives it keeps running detached
/// and its (late) result is discarded by the job's terminal-state guard.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// One unit of pool work: run `seed` of `job` to a terminal
/// [`SeedOutcome`].
pub(crate) struct SeedTask {
    pub(crate) job: Arc<JobState>,
    pub(crate) seed: u64,
}

cvm_net::counters! {
    /// Point-in-time copy of [`PoolStats`], for stats queries.
    pub struct PoolStatsSnapshot {
        /// Seed tasks brought to a terminal outcome.
        pub seeds_finished: u64,
        /// Run attempts started (including retries).
        pub attempts: u64,
        /// Attempts that ended in a caught panic.
        pub panics_caught: u64,
        /// Attempts cancelled for overrunning their deadline.
        pub deadline_overruns: u64,
        /// Transient failures that were retried.
        pub retries: u64,
        /// Helper threads detached after the drain grace expired.
        pub detached_helpers: u64,
        /// Attempts currently under supervision.  A detached helper leaves
        /// the gauge when its supervisor gives up on it — its late result is
        /// discarded anyway — so drain-time accounting can never be pinned by
        /// a straggler that will not exit.
        pub active_helpers: u64,
    }
    /// Pool-wide supervision counters.
    atomic pub struct PoolStats {}
}

/// Decrements the active-helper gauge on *every* exit from supervision —
/// normal completion, cancellation, and the detach path alike.  Detach
/// used to be the leak: a supervisor walking away from a stuck helper
/// without releasing the gauge left drain deadlines counting a worker
/// that would never report back.
struct ActiveGuard<'a>(&'a AtomicU64);

impl<'a> ActiveGuard<'a> {
    fn arm(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        ActiveGuard(gauge)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Everything a worker thread needs to supervise attempts.
struct WorkerCtx {
    store: Arc<ResultStore>,
    stats: Arc<PoolStats>,
    persist: Arc<Persist>,
    drain_grace: Duration,
}

/// The pool: a fixed set of supervising workers over a shared task queue.
pub(crate) struct WorkerPool {
    tx: Option<Sender<SeedTask>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl WorkerPool {
    /// Spawns `workers` supervising threads, merging results into `store`
    /// and journaling lifecycle records through `persist`.
    pub(crate) fn new(workers: usize, store: Arc<ResultStore>, persist: Arc<Persist>) -> Self {
        WorkerPool::with_grace(workers, store, persist, DRAIN_GRACE)
    }

    /// [`new`](Self::new) with an explicit detach grace, so tests can
    /// exercise the detach path without waiting out the production 10 s.
    pub(crate) fn with_grace(
        workers: usize,
        store: Arc<ResultStore>,
        persist: Arc<Persist>,
        drain_grace: Duration,
    ) -> Self {
        let (tx, rx) = unbounded::<SeedTask>();
        // mpsc receivers are single-consumer: workers share it through a
        // mutex, holding the lock only for the dequeue itself.
        let rx = Arc::new(Mutex::new(rx));
        let stats = Arc::new(PoolStats::default());
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let ctx = WorkerCtx {
                    store: Arc::clone(&store),
                    stats: Arc::clone(&stats),
                    persist: Arc::clone(&persist),
                    drain_grace,
                };
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &ctx))
                    .expect("spawn service worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            stats,
        }
    }

    /// Enqueues one seed task.
    pub(crate) fn submit(&self, task: SeedTask) {
        if let Some(tx) = &self.tx {
            // Send only fails after shutdown dropped the receiver side,
            // and the daemon stops admitting before shutting the pool.
            let _ = tx.send(task);
        }
    }

    /// The supervision counters, shared: they stay readable while the pool
    /// is locked for a shutdown.
    pub(crate) fn counters(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    /// Supervision counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> PoolStatsSnapshot {
        self.stats.snapshot()
    }

    /// Closes the queue and joins every worker.  Already-queued tasks
    /// still run to a terminal outcome (fire the jobs' cancel tokens
    /// first for a fast drain).
    pub(crate) fn shutdown(&mut self) {
        self.tx = None; // Disconnect: workers exit once the queue drains.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Mutex<Receiver<SeedTask>>, ctx: &WorkerCtx) {
    loop {
        // Dequeue under the lock, run without it.
        let task = {
            let guard = rx.lock();
            guard.recv_timeout(Duration::from_millis(20))
        };
        match task {
            Ok(task) => run_seed(&task, ctx),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What one supervised attempt produced.
enum Attempt {
    Done(Box<cvm_dsm::RunReport>),
    /// The job's token cancelled the attempt.
    Cancelled,
    /// Failed; retryable iff `transient`.
    Failed {
        error: String,
        transient: bool,
    },
}

/// Runs `task.seed` to a terminal outcome: attempts, retries, recording.
///
/// Persistence is write-ahead throughout: the `SeedDone` record (with the
/// full outcome image — fingerprints and rendered text for a completed
/// run) is journaled *before* the in-memory store merge and the job's
/// outcome recording, so a crash at any point leaves the journal at least
/// as informed as the state it shadows.
fn run_seed(task: &SeedTask, ctx: &WorkerCtx) {
    let (store, stats) = (&ctx.store, &ctx.stats);
    let job = &task.job;
    let seed = task.seed;
    job.note_started();

    let mut retries: u32 = 0;
    let mut synthetic_left = job.spec.flaky_first;
    let (outcome, image) = loop {
        if job.cancel_requested() {
            break (SeedOutcome::Cancelled, OutcomeImage::Cancelled);
        }
        if retries > 0 {
            // Capped exponential backoff with seeded jitter, keyed so
            // each (job, seed, attempt) sleeps a reproducible interval.
            let key = splitmix64(job.id.0 ^ seed.rotate_left(17));
            std::thread::sleep(backoff_delay(u64::from(retries), key));
        }
        stats.attempts.fetch_add(1, Ordering::Relaxed);

        let attempt = if synthetic_left > 0 {
            // Scripted supervision fault: a transient failure before any
            // real run, exercising the retry path deterministically.
            synthetic_left -= 1;
            Attempt::Failed {
                error: "injected transient fault (flaky_first)".into(),
                transient: true,
            }
        } else {
            run_attempt(task, ctx)
        };

        match attempt {
            Attempt::Done(report) => {
                let image = OutcomeImage::from_report(&report, retries);
                ctx.persist.record(&JournalRecord::SeedDone {
                    job: job.id,
                    seed,
                    outcome: image.clone(),
                });
                job.note_recovery(&report.recovery);
                for evicted in store.merge(job.id, seed, &report) {
                    ctx.persist.record(&JournalRecord::Evicted { job: evicted });
                }
                break (
                    SeedOutcome::Done {
                        races: report.races.len(),
                        retries,
                    },
                    image,
                );
            }
            Attempt::Cancelled => break (SeedOutcome::Cancelled, OutcomeImage::Cancelled),
            Attempt::Failed { error, transient } => {
                if transient && job.try_consume_retry() {
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                    retries += 1;
                    continue;
                }
                let image = OutcomeImage::Failed {
                    error: error.clone(),
                    transient,
                    retries,
                };
                break (
                    SeedOutcome::Failed {
                        error,
                        transient,
                        retries,
                    },
                    image,
                );
            }
        }
    };

    // The `Done` arm already journaled its record (ahead of the merge);
    // failure and cancellation images are journaled here.
    if !matches!(outcome, SeedOutcome::Done { .. }) {
        ctx.persist.record(&JournalRecord::SeedDone {
            job: job.id,
            seed,
            outcome: image,
        });
    }

    stats.seeds_finished.fetch_add(1, Ordering::Relaxed);
    if job.record_outcome(seed, outcome) {
        // Last seed recorded: the job just went terminal.
        ctx.persist.record(&JournalRecord::Sealed { job: job.id });
        for evicted in store.seal(job.id) {
            ctx.persist.record(&JournalRecord::Evicted { job: evicted });
        }
    }
}

/// One crash-isolated, deadline-supervised attempt.
fn run_attempt(task: &SeedTask, ctx: &WorkerCtx) -> Attempt {
    let stats = &ctx.stats;
    let job = &task.job;
    let seed = task.seed;
    let _active = ActiveGuard::arm(&stats.active_helpers);
    let attempt_cancel = CancelToken::new();
    let mut cfg = build_config(&job.spec, seed);
    cfg.cancel = Some(attempt_cancel.clone());

    let (tx, rx) = std::sync::mpsc::channel();
    let spec = job.spec.clone();
    let helper = std::thread::Builder::new()
        .name(format!("svc-run-{}-s{seed}", job.id))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| run_with_config(&spec, cfg)));
            let _ = tx.send(result);
        })
        .expect("spawn attempt helper");

    let started = Instant::now();
    let deadline = job.spec.run_deadline;
    let mut cancelled_for = None::<Attempt>; // Why we fired the token.
    loop {
        match rx.recv_timeout(SUPERVISE_TICK) {
            Ok(result) => {
                let _ = helper.join();
                let outcome = match result {
                    Ok(Ok(report)) => Attempt::Done(Box::new(report)),
                    Ok(Err(err)) => {
                        if err.error == DsmError::Cancelled {
                            // We fired the token; report the reason, not
                            // the sentinel error.
                            cancelled_for.unwrap_or(Attempt::Cancelled)
                        } else {
                            Attempt::Failed {
                                error: err.to_string(),
                                transient: err.is_transient(),
                            }
                        }
                    }
                    Err(payload) => {
                        stats.panics_caught.fetch_add(1, Ordering::Relaxed);
                        Attempt::Failed {
                            error: format!("run panicked: {}", panic_text(&payload)),
                            transient: false,
                        }
                    }
                };
                return outcome;
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(why) = cancelled_for.take() {
                    if started.elapsed() > deadline + ctx.drain_grace {
                        // The cluster refused to drain: detach the helper
                        // and report; a late duplicate recording is
                        // rejected by the job's terminal-state guard.
                        stats.detached_helpers.fetch_add(1, Ordering::Relaxed);
                        return why;
                    }
                    cancelled_for = Some(why);
                    continue;
                }
                if job.cancel_requested() {
                    attempt_cancel.cancel();
                    cancelled_for = Some(Attempt::Cancelled);
                } else if started.elapsed() > deadline {
                    stats.deadline_overruns.fetch_add(1, Ordering::Relaxed);
                    job.note_overrun();
                    attempt_cancel.cancel();
                    cancelled_for = Some(Attempt::Failed {
                        error: format!("run overran its {}ms deadline", deadline.as_millis()),
                        transient: true, // A retry may land under it.
                    });
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The helper died without sending: catch_unwind makes
                // this unreachable short of an abort, but classify it
                // terminally rather than looping forever.
                return Attempt::Failed {
                    error: "attempt helper vanished".into(),
                    transient: false,
                };
            }
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobPhase, JobSpec};
    use crate::workload::Workload;

    fn pool_and_store(workers: usize) -> (WorkerPool, Arc<ResultStore>) {
        let store = Arc::new(ResultStore::new(u64::MAX));
        (
            WorkerPool::new(workers, Arc::clone(&store), Persist::disabled()),
            store,
        )
    }

    fn wait_terminal(job: &Arc<JobState>, budget: Duration) {
        let start = Instant::now();
        while !job.is_terminal() {
            assert!(
                start.elapsed() < budget,
                "job never reached a terminal state"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn runs_a_job_to_done_and_dedups() {
        let (pool, store) = pool_and_store(2);
        let spec = JobSpec::new(Workload::RacyCounter { epochs: 2 }, 2, 1, 3);
        let job = Arc::new(JobState::new(JobId(1), spec));
        for seed in job.spec.seeds() {
            pool.submit(SeedTask {
                job: Arc::clone(&job),
                seed,
            });
        }
        wait_terminal(&job, Duration::from_secs(30));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Done);
        assert_eq!(snap.seeds_done, 3);
        let races = store.races(JobId(1)).expect("sealed results");
        assert!(!races.races.is_empty(), "racy_counter must race");
        assert!(
            races.reports_merged > races.races.len() as u64,
            "3 seeds dedup"
        );
    }

    #[test]
    fn flaky_first_retries_then_succeeds() {
        let (pool, _store) = pool_and_store(1);
        let mut spec = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 5, 1);
        spec.flaky_first = 2;
        spec.retry_budget = 3;
        let job = Arc::new(JobState::new(JobId(2), spec));
        pool.submit(SeedTask {
            job: Arc::clone(&job),
            seed: 5,
        });
        wait_terminal(&job, Duration::from_secs(30));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Done);
        assert_eq!(snap.retries, 2, "both injected faults retried");
        assert_eq!(
            job.outcome(5),
            Some(SeedOutcome::Done {
                races: 0,
                retries: 2
            })
        );
        assert_eq!(pool.stats().retries, 2);
    }

    #[test]
    fn exhausted_budget_turns_transient_into_failed() {
        let (pool, _store) = pool_and_store(1);
        let mut spec = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 5, 1);
        spec.flaky_first = 5;
        spec.retry_budget = 2;
        let job = Arc::new(JobState::new(JobId(3), spec));
        pool.submit(SeedTask {
            job: Arc::clone(&job),
            seed: 5,
        });
        wait_terminal(&job, Duration::from_secs(30));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Failed);
        assert_eq!(snap.retries, 2);
        match job.outcome(5) {
            Some(SeedOutcome::Failed {
                transient, retries, ..
            }) => {
                assert!(transient, "final failure was transient, budget spent");
                assert_eq!(retries, 2);
            }
            other => panic!("expected Failed outcome, got {other:?}"),
        }
    }

    #[test]
    fn stage_panic_is_caught_and_terminal() {
        let (pool, _store) = pool_and_store(1);
        let mut spec = JobSpec::new(Workload::DisjointGrid { epochs: 3 }, 2, 9, 1);
        spec.pipelined = true;
        spec.stage_panic_epoch = Some(1);
        let job = Arc::new(JobState::new(JobId(4), spec));
        pool.submit(SeedTask {
            job: Arc::clone(&job),
            seed: 9,
        });
        wait_terminal(&job, Duration::from_secs(30));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Failed);
        assert_eq!(snap.retries, 0, "panics are terminal, never retried");
        let err = snap.first_error.expect("error recorded");
        assert!(
            err.contains("panic") || err.contains("stage"),
            "error names the panic: {err}"
        );
    }

    #[test]
    fn deadline_overrun_is_transient_and_counted() {
        let (pool, _store) = pool_and_store(1);
        let mut spec = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 50,
                dwell_ms: 100,
            },
            2,
            3,
            1,
        );
        spec.run_deadline = Duration::from_millis(150);
        spec.retry_budget = 1;
        let job = Arc::new(JobState::new(JobId(5), spec));
        pool.submit(SeedTask {
            job: Arc::clone(&job),
            seed: 3,
        });
        wait_terminal(&job, Duration::from_secs(60));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Failed);
        assert!(
            snap.deadline_overruns >= 2,
            "first try and the one retry overrun"
        );
        assert_eq!(snap.retries, 1, "overrun consumed the retry budget");
        let err = snap.first_error.expect("error recorded");
        assert!(err.contains("deadline"), "error names the overrun: {err}");
    }

    #[test]
    fn cancellation_reaches_queued_and_running_seeds() {
        let (pool, _store) = pool_and_store(1);
        // Long-dwell runs on one worker: later seeds sit queued while the
        // first runs.
        let spec = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 100,
                dwell_ms: 50,
            },
            2,
            1,
            3,
        );
        let job = Arc::new(JobState::new(JobId(6), spec));
        for seed in job.spec.seeds() {
            pool.submit(SeedTask {
                job: Arc::clone(&job),
                seed,
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        job.cancel();
        wait_terminal(&job, Duration::from_secs(30));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Cancelled);
        assert_eq!(
            snap.seeds_cancelled, 3,
            "running and queued seeds cancelled"
        );
    }

    #[test]
    fn shutdown_finishes_queued_work() {
        let (mut pool, _store) = pool_and_store(2);
        let spec = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 1, 4);
        let job = Arc::new(JobState::new(JobId(7), spec));
        for seed in job.spec.seeds() {
            pool.submit(SeedTask {
                job: Arc::clone(&job),
                seed,
            });
        }
        pool.shutdown();
        // Shutdown drains the queue before joining: all seeds terminal.
        assert!(job.is_terminal());
        assert_eq!(job.snapshot().phase, JobPhase::Done);
    }

    #[test]
    fn detached_helper_releases_the_active_gauge() {
        // A short grace plus a workload that dwells far past it forces
        // the detach path: the supervisor walks away from the helper.
        let store = Arc::new(ResultStore::new(u64::MAX));
        let pool = WorkerPool::with_grace(
            1,
            Arc::clone(&store),
            Persist::disabled(),
            Duration::from_millis(50),
        );
        let mut spec = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 1,
                dwell_ms: 400,
            },
            2,
            3,
            1,
        );
        spec.run_deadline = Duration::from_millis(50);
        spec.retry_budget = 0;
        let job = Arc::new(JobState::new(JobId(8), spec));
        pool.submit(SeedTask {
            job: Arc::clone(&job),
            seed: 3,
        });
        wait_terminal(&job, Duration::from_secs(30));
        assert_eq!(job.snapshot().phase, JobPhase::Failed);
        let stats = pool.stats();
        assert!(
            stats.detached_helpers >= 1,
            "dwell past grace must detach: {stats:?}"
        );
        assert_eq!(
            stats.active_helpers, 0,
            "a detached helper must still release the active gauge"
        );
    }
}
