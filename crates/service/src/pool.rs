//! Supervised worker pool: crash-isolated, deadline-bounded, retrying.
//!
//! Workers pull per-seed tasks off a shared queue and run each one under
//! full supervision:
//!
//! * **Crash isolation** — the attempt executes inside `catch_unwind` on
//!   the worker's run thread, a long-lived helper each worker starts on
//!   its first attempt and reuses for every later one; a panicking run (or
//!   detector stage) becomes that seed's terminal `Failed` outcome, never a
//!   dead worker or a dead run thread.
//! * **Deadlines** — an attempt still executing past the job's
//!   `run_deadline` has its per-attempt [`CancelToken`] fired, which
//!   drains the in-flight cluster; the overrun is counted and classified
//!   as *transient* (a retry may land under the deadline).
//! * **Retries** — transient failures
//!   ([`RunError::is_transient`](cvm_dsm::RunError::is_transient)) retry
//!   under the job-wide budget with capped exponential backoff and
//!   seeded jitter (the same splitmix64 dice as the transport's fault
//!   injection, so reruns are reproducible).
//! * **Cancellation** — the job's token is observed between attempts and,
//!   within one supervision tick, fired into the running cluster's
//!   per-attempt token; every process then stops at its next barrier,
//!   lock or page fault (a blocked one within the cluster's poll
//!   interval), so cancel latency is bounded by the tick plus one epoch of
//!   application work, not by run length.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use cvm_dsm::{CancelToken, DsmConfig, DsmError, RunError, RunReport};
use cvm_net::{backoff_delay, splitmix64};
use parking_lot::Mutex;

use crate::daemon::LiveJobs;
use crate::job::{JobSpec, JobState};
use crate::persist::{JournalRecord, OutcomeImage, Persist};
use crate::store::ResultStore;
use crate::workload::{build_config, run_with_config};

/// How often a supervising worker wakes to check deadline and
/// cancellation while its run thread runs an attempt.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);

/// Grace period after firing an attempt's cancel token before the worker
/// detaches its run thread and moves on.  Covers the cluster's drain path
/// with wide margin; a run thread that outlives it keeps running detached,
/// and its late result goes to a channel nobody reads.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// One unit of pool work: run `seed` of `job` to a terminal
/// [`OutcomeImage`].
pub(crate) struct SeedTask {
    pub(crate) job: Arc<JobState>,
    pub(crate) seed: u64,
}

cvm_net::counters! {
    /// Point-in-time copy of [`PoolStats`], for stats queries.
    /// No run-to-run comparison reads it, so its fields carry no class.
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
        /// Run threads detached after the drain grace expired.
        pub detached_helpers: u64,
        /// Attempts currently under supervision.  A detached run thread
        /// leaves the gauge when its supervisor gives up on it — its late
        /// result is discarded anyway — so drain-time accounting can never be
        /// pinned by a straggler that will not exit.
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
    index: usize,
    store: Arc<ResultStore>,
    stats: Arc<PoolStats>,
    persist: Arc<Persist>,
    live: Arc<LiveJobs>,
    drain_grace: Duration,
}

/// What one attempt's run returned, or the panic it unwound with.
type RunResult = std::thread::Result<Result<RunReport, RunError>>;

/// A worker's run thread: it takes one attempt at a time over `orders`,
/// runs it under `catch_unwind` and sends the result back over `results`.
///
/// Each `Runner` has channels of its own, so a worker that detaches a
/// stuck run drops the whole `Runner` and the next attempt gets a fresh
/// one: the late result goes to a dropped receiver, never to a later
/// attempt, and the stuck thread exits once that send fails.
struct Runner {
    orders: Sender<(JobSpec, DsmConfig)>,
    results: Receiver<RunResult>,
    thread: JoinHandle<()>,
}

impl Runner {
    fn spawn(worker: usize) -> Self {
        let (orders, order_rx) = unbounded::<(JobSpec, DsmConfig)>();
        let (result_tx, results) = unbounded();
        let thread = std::thread::Builder::new()
            .name(format!("svc-run-{worker}"))
            .spawn(move || {
                for (spec, cfg) in order_rx {
                    let result = catch_unwind(AssertUnwindSafe(|| run_with_config(&spec, cfg)));
                    if result_tx.send(result).is_err() {
                        return; // Detached: nobody reads this result.
                    }
                }
            })
            .expect("spawn run thread");
        Runner {
            orders,
            results,
            thread,
        }
    }

    /// Stops an idle run thread and joins it.
    fn close(self) {
        drop(self.orders);
        let _ = self.thread.join();
    }
}

/// The pool: a fixed set of supervising workers over a shared task queue.
pub(crate) struct WorkerPool {
    tx: Option<Sender<SeedTask>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl WorkerPool {
    /// Spawns `workers` supervising threads, merging results into `store`,
    /// journaling lifecycle records through `persist`, and folding each
    /// finished job out of `live`.
    pub(crate) fn new(
        workers: usize,
        store: Arc<ResultStore>,
        persist: Arc<Persist>,
        live: Arc<LiveJobs>,
    ) -> Self {
        WorkerPool::with_grace(workers, store, persist, live, DRAIN_GRACE)
    }

    /// [`new`](Self::new) with an explicit detach grace, so tests can
    /// exercise the detach path without waiting out the production 10 s.
    pub(crate) fn with_grace(
        workers: usize,
        store: Arc<ResultStore>,
        persist: Arc<Persist>,
        live: Arc<LiveJobs>,
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
                    index: i,
                    store: Arc::clone(&store),
                    stats: Arc::clone(&stats),
                    persist: Arc::clone(&persist),
                    live: Arc::clone(&live),
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

/// Dequeues under the lock and runs without it.  An idle worker blocks in
/// `recv` holding the lock while the others wait for it; shutdown's
/// disconnect ends that `recv`, and each waiting worker then takes the
/// lock and sees the disconnect in turn.
fn worker_loop(rx: &Mutex<Receiver<SeedTask>>, ctx: &WorkerCtx) {
    let mut runner = None;
    loop {
        // Its own statement, so the guard drops before the run.
        let task = rx.lock().recv();
        let Ok(task) = task else { break };
        run_seed(task, ctx, &mut runner);
    }
    if let Some(runner) = runner {
        runner.close();
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
/// The outcome is one [`OutcomeImage`] — fingerprints and rendered text
/// for a completed run — and every effect follows from it, in the order
/// recovery replays them: the `SeedDone` record is journaled first
/// (write-ahead: a crash at any point leaves the journal at least as
/// informed as the state it shadows), then the store merges the image and
/// the job settles it, and the seed that completes the job folds it into
/// its sealed store entry.
fn run_seed(task: SeedTask, ctx: &WorkerCtx, runner: &mut Option<Runner>) {
    let (store, stats) = (&ctx.store, &ctx.stats);
    let SeedTask { job, seed } = task;
    job.note_started();

    let mut retries: u32 = 0;
    let mut synthetic_left = job.spec.flaky_first;
    let image = loop {
        if job.cancel_requested() {
            break OutcomeImage::Cancelled;
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
            run_attempt(&job, seed, ctx, runner)
        };

        match attempt {
            Attempt::Done(report) => break OutcomeImage::from_report(&report, retries),
            Attempt::Cancelled => break OutcomeImage::Cancelled,
            Attempt::Failed { error, transient } => {
                if transient && job.try_consume_retry() {
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                    retries += 1;
                    continue;
                }
                break OutcomeImage::Failed {
                    error,
                    transient,
                    retries,
                };
            }
        }
    };

    // Journaled first (write-ahead), then merged and settled from the
    // same image, taken back out of the record rather than copied into it.
    let done = JournalRecord::SeedDone {
        job: job.id,
        seed,
        outcome: image,
    };
    ctx.persist.record(&done);
    let JournalRecord::SeedDone { outcome: image, .. } = done else {
        unreachable!("built as SeedDone above")
    };
    ctx.persist
        .record_evictions(store.merge(job.id, seed, &image));
    stats.seeds_finished.fetch_add(1, Ordering::Relaxed);
    if job.settle(seed, &image) {
        // Last seed settled: the job finishes and folds.
        ctx.persist.record(&JournalRecord::Sealed { job: job.id });
        ctx.persist.record_evictions(ctx.live.fold(job, store));
    }
}

/// One crash-isolated, deadline-supervised attempt on the worker's run
/// thread (started here on first use, and dropped here on detach).
fn run_attempt(job: &JobState, seed: u64, ctx: &WorkerCtx, runner: &mut Option<Runner>) -> Attempt {
    let stats = &ctx.stats;
    let _active = ActiveGuard::arm(&stats.active_helpers);
    let attempt_cancel = CancelToken::new();
    let mut cfg = build_config(&job.spec, seed);
    cfg.cancel = Some(attempt_cancel.clone());

    let run = runner.get_or_insert_with(|| Runner::spawn(ctx.index));
    // The run thread only exits once its orders channel closes, so this
    // send fails only if it died outright, as the `Disconnected` arm below
    // then reports.
    let _ = run.orders.send((job.spec.clone(), cfg));

    let started = Instant::now();
    let deadline = job.spec.run_deadline;
    let mut cancelled_for = None::<Attempt>; // Why we fired the token.
    loop {
        match run.results.recv_timeout(SUPERVISE_TICK) {
            Ok(result) => {
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
                        // The cluster refused to drain: detach the run
                        // thread with its channels, so its late result
                        // has nowhere to go, and report.
                        stats.detached_helpers.fetch_add(1, Ordering::Relaxed);
                        *runner = None;
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
                // The run thread died without sending: catch_unwind makes
                // this unreachable short of an abort, but classify it
                // terminally rather than looping forever.
                *runner = None;
                return Attempt::Failed {
                    error: "run thread vanished".into(),
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
    use crate::job::{JobId, JobPhase, JobSpec, SeedOutcome};
    use crate::workload::Workload;

    fn pool_and_store(workers: usize) -> (WorkerPool, Arc<ResultStore>) {
        let store = Arc::new(ResultStore::new(u64::MAX));
        (
            WorkerPool::new(
                workers,
                Arc::clone(&store),
                Persist::disabled(),
                Arc::default(),
            ),
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
            Arc::default(),
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

    /// A worker holds the queue's lock only to dequeue: an idle worker
    /// takes the next task while another is still running one.
    #[test]
    fn idle_worker_dequeues_while_another_runs() {
        let (pool, _store) = pool_and_store(2);
        let slow = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 1,
                dwell_ms: 1000,
            },
            2,
            1,
            1,
        );
        let slow = Arc::new(JobState::new(JobId(13), slow));
        let quick = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 2, 1);
        let quick = Arc::new(JobState::new(JobId(14), quick));
        for (job, seed) in [(&slow, 1), (&quick, 2)] {
            pool.submit(SeedTask {
                job: Arc::clone(job),
                seed,
            });
        }
        wait_terminal(&quick, Duration::from_secs(30));
        assert!(!slow.is_terminal(), "the quick job waited for the slow one");
    }

    /// After a detach the worker's next attempt runs on a fresh run
    /// thread: it gets its own result, not the detached run's late one,
    /// and gets it while the detached run is still dwelling.
    #[test]
    fn next_job_after_a_detach_gets_its_own_result_first() {
        let store = Arc::new(ResultStore::new(u64::MAX));
        let pool = WorkerPool::with_grace(
            1,
            Arc::clone(&store),
            Persist::disabled(),
            Arc::default(),
            Duration::from_millis(50),
        );
        let dwell = Duration::from_millis(2000);
        let mut stuck = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 1,
                dwell_ms: dwell.as_millis() as u64,
            },
            2,
            3,
            1,
        );
        stuck.run_deadline = Duration::from_millis(50);
        stuck.retry_budget = 0;
        let stuck = Arc::new(JobState::new(JobId(9), stuck));
        let next = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 4, 1);
        let next = Arc::new(JobState::new(JobId(10), next));
        let submitted = Instant::now();
        for (job, seed) in [(&stuck, 3), (&next, 4)] {
            pool.submit(SeedTask {
                job: Arc::clone(job),
                seed,
            });
        }
        wait_terminal(&next, Duration::from_secs(30));
        assert!(
            submitted.elapsed() < dwell,
            "the next job waited for the detached run to end"
        );
        assert_eq!(stuck.snapshot().phase, JobPhase::Failed);
        assert_eq!(next.snapshot().phase, JobPhase::Done);
        assert_eq!(
            next.outcome(4),
            Some(SeedOutcome::Done {
                races: 0,
                retries: 0
            })
        );
        assert_eq!(pool.stats().detached_helpers, 1);
    }

    /// A panicking attempt is caught on the run thread, which stays the
    /// worker's run thread and runs the next job.
    #[test]
    fn panicking_attempt_leaves_the_run_thread_usable() {
        let (pool, _store) = pool_and_store(1);
        let panicky = JobSpec::new(Workload::PanickyApp { epochs: 1 }, 2, 5, 1);
        let panicky = Arc::new(JobState::new(JobId(11), panicky));
        let next = JobSpec::new(Workload::DisjointGrid { epochs: 2 }, 2, 6, 1);
        let next = Arc::new(JobState::new(JobId(12), next));
        for (job, seed) in [(&panicky, 5), (&next, 6)] {
            pool.submit(SeedTask {
                job: Arc::clone(job),
                seed,
            });
        }
        wait_terminal(&next, Duration::from_secs(30));
        assert_eq!(panicky.snapshot().phase, JobPhase::Failed);
        assert_eq!(next.snapshot().phase, JobPhase::Done);
        let stats = pool.stats();
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(stats.detached_helpers, 0, "the run thread was kept");
    }
}
