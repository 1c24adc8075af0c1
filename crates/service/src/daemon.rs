//! The race-hunt daemon: admission, lifecycle, queries, graceful drain.
//!
//! A [`Daemon`] owns the job table, the bounded [`ResultStore`], and the
//! supervised worker [`pool`](crate::pool).  It is cheaply cloneable —
//! every front end (in-process handles, the TCP listener's connection
//! threads) holds a clone and the shared interior does the
//! synchronization.
//!
//! Admission is *bounded*: at most `queue_capacity` jobs may be
//! non-terminal at once; excess submissions are rejected with
//! [`SubmitError::QueueFull`] rather than queued without limit, keeping
//! the daemon's memory and latency under overload a function of its
//! configuration, not its callers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cvm_dsm::DsmError;
use parking_lot::Mutex;

use crate::job::{JobId, JobSnapshot, JobSpec, JobState};
use crate::persist::{JournalRecord, Persist, PersistConfig, PersistStatsSnapshot};
use crate::pool::{PoolStats, PoolStatsSnapshot, SeedTask, WorkerPool};
use crate::store::{JobRaces, ResultStore, StoreStats};

/// Daemon sizing knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Supervising worker threads.
    pub workers: usize,
    /// Maximum non-terminal jobs admitted at once.
    pub queue_capacity: usize,
    /// Byte budget of the deduplicated result store.
    pub store_budget_bytes: u64,
    /// Durability: data directory, fsync policy, compaction interval.
    /// The default (`data_dir: None`) keeps the daemon purely in-memory.
    pub persist: PersistConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            queue_capacity: 64,
            store_budget_bytes: 16 << 20,
            persist: PersistConfig::default(),
        }
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec failed validation.
    Invalid(String),
    /// The admission bound is full: retry after jobs finish.
    QueueFull {
        /// Non-terminal jobs currently admitted.
        active: usize,
        /// The admission bound.
        capacity: usize,
    },
    /// The daemon is draining and admits nothing new.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(why) => write!(f, "invalid job spec: {why}"),
            SubmitError::QueueFull { active, capacity } => {
                write!(f, "queue full: {active} active jobs at capacity {capacity}")
            }
            SubmitError::Draining => write!(f, "daemon is draining"),
        }
    }
}

/// Daemon-wide counters for the `stats` query.
#[derive(Clone, Debug)]
pub struct DaemonStats {
    /// Jobs admitted since start.
    pub jobs_submitted: u64,
    /// Submissions rejected (validation, queue-full, or draining).
    pub jobs_rejected: u64,
    /// Jobs currently non-terminal.
    pub jobs_active: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Pool supervision counters.
    pub pool: PoolStatsSnapshot,
    /// Result-store counters.
    pub store: StoreStats,
    /// Durability counters (all zero when persistence is disabled).
    pub persist: PersistStatsSnapshot,
}

/// Outcome of a graceful drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that were still running at the deadline and had to be
    /// cancelled.
    pub jobs_cancelled: usize,
    /// Whether every admitted job reached a terminal phase by return.
    pub clean: bool,
    /// Durability counters at drain completion (after the final
    /// compaction).
    pub persist: PersistStatsSnapshot,
}

struct DaemonInner {
    cfg: DaemonConfig,
    /// Every admitted job, in submission order.  Never held across a
    /// journal record or a pool submission.
    jobs: Mutex<BTreeMap<JobId, Arc<JobState>>>,
    store: Arc<ResultStore>,
    persist: Arc<Persist>,
    pool: Mutex<WorkerPool>,
    /// The pool's counters, read without `pool`'s mutex: a drain holds it
    /// while the workers are joined.
    pool_stats: Arc<PoolStats>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    draining: AtomicBool,
    /// Serializes admission so the bound cannot be raced past.
    admit: Mutex<()>,
}

/// Handle to a running daemon.  Clone freely; drop of the last clone
/// shuts the pool down (queued work still completes — use
/// [`drain`](Daemon::drain) for a bounded, observable shutdown).
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<DaemonInner>,
}

impl Daemon {
    /// Starts a daemon with `cfg`.  Infallible for in-memory daemons;
    /// panics if a configured data directory cannot be opened (use
    /// [`open`](Daemon::open) to handle that as an error).
    pub fn start(cfg: DaemonConfig) -> Daemon {
        Daemon::open(cfg).expect("open daemon data directory")
    }

    /// Opens a daemon, recovering durable state when `cfg.persist` names
    /// a data directory.  The snapshot is loaded and the journal replayed
    /// (torn tails truncated and counted, never panicked on).  Each job's
    /// journaled seed outcomes then go, in journal order, through the
    /// calls the pool made for them — one `try_consume_retry` per retry,
    /// the store's `merge` (not for evicted jobs) and the job's `settle` —
    /// so results come back byte-identical, never recomputed.  Sealed jobs
    /// are sealed again in journal order: the eviction queue comes back as
    /// it was, and a store over its budget evicts and journals as a live
    /// seal does.  Jobs that went terminal unsealed are sealed next; jobs
    /// still running are re-admitted to the pool, and only their seeds
    /// *without* a journaled outcome run again.
    ///
    /// # Errors
    ///
    /// [`DsmError::Persist`] when the data directory or its files cannot
    /// be created or opened.
    pub fn open(cfg: DaemonConfig) -> Result<Daemon, DsmError> {
        let (persist, shadow) = Persist::open(&cfg.persist)?;
        let store = Arc::new(ResultStore::reopened(
            cfg.store_budget_bytes,
            shadow.jobs_evicted,
        ));
        let pool = WorkerPool::new(cfg.workers, Arc::clone(&store), Arc::clone(&persist));
        let mut jobs = BTreeMap::new();

        // Replay each job's outcomes through the calls the pool made for
        // them, and collect the seeds still owed.
        let mut pending: Vec<SeedTask> = Vec::new();
        let mut unsealed = Vec::new();
        for (&id, sj) in &shadow.jobs {
            let id = JobId(id);
            let job = Arc::new(JobState::new(id, sj.spec.clone()));
            jobs.insert(id, Arc::clone(&job));
            job.mark_recovered();
            for &seed in &sj.order {
                let image = &sj.outcomes[&seed];
                job.note_started();
                for _ in 0..image.retries() {
                    job.try_consume_retry();
                }
                if !sj.evicted {
                    persist.record_evictions(store.merge(id, seed, image));
                }
                job.settle(seed, image);
            }
            if sj.cancelled {
                job.cancel();
            }
            if !job.is_terminal() {
                for seed in job.spec.seeds() {
                    if !sj.outcomes.contains_key(&seed) {
                        pending.push(SeedTask {
                            job: Arc::clone(&job),
                            seed,
                        });
                    }
                }
            } else if !sj.sealed {
                // The crash hit between the last outcome record and the seal.
                unsealed.push(id);
            }
        }
        // Seal in journal order: the eviction queue the live store had.
        for &id in &shadow.sealed_order {
            persist.record_evictions(store.seal(JobId(id)));
        }
        for id in unsealed {
            persist.record(&JournalRecord::Sealed { job: id });
            persist.record_evictions(store.seal(id));
        }
        let recovered_jobs = jobs.values().filter(|j| !j.is_terminal()).count();
        persist.note_recovered_jobs(recovered_jobs as u64);

        let submitted = shadow.jobs.len() as u64;
        let daemon = Daemon {
            inner: Arc::new(DaemonInner {
                next_id: AtomicU64::new(shadow.next_job.max(1)),
                cfg,
                jobs: Mutex::new(jobs),
                store,
                persist,
                pool_stats: pool.counters(),
                pool: Mutex::new(pool),
                submitted: AtomicU64::new(submitted),
                rejected: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                admit: Mutex::new(()),
            }),
        };
        // Re-admit the owed seeds through the normal pool path.
        {
            let pool = daemon.inner.pool.lock();
            for task in pending {
                pool.submit(task);
            }
        }
        Ok(daemon)
    }

    /// Validates and admits `spec`, expanding it onto the pool.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let inner = &self.inner;
        let result = (|| {
            if inner.draining.load(Ordering::SeqCst) {
                return Err(SubmitError::Draining);
            }
            spec.validate().map_err(SubmitError::Invalid)?;
            // Admission check and insert under one lock: concurrent
            // submitters cannot both squeeze into the last slot.
            let _admit = inner.admit.lock();
            let active = self.active_jobs();
            if active >= inner.cfg.queue_capacity {
                return Err(SubmitError::QueueFull {
                    active,
                    capacity: inner.cfg.queue_capacity,
                });
            }
            let id = JobId(inner.next_id.fetch_add(1, Ordering::SeqCst));
            let job = Arc::new(JobState::new(id, spec));
            inner.jobs.lock().insert(id, Arc::clone(&job));
            // Write-ahead: the admission is durable before any seed runs.
            inner.persist.record(&JournalRecord::Submitted {
                job: id,
                spec: job.spec.clone(),
            });
            let pool = inner.pool.lock();
            for seed in job.spec.seeds() {
                pool.submit(SeedTask {
                    job: Arc::clone(&job),
                    seed,
                });
            }
            Ok(id)
        })();
        match &result {
            Ok(_) => inner.submitted.fetch_add(1, Ordering::Relaxed),
            Err(_) => inner.rejected.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Status snapshot of `id`, with the store's distinct-race count
    /// folded in.
    pub fn status(&self, id: JobId) -> Option<JobSnapshot> {
        let job = self.inner.jobs.lock().get(&id).cloned()?;
        let mut snap = job.snapshot();
        snap.distinct_races = self.inner.store.distinct_count(id);
        Some(snap)
    }

    /// All jobs' snapshots, in submission order.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        self.inner
            .jobs
            .lock()
            .iter()
            .map(|(&id, job)| {
                let mut snap = job.snapshot();
                snap.distinct_races = self.inner.store.distinct_count(id);
                snap
            })
            .collect()
    }

    /// Requests cancellation of `id`; `false` when unknown.  Terminal
    /// jobs are unaffected (cancel is idempotent and never regresses a
    /// phase).
    pub fn cancel(&self, id: JobId) -> bool {
        let Some(job) = self.inner.jobs.lock().get(&id).cloned() else {
            return false;
        };
        self.inner
            .persist
            .record(&JournalRecord::Cancelled { job: id });
        job.cancel();
        true
    }

    /// Deduplicated races of `id`: `None` while unknown or evicted.
    pub fn races(&self, id: JobId) -> Option<JobRaces> {
        self.inner.store.races(id)
    }

    /// Daemon-wide counters.
    pub fn stats(&self) -> DaemonStats {
        let inner = &self.inner;
        DaemonStats {
            jobs_submitted: inner.submitted.load(Ordering::Relaxed),
            jobs_rejected: inner.rejected.load(Ordering::Relaxed),
            jobs_active: self.active_jobs(),
            draining: inner.draining.load(Ordering::SeqCst),
            pool: inner.pool_stats.snapshot(),
            store: inner.store.stats(),
            persist: inner.persist.stats(),
        }
    }

    /// Whether the daemon is draining (new submissions are rejected).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop admission, give in-flight jobs `deadline` to
    /// finish, cancel stragglers, and shut the pool down.  Every admitted
    /// job is terminal when this returns (enforced by the pool's own
    /// bounded attempt supervision).
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);

        let waited = Instant::now();
        while self.active_jobs() > 0 && waited.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }

        // Cancel whatever outlived the deadline; their runs drain via the
        // cancellation token within the pool's supervision bounds.
        let mut cancelled = 0usize;
        for job in inner.jobs.lock().values() {
            if !job.is_terminal() {
                job.cancel();
                cancelled += 1;
            }
        }

        // Closing the queue and joining the workers forces every queued
        // and running seed to a terminal outcome.
        inner.pool.lock().shutdown();
        // Fold the whole journal into a snapshot: the next open replays a
        // compact image instead of the full record stream.
        inner.persist.compact_now();
        DrainReport {
            jobs_cancelled: cancelled,
            clean: cancelled == 0 && self.active_jobs() == 0,
            persist: inner.persist.stats(),
        }
    }

    fn active_jobs(&self) -> usize {
        let jobs = self.inner.jobs.lock();
        jobs.values().filter(|j| !j.is_terminal()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPhase;
    use crate::workload::Workload;

    fn wait_phase(daemon: &Daemon, id: JobId, budget: Duration) -> JobSnapshot {
        let start = Instant::now();
        loop {
            let snap = daemon.status(id).expect("job known");
            if snap.phase.is_terminal() {
                return snap;
            }
            assert!(start.elapsed() < budget, "job {id} never went terminal");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn submit_run_query_roundtrip() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        });
        let spec = JobSpec::new(Workload::RacyCounter { epochs: 2 }, 2, 1, 2);
        let id = daemon.submit(spec).expect("admitted");
        let snap = wait_phase(&daemon, id, Duration::from_secs(30));
        assert_eq!(snap.phase, JobPhase::Done);
        assert_eq!(snap.seeds_done, 2);
        assert!(snap.distinct_races > 0);
        let races = daemon.races(id).expect("results retained");
        assert_eq!(races.races.len(), snap.distinct_races);
        let stats = daemon.stats();
        assert_eq!(stats.jobs_submitted, 1);
        assert_eq!(stats.jobs_active, 0);
    }

    #[test]
    fn invalid_specs_are_rejected_not_run() {
        let daemon = Daemon::start(DaemonConfig::default());
        let mut spec = JobSpec::new(Workload::RacyCounter { epochs: 1 }, 2, 1, 1);
        spec.nprocs = 0;
        match daemon.submit(spec) {
            Err(SubmitError::Invalid(why)) => assert!(why.contains("nprocs")),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(daemon.stats().jobs_rejected, 1);
        assert!(daemon.jobs().is_empty());
    }

    #[test]
    fn admission_is_bounded() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            queue_capacity: 2,
            ..DaemonConfig::default()
        });
        // Slow jobs occupy both slots.
        let slow = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 40,
                dwell_ms: 50,
            },
            2,
            1,
            1,
        );
        let a = daemon.submit(slow.clone()).expect("slot 1");
        let b = daemon.submit(slow.clone()).expect("slot 2");
        match daemon.submit(slow.clone()) {
            Err(SubmitError::QueueFull { active, capacity }) => {
                assert_eq!((active, capacity), (2, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        daemon.cancel(a);
        daemon.cancel(b);
        wait_phase(&daemon, a, Duration::from_secs(30));
        wait_phase(&daemon, b, Duration::from_secs(30));
        // Slots freed: admission opens again.
        let c = daemon
            .submit(JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 1, 1))
            .expect("slot reopened");
        wait_phase(&daemon, c, Duration::from_secs(30));
    }

    #[test]
    fn cancel_is_idempotent_and_unknown_is_false() {
        let daemon = Daemon::start(DaemonConfig::default());
        assert!(!daemon.cancel(JobId(99)));
        let id = daemon
            .submit(JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 1, 1))
            .expect("admitted");
        let snap = wait_phase(&daemon, id, Duration::from_secs(30));
        assert_eq!(snap.phase, JobPhase::Done);
        // Cancelling a terminal job is accepted but changes nothing.
        assert!(daemon.cancel(id));
        assert_eq!(daemon.status(id).unwrap().phase, JobPhase::Done);
    }

    #[test]
    fn drain_rejects_new_work_and_terminates_everything() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        });
        let slow = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 100,
                dwell_ms: 50,
            },
            2,
            1,
            2,
        );
        let id = daemon.submit(slow.clone()).expect("admitted");
        // Short deadline: the slow job must be cancelled, not waited out.
        let report = daemon.drain(Duration::from_millis(100));
        assert_eq!(report.jobs_cancelled, 1);
        assert!(!report.clean);
        assert!(daemon.status(id).unwrap().phase.is_terminal());
        assert_eq!(daemon.submit(slow), Err(SubmitError::Draining));
        assert!(daemon.stats().draining);
    }

    #[test]
    fn drain_of_an_idle_daemon_is_clean() {
        let daemon = Daemon::start(DaemonConfig::default());
        let id = daemon
            .submit(JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 1, 1))
            .expect("admitted");
        wait_phase(&daemon, id, Duration::from_secs(30));
        let report = daemon.drain(Duration::from_secs(5));
        assert!(report.clean);
        assert_eq!(report.jobs_cancelled, 0);
    }

    #[test]
    fn stats_answers_while_the_pool_mutex_is_held() {
        // A drain holds the pool's mutex across the workers' joins.
        let daemon = Daemon::start(DaemonConfig::default());
        let pool = daemon.inner.pool.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = daemon.clone();
        let handle = std::thread::spawn(move || tx.send(reader.stats().pool).ok());
        let answered = rx.recv_timeout(Duration::from_secs(10)).is_ok();
        drop(pool);
        handle.join().expect("stats thread");
        assert!(answered, "stats() waited for the pool mutex");
    }
}
