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
//!
//! Only the non-terminal jobs are held whole, in the live set.  A job that
//! finishes leaves the live set as a compact record sealed into its store
//! entry, and ages out with its results under the store's byte budget, so
//! the daemon's state is in proportion to its live jobs and retained
//! results, not to how many jobs it has run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
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

/// The jobs admitted and not yet finished.  A job leaves in the same step
/// that makes it terminal ([`fold`](LiveJobs::fold)), after its record is
/// sealed into the store: whoever saw a job terminal never finds it
/// counted live, and a job is always in the live set or the store until
/// the store evicts it.  Never held across a journal record or a pool
/// submission.
#[derive(Default)]
pub(crate) struct LiveJobs {
    jobs: StdMutex<HashMap<JobId, Arc<JobState>>>,
    /// Signalled when the last live job folds.
    emptied: Condvar,
}

impl LiveJobs {
    fn lock(&self) -> MutexGuard<'_, HashMap<JobId, Arc<JobState>>> {
        // Every update is one insert or one remove: a panic elsewhere
        // leaves the map whole.
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, id: JobId) -> Option<Arc<JobState>> {
        self.lock().get(&id).cloned()
    }

    fn insert(&self, job: Arc<JobState>) {
        self.lock().insert(job.id, job);
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    /// Finishes `job`, whose last seed has settled: its record is sealed
    /// into the store and the job leaves the live set, both under the
    /// live set's lock.  `job` is dropped there too, so a one-seed job's
    /// `JobState` is freed before the live set shows it gone.  Returns the
    /// jobs the store's budget evicted.
    pub(crate) fn fold(&self, job: Arc<JobState>, store: &ResultStore) -> Vec<JobId> {
        let mut jobs = self.lock();
        let evicted = store.seal(job.id, job.finish());
        jobs.remove(&job.id);
        drop(job);
        if jobs.is_empty() {
            self.emptied.notify_all();
        }
        evicted
    }

    /// Waits until no job is live or `deadline` has passed, then fires the
    /// cancel token of every job still live and returns how many there
    /// were.
    fn cancel_after(&self, deadline: Duration) -> usize {
        let waited = Instant::now();
        let mut jobs = self.lock();
        while !jobs.is_empty() {
            let left = deadline.saturating_sub(waited.elapsed());
            if left.is_zero() {
                break;
            }
            jobs = self
                .emptied
                .wait_timeout(jobs, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        for job in jobs.values() {
            job.cancel();
        }
        jobs.len()
    }
}

struct DaemonInner {
    cfg: DaemonConfig,
    live: Arc<LiveJobs>,
    store: Arc<ResultStore>,
    persist: Arc<Persist>,
    pool: Mutex<WorkerPool>,
    /// The pool's counters, read without `pool`'s mutex: a drain holds it
    /// while the workers are joined.
    pool_stats: Arc<PoolStats>,
    /// The next id to assign.  It moves past an id only once that job is
    /// live, so an id below it that is neither live nor in the store was
    /// evicted.
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    draining: AtomicBool,
    /// The report of the first drain to finish, and its signal.
    drained: StdMutex<Option<DrainReport>>,
    drained_signal: Condvar,
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
        let (persist, mut shadow) = Persist::open(&cfg.persist)?;
        let store = Arc::new(ResultStore::reopened(
            cfg.store_budget_bytes,
            shadow.jobs_evicted,
        ));
        let live = Arc::new(LiveJobs::default());
        let pool = WorkerPool::new(
            cfg.workers,
            Arc::clone(&store),
            Arc::clone(&persist),
            Arc::clone(&live),
        );

        // Replay each job's outcomes through the calls the pool made for
        // them, decoding one job at a time, and collect the seeds still
        // owed.  The shadow holds no evicted job: its record left with its
        // results.  Each job's bytes are the persister's too; they are
        // let go of as the job is rebuilt.
        let submitted = shadow.jobs.len() as u64 + shadow.jobs_evicted;
        let mut pending: Vec<SeedTask> = Vec::new();
        let mut finished = HashMap::new();
        let mut unsealed = Vec::new();
        for (id, sj) in std::mem::take(&mut shadow.jobs) {
            let id = JobId(id);
            let job = Arc::new(JobState::new(id, sj.spec()));
            job.mark_recovered();
            let mut terminal = false;
            for (seed, image) in sj.outcomes() {
                job.note_started();
                for _ in 0..image.retries() {
                    job.try_consume_retry();
                }
                persist.record_evictions(store.merge(id, seed, &image));
                terminal = job.settle(seed, &image) || terminal;
            }
            if sj.cancelled {
                job.cancel();
            }
            if !terminal {
                for seed in job.spec.seeds() {
                    if job.outcome(seed).is_none() {
                        pending.push(SeedTask {
                            job: Arc::clone(&job),
                            seed,
                        });
                    }
                }
                live.insert(job);
            } else {
                if !sj.sealed {
                    // The crash hit between the last outcome record and
                    // the seal.
                    unsealed.push(id);
                }
                finished.insert(id, job);
            }
        }
        // Fold in journal seal order: the eviction queue the live store
        // had.  Then the jobs that went terminal unsealed.
        for id in shadow.sealed_order.iter().map(|&id| JobId(id)) {
            if let Some(job) = finished.remove(&id) {
                persist.record_evictions(live.fold(job, &store));
            }
        }
        for id in unsealed {
            if let Some(job) = finished.remove(&id) {
                persist.record(&JournalRecord::Sealed { job: id });
                persist.record_evictions(live.fold(job, &store));
            }
        }
        persist.note_recovered_jobs(live.len() as u64);

        let daemon = Daemon {
            inner: Arc::new(DaemonInner {
                next_id: AtomicU64::new(shadow.next_job.max(1)),
                cfg,
                live,
                store,
                persist,
                pool_stats: pool.counters(),
                pool: Mutex::new(pool),
                submitted: AtomicU64::new(submitted),
                rejected: AtomicU64::new(0),
                draining: AtomicBool::new(false),
                drained: StdMutex::new(None),
                drained_signal: Condvar::new(),
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
        let admitted = self.admit(spec);
        let counter = match admitted {
            Ok(_) => &self.inner.submitted,
            Err(_) => &self.inner.rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        admitted.map(|job| job.id)
    }

    fn admit(&self, spec: JobSpec) -> Result<Arc<JobState>, SubmitError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        spec.validate().map_err(SubmitError::Invalid)?;
        // Admission check and insert under one lock: concurrent
        // submitters cannot both squeeze into the last slot.
        let _admit = inner.admit.lock();
        let active = inner.live.len();
        if active >= inner.cfg.queue_capacity {
            return Err(SubmitError::QueueFull {
                active,
                capacity: inner.cfg.queue_capacity,
            });
        }
        let id = JobId(inner.next_id.load(Ordering::SeqCst));
        let job = Arc::new(JobState::new(id, spec));
        inner.live.insert(Arc::clone(&job));
        inner.next_id.store(id.0 + 1, Ordering::SeqCst);
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
        Ok(job)
    }

    /// Status snapshot of `id`, with the store's distinct-race count
    /// folded in: `None` for an id never assigned, and for a finished job
    /// whose results the store has evicted.
    pub fn status(&self, id: JobId) -> Option<JobSnapshot> {
        // Live set first: a job's record is in the store before the job
        // leaves the live set, so this order cannot miss it.
        match self.inner.live.get(id) {
            Some(job) => Some(self.live_snapshot(&job)),
            None => self.inner.store.finished(id),
        }
    }

    fn live_snapshot(&self, job: &JobState) -> JobSnapshot {
        let mut snap = job.snapshot();
        snap.distinct_races = self.inner.store.distinct_count(job.id);
        snap
    }

    /// Whether `id` was ever assigned.  An assigned id that
    /// [`status`](Daemon::status) no longer answers belongs to a finished
    /// job the store evicted.
    pub(crate) fn assigned(&self, id: JobId) -> bool {
        (1..self.inner.next_id.load(Ordering::SeqCst)).contains(&id.0)
    }

    /// The snapshots of every job still known — live, or finished with its
    /// results retained — in submission order.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        // Live set first, as in `status`; a job that folds in between
        // shows up twice and its record wins.
        let live: Vec<_> = self.inner.live.lock().values().cloned().collect();
        let mut all: BTreeMap<JobId, JobSnapshot> = live
            .iter()
            .map(|job| (job.id, self.live_snapshot(job)))
            .collect();
        all.extend(
            self.inner
                .store
                .all_finished()
                .into_iter()
                .map(|snap| (snap.id, snap)),
        );
        all.into_values().collect()
    }

    /// Requests cancellation of `id`; `false` when unknown or evicted.
    /// Finished jobs are unaffected (cancel is idempotent and never
    /// regresses a phase).
    pub fn cancel(&self, id: JobId) -> bool {
        let job = self.inner.live.get(id);
        if job.is_none() && self.inner.store.finished(id).is_none() {
            return false;
        }
        self.inner
            .persist
            .record(&JournalRecord::Cancelled { job: id });
        if let Some(job) = job {
            job.cancel();
        }
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
            jobs_active: inner.live.len(),
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

        // The last live job to finish ends the wait; whatever outlived the
        // deadline is cancelled, and its runs drain via the cancellation
        // token within the pool's supervision bounds.
        let cancelled = inner.live.cancel_after(deadline);

        // Closing the queue and joining the workers forces every queued
        // and running seed to a terminal outcome.
        inner.pool.lock().shutdown();
        // Fold the whole journal into a snapshot: the next open replays a
        // compact image instead of the full record stream.
        inner.persist.compact_now();
        let report = DrainReport {
            jobs_cancelled: cancelled,
            clean: cancelled == 0 && inner.live.len() == 0,
            persist: inner.persist.stats(),
        };
        self.drained().get_or_insert(report);
        inner.drained_signal.notify_all();
        report
    }

    /// Blocks until a drain — whichever front end asked for it — has
    /// finished, and returns the first one's report.
    pub fn wait_drained(&self) -> DrainReport {
        let mut drained = self.drained();
        loop {
            if let Some(report) = *drained {
                return report;
            }
            drained = self
                .inner
                .drained_signal
                .wait(drained)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn drained(&self) -> MutexGuard<'_, Option<DrainReport>> {
        // One assignment of a `Copy` value: a panic leaves it whole.
        self.inner
            .drained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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

    /// Finished jobs leave nothing behind but their records: the live set
    /// empties, every `JobState` is freed, and `status` answers from the
    /// record exactly what the `JobState` answered.
    #[test]
    fn finished_jobs_fold_to_their_records() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            queue_capacity: 200,
            ..DaemonConfig::default()
        });
        let spec = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, 1, 1);
        let jobs: Vec<Arc<JobState>> = (0..200)
            .map(|_| daemon.admit(spec.clone()).expect("admitted"))
            .collect();
        let weak: Vec<_> = jobs.iter().map(Arc::downgrade).collect();
        assert_eq!(daemon.inner.live.cancel_after(Duration::from_secs(120)), 0);
        assert_eq!(daemon.stats().jobs_active, 0);
        for job in &jobs {
            let mut before = job.snapshot();
            before.distinct_races = daemon.inner.store.distinct_count(job.id);
            assert!(before.phase.is_terminal());
            assert_eq!(daemon.status(job.id), Some(before));
        }
        drop(jobs);
        assert!(
            weak.iter().all(|job| job.upgrade().is_none()),
            "a JobState outlived its fold"
        );
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
