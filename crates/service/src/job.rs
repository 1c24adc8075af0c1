//! Detection jobs: specification, lifecycle state machine, and per-seed
//! outcomes.
//!
//! A *job* names a workload, a cluster configuration, a fault plan, and a
//! seed range; the daemon expands it into one deterministic
//! [`Cluster::run`](cvm_dsm::Cluster::run) per seed.  The lifecycle is a
//! strict machine — `Queued → Running → {Done, Failed, Cancelled}` — with
//! every transition taken under the job's lock, so observers can never see
//! a terminal job regress or a cancelled job complete.

use std::fmt;
use std::time::{Duration, Instant};

use cvm_dsm::{CancelToken, Protocol, RecoveryPolicy};
use parking_lot::Mutex;

use crate::persist::OutcomeImage;
use crate::workload::{FaultSpec, Workload};

/// Identifier of one submitted job (daemon-assigned, monotonically
/// increasing).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Everything needed to expand a job into per-seed detection runs.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The named workload to hunt races in.
    pub workload: Workload,
    /// Cluster size for every run.
    pub nprocs: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Pipelined detection epochs (reports stay byte-identical).
    pub pipelined: bool,
    /// What a run does when one of its nodes dies.
    pub recovery: RecoveryPolicy,
    /// Wire faults injected into every run, keyed by the run's seed.
    pub fault: FaultSpec,
    /// First seed of the range.
    pub seed_base: u64,
    /// Number of seeds (runs) in the job.
    pub seed_count: u32,
    /// Per-run wall-clock deadline: an attempt still executing past this
    /// bound is cancelled and classified as a transient overrun.
    pub run_deadline: Duration,
    /// Job-wide budget of transient-failure retries.  Each retried attempt
    /// consumes one; an exhausted budget turns the next transient failure
    /// into that seed's terminal outcome.
    pub retry_budget: u32,
    /// Fault injection for supervision tests: synthesize this many
    /// transient failures per seed *before* the first real attempt runs.
    /// `0` (the default) injects nothing.
    pub flaky_first: u32,
    /// Fault injection: panic the pipelined detection stage thread at this
    /// epoch (forwarded to
    /// [`DetectConfig::stage_panic_epoch`](cvm_dsm::DetectConfig)).
    pub stage_panic_epoch: Option<u64>,
}

impl JobSpec {
    /// A job running `workload` on `nprocs` processes over `seed_count`
    /// seeds starting at `seed_base`, with service defaults everywhere
    /// else: single-writer protocol, synchronous master, abort-on-failure,
    /// clean wire, 30 s per-run deadline, 3 retries.
    pub fn new(workload: Workload, nprocs: usize, seed_base: u64, seed_count: u32) -> Self {
        JobSpec {
            workload,
            nprocs,
            protocol: Protocol::SingleWriter,
            pipelined: false,
            recovery: RecoveryPolicy::Abort,
            fault: FaultSpec::default(),
            seed_base,
            seed_count,
            run_deadline: Duration::from_secs(30),
            retry_budget: 3,
            flaky_first: 0,
            stage_panic_epoch: None,
        }
    }

    /// The seeds this job expands into.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..u64::from(self.seed_count)).map(|i| self.seed_base.wrapping_add(i))
    }

    /// Validates the spec, returning a human-readable complaint for the
    /// submitter instead of panicking inside the daemon.
    pub fn validate(&self) -> Result<(), String> {
        if self.nprocs == 0 {
            return Err("nprocs must be at least 1".into());
        }
        if self.nprocs > 64 {
            return Err("nprocs above 64 is not a service-shaped job".into());
        }
        if self.seed_count == 0 {
            return Err("seed_count must be at least 1".into());
        }
        if self.seed_count > 10_000 {
            return Err("seed_count above 10000 per job; split the range".into());
        }
        if self.run_deadline < Duration::from_millis(1) {
            return Err("run_deadline below 1ms cannot admit any run".into());
        }
        self.workload.validate()?;
        self.fault.validate()?;
        if let Some(kill) = &self.fault.kill {
            if usize::from(kill.node) >= self.nprocs {
                return Err(format!(
                    "kill targets node {} outside the {}-process cluster",
                    kill.node, self.nprocs
                ));
            }
        }
        if let Some(p) = &self.fault.partition {
            if usize::from(p.node) >= self.nprocs {
                return Err(format!(
                    "partition targets node {} outside the {}-process cluster",
                    p.node, self.nprocs
                ));
            }
        }
        Ok(())
    }
}

/// Lifecycle phase of a job.  Transitions only ever move rightward:
/// `Queued → Running → {Done, Failed, Cancelled}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobPhase {
    /// Accepted, no seed started yet.
    Queued,
    /// At least one seed run has started.
    Running,
    /// Every seed completed successfully.
    Done,
    /// Terminal: at least one seed failed (the others still ran).
    Failed,
    /// Terminal: cancelled before all seeds completed.
    Cancelled,
}

impl JobPhase {
    /// Whether the phase is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled
        )
    }

    /// Lower-case name for the wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// Terminal outcome of one seed's run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeedOutcome {
    /// The run completed; its deduplicated race fingerprints were merged
    /// into the job's result entry.
    Done {
        /// Race reports the run produced (pre-dedup).
        races: usize,
        /// Attempts beyond the first this seed consumed.
        retries: u32,
    },
    /// The run failed terminally (or exhausted the retry budget).
    Failed {
        /// Rendered error.
        error: String,
        /// Whether the *final* failure was transient (budget exhausted)
        /// rather than terminal by classification.
        transient: bool,
        /// Attempts beyond the first this seed consumed.
        retries: u32,
    },
    /// The job was cancelled before this seed completed.
    Cancelled,
}

/// Point-in-time snapshot of a job's status (what `status` queries and the
/// TCP front end return).
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// The job.
    pub id: JobId,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Seeds in the job.
    pub seeds_total: u32,
    /// Seeds that completed successfully.
    pub seeds_done: u32,
    /// Seeds that ended in a terminal failure.
    pub seeds_failed: u32,
    /// Seeds cancelled before completion.
    pub seeds_cancelled: u32,
    /// Transient-failure retries consumed (job-wide).
    pub retries: u64,
    /// Run attempts cancelled for overrunning the per-run deadline.
    pub deadline_overruns: u64,
    /// First error any seed surfaced, rendered.
    pub first_error: Option<String>,
    /// Distinct race fingerprints accumulated so far.
    pub distinct_races: usize,
    /// Transient partitions observed healed, summed over completed runs.
    pub partitions_healed: u64,
    /// Stale-term master messages fenced, summed over completed runs.
    pub stale_msgs_fenced: u64,
    /// Master seats abandoned for lack of an ack quorum, summed over
    /// completed runs.
    pub quorum_losses: u64,
    /// Cut-time masters restored back in as workers, summed over
    /// completed runs.
    pub rejoin_restores: u64,
    /// Whether this job was rebuilt from the durable journal after a
    /// daemon restart (its journaled seed outcomes were replayed, not
    /// recomputed).
    pub recovered: bool,
}

/// Internal mutable job state, guarded by the job's lock.
#[derive(Debug)]
pub(crate) struct JobInner {
    pub(crate) phase: JobPhase,
    pub(crate) seeds_done: u32,
    pub(crate) seeds_failed: u32,
    pub(crate) seeds_cancelled: u32,
    pub(crate) retries: u64,
    pub(crate) deadline_overruns: u64,
    pub(crate) retry_budget_left: u32,
    /// Recovery telemetry summed over completed runs, in
    /// [`OutcomeImage::Done`]'s order: partitions healed, stale messages
    /// fenced, quorum losses, rejoin restores.
    pub(crate) recovery: [u64; 4],
    pub(crate) first_error: Option<String>,
    pub(crate) recovered: bool,
    pub(crate) outcomes: std::collections::BTreeMap<u64, SeedOutcome>,
    pub(crate) started: Option<Instant>,
    pub(crate) finished: Option<Instant>,
}

/// One submitted job: spec, lifecycle state, and the cancellation token
/// shared with every in-flight run of the job.
#[derive(Debug)]
pub struct JobState {
    /// The job's identity.
    pub id: JobId,
    /// The submitted specification.
    pub spec: JobSpec,
    /// Fired by [`cancel`](JobState::cancel); every run's `DsmConfig`
    /// carries a clone, so in-flight clusters drain promptly.
    pub(crate) cancel: CancelToken,
    pub(crate) inner: Mutex<JobInner>,
}

impl JobState {
    pub(crate) fn new(id: JobId, spec: JobSpec) -> Self {
        let budget = spec.retry_budget;
        JobState {
            id,
            spec,
            cancel: CancelToken::new(),
            inner: Mutex::new(JobInner {
                phase: JobPhase::Queued,
                seeds_done: 0,
                seeds_failed: 0,
                seeds_cancelled: 0,
                retries: 0,
                deadline_overruns: 0,
                retry_budget_left: budget,
                recovery: [0; 4],
                first_error: None,
                recovered: false,
                outcomes: std::collections::BTreeMap::new(),
                started: None,
                finished: None,
            }),
        }
    }

    /// Requests cancellation: the phase moves to `Cancelled` once every
    /// in-flight run has drained (seeds never started are cancelled
    /// immediately).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether cancellation has been requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Current status snapshot.  `distinct_races` is filled by the daemon
    /// (the store owns dedup state); this method reports zero.
    pub fn snapshot(&self) -> JobSnapshot {
        let inner = self.inner.lock();
        let [partitions_healed, stale_msgs_fenced, quorum_losses, rejoin_restores] = inner.recovery;
        JobSnapshot {
            id: self.id,
            phase: inner.phase,
            seeds_total: self.spec.seed_count,
            seeds_done: inner.seeds_done,
            seeds_failed: inner.seeds_failed,
            seeds_cancelled: inner.seeds_cancelled,
            retries: inner.retries,
            deadline_overruns: inner.deadline_overruns,
            first_error: inner.first_error.clone(),
            recovered: inner.recovered,
            distinct_races: 0,
            partitions_healed,
            stale_msgs_fenced,
            quorum_losses,
            rejoin_restores,
        }
    }

    /// Terminal outcome of `seed`, once recorded.
    pub fn outcome(&self, seed: u64) -> Option<SeedOutcome> {
        self.inner.lock().outcomes.get(&seed).cloned()
    }

    /// Whether the job has reached a terminal phase.
    pub fn is_terminal(&self) -> bool {
        self.inner.lock().phase.is_terminal()
    }

    /// Marks the first seed start: `Queued → Running`.
    pub(crate) fn note_started(&self) {
        let mut inner = self.inner.lock();
        if inner.phase == JobPhase::Queued {
            inner.phase = JobPhase::Running;
            inner.started = Some(Instant::now());
        }
    }

    /// Settles `seed` from its journaled image: records the outcome and
    /// adds a completed run's recovery counters to the job's totals.  When
    /// it is the last seed, the job transitions to its terminal phase.
    /// Returns `true` exactly once, for the settle that completed the job.
    pub(crate) fn settle(&self, seed: u64, image: &OutcomeImage) -> bool {
        let mut inner = self.inner.lock();
        if inner.phase.is_terminal() {
            return false; // Late result of a detached overrun attempt.
        }
        match image {
            OutcomeImage::Done { recovery, .. } => {
                inner.seeds_done += 1;
                for (total, n) in inner.recovery.iter_mut().zip(recovery) {
                    *total += n;
                }
            }
            OutcomeImage::Failed { error, .. } => {
                inner.seeds_failed += 1;
                if inner.first_error.is_none() {
                    inner.first_error = Some(error.clone());
                }
            }
            OutcomeImage::Cancelled => inner.seeds_cancelled += 1,
        }
        inner.outcomes.insert(seed, image.to_outcome());
        let all = inner.outcomes.len() as u32 >= self.spec.seed_count;
        if all {
            inner.phase = if inner.seeds_cancelled > 0 {
                JobPhase::Cancelled
            } else if inner.seeds_failed > 0 {
                JobPhase::Failed
            } else {
                JobPhase::Done
            };
            inner.finished = Some(Instant::now());
        }
        all
    }

    /// Consumes one unit of retry budget, returning `false` when
    /// exhausted.
    pub(crate) fn try_consume_retry(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.retry_budget_left == 0 {
            return false;
        }
        inner.retry_budget_left -= 1;
        inner.retries += 1;
        true
    }

    /// Counts one deadline overrun.
    pub(crate) fn note_overrun(&self) {
        self.inner.lock().deadline_overruns += 1;
    }

    /// Marks the job as rebuilt from the durable journal.
    pub(crate) fn mark_recovered(&self) {
        self.inner.lock().recovered = true;
    }

    /// Wall-clock time from first seed start to terminal transition.
    pub fn elapsed(&self) -> Option<Duration> {
        let inner = self.inner.lock();
        match (inner.started, inner.finished) {
            (Some(s), Some(f)) => Some(f.duration_since(s)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn spec(seeds: u32) -> JobSpec {
        JobSpec::new(Workload::RacyCounter { epochs: 1 }, 2, 7, seeds)
    }

    /// A completed run's image with `races` (pre-dedup) reports.
    fn done(races: usize, retries: u32) -> OutcomeImage {
        OutcomeImage::Done {
            retries,
            occurrences: vec![0; races],
            rendered: Vec::new(),
            recovery: [0; 4],
        }
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(spec(1).validate().is_ok());
        let mut s = spec(1);
        s.nprocs = 0;
        assert!(s.validate().is_err());
        let mut s = spec(1);
        s.seed_count = 0;
        assert!(s.validate().is_err());
        let mut s = spec(1);
        s.run_deadline = Duration::ZERO;
        assert!(s.validate().is_err());
    }

    #[test]
    fn seeds_enumerate_the_range() {
        let s = spec(3);
        assert_eq!(s.seeds().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let job = JobState::new(JobId(1), spec(2));
        assert_eq!(job.snapshot().phase, JobPhase::Queued);
        job.note_started();
        assert_eq!(job.snapshot().phase, JobPhase::Running);
        assert!(!job.settle(7, &done(0, 0)));
        assert_eq!(job.snapshot().phase, JobPhase::Running);
        assert!(job.settle(8, &done(2, 1)));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Done);
        assert!(snap.phase.is_terminal());
        assert_eq!(snap.seeds_done, 2);
        assert!(job.elapsed().is_some());
    }

    #[test]
    fn one_failed_seed_fails_the_job_but_not_the_others() {
        let job = JobState::new(JobId(2), spec(2));
        job.note_started();
        job.settle(
            7,
            &OutcomeImage::Failed {
                error: "boom".into(),
                transient: false,
                retries: 0,
            },
        );
        job.settle(8, &done(1, 0));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Failed);
        assert_eq!(snap.seeds_done, 1);
        assert_eq!(snap.seeds_failed, 1);
        assert_eq!(snap.first_error.as_deref(), Some("boom"));
    }

    #[test]
    fn any_cancelled_seed_makes_the_job_cancelled() {
        let job = JobState::new(JobId(3), spec(2));
        job.note_started();
        job.settle(7, &done(0, 0));
        job.settle(8, &OutcomeImage::Cancelled);
        assert_eq!(job.snapshot().phase, JobPhase::Cancelled);
    }

    #[test]
    fn terminal_jobs_ignore_late_results() {
        let job = JobState::new(JobId(4), spec(1));
        job.note_started();
        assert!(job.settle(7, &OutcomeImage::Cancelled));
        // A detached overrun attempt finishing late must not resurrect
        // the job or double-count the seed.
        assert!(!job.settle(7, &done(5, 0)));
        let snap = job.snapshot();
        assert_eq!(snap.phase, JobPhase::Cancelled);
        assert_eq!(snap.seeds_done, 0);
    }

    #[test]
    fn retry_budget_is_job_wide_and_bounded() {
        let mut s = spec(4);
        s.retry_budget = 2;
        let job = JobState::new(JobId(5), s);
        assert!(job.try_consume_retry());
        assert!(job.try_consume_retry());
        assert!(!job.try_consume_retry(), "budget must exhaust");
        assert_eq!(job.snapshot().retries, 2);
    }
}
