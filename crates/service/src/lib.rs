//! `cvm-service`: the always-on race-hunt daemon.
//!
//! Everything below this crate is a *library* for running one detection
//! job at a time; this crate turns it into a *service*: submit a job
//! (workload + cluster config + fault plan + seed range), and the daemon
//! expands it into per-seed deterministic runs on a supervised worker
//! pool, retains deduplicated race reports, and answers status queries —
//! while surviving everything those runs can throw at it.
//!
//! The robustness contract, end to end:
//!
//! * **Crash isolation** ([`pool`]) — a panicking run (app bug, injected
//!   detector-stage panic) is caught on its helper thread and becomes a
//!   terminal seed outcome; the worker and the daemon keep serving.
//! * **Deadlines** ([`pool`]) — attempts overrunning the job's per-run
//!   deadline are cancelled through the cluster's own
//!   [`CancelToken`](cvm_dsm::CancelToken) path and classified transient.
//! * **Retries** ([`pool`], [`cvm_dsm::DsmError::is_transient`]) —
//!   transient failures retry under a job-wide budget with capped,
//!   seeded-jitter exponential backoff; terminal failures never retry.
//! * **Bounded everything** ([`daemon`], [`store`]) — admission is capped
//!   (excess submissions get [`SubmitError::QueueFull`]), and the result
//!   store evicts whole sealed jobs oldest-first under a byte budget.
//! * **Graceful drain** ([`Daemon::drain`]) — stop admission, wait out
//!   in-flight jobs to a deadline, cancel stragglers, join the pool;
//!   every admitted job is terminal on return.
//!
//! Front ends: an in-process handle ([`Daemon`], cheap to clone) and a
//! line-delimited JSON TCP listener ([`TcpFrontEnd`]) with a hand-rolled
//! parser ([`json`]) — the hermetic build has no serde and no HTTP stack.
//!
//! Determinism is preserved through the service layer: a job's per-seed
//! runs produce race reports byte-identical to a direct
//! [`Cluster::run`](cvm_dsm::Cluster::run) with the expanded config
//! ([`workload::run_direct`]), which the soak suite asserts via the
//! stable report fingerprints.

pub mod daemon;
pub mod job;
pub mod json;
pub mod persist;
pub mod pool;
pub mod store;
pub mod tcp;
pub mod workload;

pub use daemon::{Daemon, DaemonConfig, DaemonStats, DrainReport, SubmitError};
pub use job::{JobId, JobPhase, JobSnapshot, JobSpec, JobState, SeedOutcome};
pub use persist::{
    CrashMode, CrashPoint, CrashSpec, FsyncPolicy, JournalRecord, OutcomeImage, Persist,
    PersistConfig, PersistStatsSnapshot, ShadowState,
};
pub use pool::PoolStatsSnapshot;
pub use store::{DedupedRace, JobRaces, ResultStore, StoreStats};
pub use tcp::{TcpFrontEnd, TcpTuning};
pub use workload::{build_config, run_direct, FaultSpec, KillSpec, Workload};
