//! Durable service state: write-ahead journal, snapshot compaction, and
//! crash recovery.
//!
//! The daemon's job table and deduplicated [`ResultStore`](crate::store)
//! live in memory; this module makes them survive a crash.  The design is
//! a classic write-ahead log with a shadow state machine:
//!
//! * **Journal** — every job lifecycle event ([`JournalRecord`]:
//!   `Submitted`, `SeedDone`, `Sealed`, `Cancelled`, `Evicted`) is
//!   appended to `journal.bin` as one CRC-32C frame
//!   ([`cvm_net::wire::frame_header`] + body), *before* the in-memory
//!   effect the caller depends on.  Fsync frequency is a policy knob
//!   ([`FsyncPolicy`]): per record, every N records, or never.
//! * **Shadow** — each record is also applied to an in-memory
//!   [`ShadowState`], everything recovery needs of the jobs the store
//!   retains or still runs.  Each [`ShadowJob`] is held as the bytes the
//!   snapshot writes for it: its spec and each seed's [`OutcomeImage`] in
//!   journal order (the value the pool merges and settles, fingerprints
//!   and rendered text included, so completed seeds are never
//!   recomputed), copied from the journal frame as the record is written.
//!   Beside them are the seal order and the eviction count.  An evicted
//!   job leaves the shadow, so it grows with retained jobs, not with jobs
//!   served.
//! * **Snapshot** — once the journal holds at least `compact_every`
//!   records *and* as many bytes as the live snapshot, the shadow is
//!   streamed into `snapshot.bin` behind a versioned header (the
//!   `checkpoint::NodeImage` discipline: magic, version, CRC-framed body)
//!   — each job's held bytes copied into one 64 KB write buffer, so no
//!   second image of the state is ever resident — tmp-then-rename so a
//!   torn snapshot can never shadow a good one, and the journal is
//!   trimmed.  A snapshot costs O(state) and
//!   is taken every O(state) journal bytes: snapshot work is linear in the
//!   records served, and the journal stays bounded by
//!   `max(compact_every records, snapshot bytes)`.
//! * **Recovery** — [`Persist::open`] loads snapshot-then-journal.  Torn
//!   or corrupt journal tails are *truncated to the last valid frame* and
//!   counted, never panicked on (PR 4's trust-boundary discipline: decode
//!   failures steer to the previous good record).  Replay is idempotent,
//!   which closes the crash window between writing a snapshot and
//!   trimming the journal.  [`Daemon::open`](crate::Daemon::open) then
//!   rebuilds the store and job table by decoding the shadow one job at a
//!   time and passing its images through the live `merge`, `settle` and
//!   `seal` calls.
//!
//! Crash windows are exercised deterministically through
//! [`CrashPoint`]: a seeded hook that kills the daemon (or, for
//! in-process tests, wedges the persister) mid-record, post-record but
//! pre-fsync, mid-compaction, or post-snapshot pre-trim.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use cvm_dsm::{DsmError, Protocol, RecoveryPolicy, RunReport};
use cvm_net::wire::{
    crc32c_update, decode_frame, frame_header, frame_header_of, Reader, Wire, WireError,
    FRAME_HEADER_BYTES, FRAME_MAGIC,
};
use parking_lot::Mutex;

use crate::job::{JobId, JobSpec, SeedOutcome};
use crate::workload::{FaultSpec, KillSpec, PartitionSpec, Workload};

/// Journal file name inside the data directory.
pub const JOURNAL_FILE: &str = "journal.bin";
/// Live snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary snapshot name; only ever renamed onto [`SNAPSHOT_FILE`], and
/// deleted (stale) on open.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Snapshot header magic: `CVMS` little-endian.
const SNAPSHOT_MAGIC: u32 = 0x534D_5643;
/// Snapshot format version.
const SNAPSHOT_VERSION: u32 = 1;
/// Write buffer of the snapshot stream: all a compaction holds in memory
/// beside the shadow, whatever the size of the state.
const SNAPSHOT_WRITE_BUF: usize = 64 << 10;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// How often the journal is fsynced.
///
/// The trade-off is the classic WAL one: `Always` bounds loss to zero
/// completed records at a per-record fsync cost; `EveryN` amortizes the
/// fsync over N records and risks losing up to N-1 of them to a power
/// failure (a plain process crash loses nothing — the page cache
/// survives); `Never` leaves flushing entirely to the OS.  Whatever the
/// policy, recovery is correct: a lost suffix only re-runs work, because
/// every record is recomputable from `(spec, seed)` determinism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended record.
    Always,
    /// Fsync once every N appended records (N ≥ 1).
    EveryN(u32),
    /// Never fsync; the OS flushes on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `every:N`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n = s.strip_prefix("every:")?.parse::<u32>().ok()?;
                (n >= 1).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }

    /// Wire/CSV name of the policy.
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::EveryN(n) => format!("every:{n}"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

/// Durability knobs of a daemon.  `data_dir: None` (the default) disables
/// persistence entirely: the daemon behaves exactly as before this module
/// existed.
#[derive(Clone, Debug, Default)]
pub struct PersistConfig {
    /// Directory holding `journal.bin` / `snapshot.bin`.  Created if
    /// missing.  `None` disables persistence.
    pub data_dir: Option<PathBuf>,
    /// Journal fsync policy.
    pub fsync: FsyncPolicy,
    /// The fewest journal records between two compactions (snapshot +
    /// trim the journal).  A compaction also waits until the journal holds
    /// as many bytes as the live snapshot, so the journal is bounded by
    /// `max(compact_every records, snapshot bytes)`.
    pub compact_every: u64,
    /// Deterministic crash injection, for recovery tests.
    pub crash: Option<CrashSpec>,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(8)
    }
}

impl PersistConfig {
    /// Persistence into `dir` with default fsync/compaction policies.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            data_dir: Some(dir.into()),
            compact_every: 256,
            ..PersistConfig::default()
        }
    }

    /// Effective compaction floor (the zero default means 256).
    fn compact_every(&self) -> u64 {
        if self.compact_every == 0 {
            256
        } else {
            self.compact_every
        }
    }
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// Named windows in the persistence path where a crash is interesting —
/// each one leaves the on-disk state in a different shape that recovery
/// must handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die after writing only half of a journal frame: a torn tail.
    MidRecord,
    /// Die after the frame is fully written but before any fsync: the
    /// record's durability is at the OS's mercy (either outcome must
    /// recover cleanly).
    PostRecordPreFsync,
    /// Die halfway through writing `snapshot.tmp`: the live snapshot and
    /// journal are untouched; the torn tmp must be discarded on open.
    MidCompaction,
    /// Die after renaming the new snapshot into place but before trimming
    /// the journal: replay of the un-trimmed journal onto the snapshot
    /// must be idempotent.
    PostSnapshotPreTrim,
}

impl CrashPoint {
    /// Every crash point, for test matrices.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::MidRecord,
        CrashPoint::PostRecordPreFsync,
        CrashPoint::MidCompaction,
        CrashPoint::PostSnapshotPreTrim,
    ];

    /// Flag-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::MidRecord => "mid-record",
            CrashPoint::PostRecordPreFsync => "post-record-pre-fsync",
            CrashPoint::MidCompaction => "mid-compaction",
            CrashPoint::PostSnapshotPreTrim => "post-snapshot-pre-trim",
        }
    }

    /// Parses a [`name`](CrashPoint::name).
    pub fn parse(s: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// What "crash" means when a [`CrashPoint`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// `std::process::abort()` — the real thing, for bin-level tests.
    Abort,
    /// Go inert: the persister stops writing (leaving the file exactly as
    /// the crash point left it) but the process lives on, so in-process
    /// tests can drop the daemon and reopen the directory.
    Wedge,
}

/// A scripted crash: die at the `at`-th hit of `point` (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Where to die.
    pub point: CrashPoint,
    /// Which occurrence of the point to die at (1-based).
    pub at: u64,
    /// Abort the process or wedge the persister.
    pub mode: CrashMode,
}

impl CrashSpec {
    /// Parses `POINT:N` (e.g. `mid-record:3`) into an [`CrashMode::Abort`]
    /// spec, the shape the daemon binary's `--crash` flag takes.
    pub fn parse(s: &str) -> Option<CrashSpec> {
        let (point, at) = s.rsplit_once(':')?;
        let point = CrashPoint::parse(point)?;
        let at = at.parse::<u64>().ok()?;
        (at >= 1).then_some(CrashSpec {
            point,
            at,
            mode: CrashMode::Abort,
        })
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Everything recovery needs from one seed's terminal outcome.
///
/// A `Done` image carries the run's race fingerprints *and* rendered text:
/// the store merges it, live and at recovery alike, so a recovered daemon
/// reconstructs the store entry byte-for-byte without re-running the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OutcomeImage {
    /// The seed completed; the store merge is replayable from the image.
    Done {
        /// Retries the seed consumed.
        retries: u32,
        /// Fingerprint of every (pre-dedup) race report, in report order.
        occurrences: Vec<u64>,
        /// Rendered text per distinct fingerprint of this run.
        rendered: Vec<(u64, String)>,
        /// Recovery telemetry: partitions healed, stale messages fenced,
        /// quorum losses, rejoin restores.
        recovery: [u64; 4],
    },
    /// The seed failed terminally.
    Failed {
        /// Rendered error.
        error: String,
        /// Whether the final failure was transient (budget exhausted).
        transient: bool,
        /// Retries the seed consumed.
        retries: u32,
    },
    /// The seed was cancelled.
    Cancelled,
}

impl OutcomeImage {
    /// Builds the image of a completed run.
    pub(crate) fn from_report(report: &RunReport, retries: u32) -> OutcomeImage {
        let mut occurrences = Vec::new();
        let mut rendered: Vec<(u64, String)> = Vec::new();
        for race in report.races.reports() {
            let print = race.fingerprint();
            occurrences.push(print);
            if !rendered.iter().any(|(p, _)| *p == print) {
                rendered.push((print, race.render(&report.segments)));
            }
        }
        let rec = &report.recovery;
        OutcomeImage::Done {
            retries,
            occurrences,
            rendered,
            recovery: [
                rec.partitions_healed,
                rec.stale_msgs_fenced,
                rec.quorum_losses,
                rec.rejoin_restores,
            ],
        }
    }

    /// The [`SeedOutcome`] this image settles into.
    pub(crate) fn to_outcome(&self) -> SeedOutcome {
        match self {
            OutcomeImage::Done {
                retries,
                occurrences,
                ..
            } => SeedOutcome::Done {
                races: occurrences.len(),
                retries: *retries,
            },
            OutcomeImage::Failed {
                error,
                transient,
                retries,
            } => SeedOutcome::Failed {
                error: error.clone(),
                transient: *transient,
                retries: *retries,
            },
            OutcomeImage::Cancelled => SeedOutcome::Cancelled,
        }
    }

    /// Retries this outcome consumed from the job's budget.
    pub(crate) fn retries(&self) -> u64 {
        match self {
            OutcomeImage::Done { retries, .. } | OutcomeImage::Failed { retries, .. } => {
                u64::from(*retries)
            }
            OutcomeImage::Cancelled => 0,
        }
    }
}

/// One journaled job lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A job was admitted.
    Submitted {
        /// The assigned id.
        job: JobId,
        /// The validated spec.
        spec: JobSpec,
    },
    /// A seed reached its terminal outcome.
    SeedDone {
        /// The job.
        job: JobId,
        /// The seed.
        seed: u64,
        /// The outcome, with enough detail to replay the store merge.
        outcome: OutcomeImage,
    },
    /// The job went terminal and its store entry was sealed.
    Sealed {
        /// The job.
        job: JobId,
    },
    /// Cancellation was requested.
    Cancelled {
        /// The job.
        job: JobId,
    },
    /// The store's byte budget evicted the job's sealed results.
    Evicted {
        /// The job.
        job: JobId,
    },
}

// --- Wire impls -------------------------------------------------------------
//
// All journal/snapshot structures encode through the same hand-rolled
// codec as the DSM's own protocol messages: every length prefix is
// validated against the remaining bytes (`check_count`) before anything
// is allocated, so a corrupt length can cost at most the frame it rode
// in on.

cvm_net::wire! { struct JobId(0) }

// wire: hand-written — a flat tag, epochs and dwell for every variant, not a tagged enum.
impl Wire for Workload {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (tag, epochs, dwell): (u8, u64, u64) = match *self {
            Workload::RacyCounter { epochs } => (0, epochs, 0),
            Workload::DisjointGrid { epochs } => (1, epochs, 0),
            Workload::MixedStripes { epochs } => (2, epochs, 0),
            Workload::LockedCounter { epochs } => (3, epochs, 0),
            Workload::SleepyGrid { epochs, dwell_ms } => (4, epochs, dwell_ms),
            Workload::PanickyApp { epochs } => (5, epochs, 0),
        };
        tag.encode(buf);
        epochs.encode(buf);
        dwell.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = u8::decode(r)?;
        let epochs = u64::decode(r)?;
        let dwell_ms = u64::decode(r)?;
        Ok(match tag {
            0 => Workload::RacyCounter { epochs },
            1 => Workload::DisjointGrid { epochs },
            2 => Workload::MixedStripes { epochs },
            3 => Workload::LockedCounter { epochs },
            4 => Workload::SleepyGrid { epochs, dwell_ms },
            5 => Workload::PanickyApp { epochs },
            tag => {
                return Err(WireError::BadTag {
                    what: "Workload",
                    tag,
                })
            }
        })
    }
}

cvm_net::wire! { struct KillSpec { node, at_event } }
cvm_net::wire! { struct PartitionSpec { node, at_datagram, heal_at } }
cvm_net::wire! { struct FaultSpec { drop_rate, corrupt_rate, kill, partition } }

// wire: hand-written — `usize`, `Duration` and policy fields convert on the way.
impl Wire for JobSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.workload.encode(buf);
        (self.nprocs as u64).encode(buf);
        let protocol: u8 = match self.protocol {
            Protocol::SingleWriter => 0,
            Protocol::MultiWriter => 1,
        };
        protocol.encode(buf);
        self.pipelined.encode(buf);
        match self.recovery {
            RecoveryPolicy::Abort => {
                0u8.encode(buf);
                0u32.encode(buf);
            }
            RecoveryPolicy::Recover { max_attempts } => {
                1u8.encode(buf);
                max_attempts.encode(buf);
            }
        }
        self.fault.encode(buf);
        self.seed_base.encode(buf);
        self.seed_count.encode(buf);
        (self.run_deadline.as_nanos() as u64).encode(buf);
        self.retry_budget.encode(buf);
        self.flaky_first.encode(buf);
        self.stage_panic_epoch.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let workload = Workload::decode(r)?;
        let nprocs = u64::decode(r)? as usize;
        let protocol = match u8::decode(r)? {
            0 => Protocol::SingleWriter,
            1 => Protocol::MultiWriter,
            tag => {
                return Err(WireError::BadTag {
                    what: "Protocol",
                    tag,
                })
            }
        };
        let pipelined = bool::decode(r)?;
        let recovery_tag = u8::decode(r)?;
        let max_attempts = u32::decode(r)?;
        let recovery = match recovery_tag {
            0 => RecoveryPolicy::Abort,
            1 => RecoveryPolicy::Recover { max_attempts },
            tag => {
                return Err(WireError::BadTag {
                    what: "RecoveryPolicy",
                    tag,
                })
            }
        };
        let fault = FaultSpec::decode(r)?;
        Ok(JobSpec {
            workload,
            nprocs,
            protocol,
            pipelined,
            recovery,
            fault,
            seed_base: u64::decode(r)?,
            seed_count: u32::decode(r)?,
            run_deadline: Duration::from_nanos(u64::decode(r)?),
            retry_budget: u32::decode(r)?,
            flaky_first: u32::decode(r)?,
            stage_panic_epoch: Option::<u64>::decode(r)?,
        })
    }
}

cvm_net::wire! {
    enum OutcomeImage {
        Done { retries, occurrences, rendered, recovery } = 0,
        Failed { error, transient, retries } = 1,
        Cancelled = 2,
    }
}

cvm_net::wire! {
    enum JournalRecord {
        Submitted { job, spec } = 0,
        SeedDone { job, seed, outcome } = 1,
        Sealed { job } = 2,
        Cancelled { job } = 3,
        Evicted { job } = 4,
    }
}

// ---------------------------------------------------------------------------
// Shadow state
// ---------------------------------------------------------------------------

/// A record's encoding starts with its tag and its job id; a `Submitted`
/// body past them is the job's spec, a `SeedDone` body its `(seed,
/// outcome)` entry: the bytes a snapshot writes for them.
const RECORD_HEAD: usize = 1 + 8;

/// Bytes held by the shadow only ever enter it encoded by this build or
/// decoded once to check them, so decoding them again cannot fail.
const CHECKED: &str = "shadow bytes are checked as they enter";

/// One job's recovery image inside the shadow: the bytes a snapshot
/// writes for it, held encoded from submission on.
#[derive(Clone, Debug, PartialEq)]
pub struct ShadowJob {
    /// The job's snapshot bytes up to its flags: the spec, the outcome
    /// count, then each `(seed, OutcomeImage)` in journal order (store
    /// replay and `first_error` both depend on it).  A recovering daemon
    /// shares them with the persister rather than holding a copy.
    bytes: Arc<Vec<u8>>,
    /// Where the outcome count sits in `bytes`: just past the spec.
    count_at: usize,
    /// The seeds with an outcome: a replayed `SeedDone` is a no-op.
    seeds: Vec<u64>,
    /// Whether the store entry was sealed.
    pub sealed: bool,
    /// Whether cancellation was requested.
    pub cancelled: bool,
}

impl ShadowJob {
    /// A job admitted with the encoded `spec` and no outcome yet.
    fn admitted(spec: &[u8]) -> ShadowJob {
        let mut bytes = Vec::with_capacity(spec.len() + 4);
        bytes.extend_from_slice(spec);
        0u32.encode(&mut bytes);
        ShadowJob {
            bytes: Arc::new(bytes),
            count_at: spec.len(),
            seeds: Vec::new(),
            sealed: false,
            cancelled: false,
        }
    }

    /// Appends `entry`, the encoded `(seed, outcome)`, unless `seed`
    /// already has one; returns the bytes added.
    fn push_outcome(&mut self, seed: u64, entry: &[u8]) -> usize {
        if self.seeds.contains(&seed) {
            return 0;
        }
        self.seeds.push(seed);
        let bytes = Arc::make_mut(&mut self.bytes);
        bytes.extend_from_slice(entry);
        let count = (self.seeds.len() as u32).to_le_bytes();
        bytes[self.count_at..self.count_at + count.len()].copy_from_slice(&count);
        entry.len()
    }

    /// Gives back the growth slack of a job that takes no more outcomes.
    fn freeze(&mut self) {
        if let Some(bytes) = Arc::get_mut(&mut self.bytes) {
            bytes.shrink_to_fit();
        }
        self.seeds.shrink_to_fit();
    }

    /// The submitted spec, decoded.
    pub fn spec(&self) -> JobSpec {
        JobSpec::from_bytes(&self.bytes[..self.count_at]).expect(CHECKED)
    }

    /// The journaled `(seed, outcome)`s in journal order, each decoded as
    /// it is reached.
    pub fn outcomes(&self) -> impl Iterator<Item = (u64, OutcomeImage)> + '_ {
        let mut r = Reader::new(&self.bytes[self.count_at + 4..]);
        std::iter::from_fn(move || {
            (r.remaining() > 0).then(|| <(u64, OutcomeImage)>::decode(&mut r).expect(CHECKED))
        })
    }

    /// Reads one job of a snapshot body: `None` for a job kept after its
    /// eviction, as snapshots written before evicted jobs left the shadow
    /// hold them.
    fn read(r: &mut Reader<'_>) -> Result<Option<ShadowJob>, WireError> {
        let mut job = ShadowJob::admitted(r.take_checked::<JobSpec>()?);
        let count = u64::from(u32::decode(r)?);
        // Each entry is at least a seed (8) plus an outcome tag (1).
        let count = r.check_count(count, 9)?;
        for _ in 0..count {
            let entry = r.take_checked::<(u64, OutcomeImage)>()?;
            let seed = u64::decode(&mut Reader::new(entry))?;
            job.push_outcome(seed, entry);
        }
        job.sealed = bool::decode(r)?;
        job.cancelled = bool::decode(r)?;
        let evicted = bool::decode(r)?;
        job.freeze();
        Ok((!evicted).then_some(job))
    }
}

/// The replayable image of the daemon: what a snapshot serializes and
/// what recovery hands back to [`Daemon::open`](crate::Daemon::open).
/// It holds the jobs the store retains or still runs; an evicted job
/// leaves it, so it grows with retained jobs, not with jobs served.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShadowState {
    /// One past the highest assigned job id.
    pub next_job: u64,
    /// Jobs by id, every one submitted and not evicted.
    pub jobs: BTreeMap<u64, ShadowJob>,
    /// Jobs currently in the store's eviction queue, in seal order.
    pub sealed_order: VecDeque<u64>,
    /// Jobs the store's budget has evicted.
    pub jobs_evicted: u64,
    /// The jobs' bytes, summed.
    held: u64,
}

impl ShadowState {
    /// Applies one record.  Idempotent: re-applying a record already
    /// reflected (the post-snapshot-pre-trim crash window leaves the
    /// journal holding records the snapshot already contains) is a no-op.
    pub fn apply(&mut self, rec: &JournalRecord) {
        self.apply_encoded(rec, &rec.to_bytes());
    }

    /// [`apply`](ShadowState::apply) for a record whose encoding is
    /// `body`: a spec or an outcome is copied from `body`, not re-encoded.
    fn apply_encoded(&mut self, rec: &JournalRecord, body: &[u8]) {
        let fields = &body[RECORD_HEAD..];
        match rec {
            JournalRecord::Submitted { job, .. } => {
                // Ids are journaled in increasing order: one below
                // `next_job` was applied before, and may be evicted since.
                if job.0 >= self.next_job {
                    self.next_job = job.0 + 1;
                    let admitted = ShadowJob::admitted(fields);
                    self.held += admitted.bytes.len() as u64;
                    self.jobs.insert(job.0, admitted);
                }
            }
            JournalRecord::SeedDone { job, seed, .. } => {
                if let Some(j) = self.jobs.get_mut(&job.0) {
                    self.held += j.push_outcome(*seed, fields) as u64;
                }
            }
            JournalRecord::Sealed { job } => {
                if let Some(j) = self.jobs.get_mut(&job.0) {
                    if !j.sealed {
                        j.sealed = true;
                        j.freeze();
                        self.sealed_order.push_back(job.0);
                    }
                }
            }
            JournalRecord::Cancelled { job } => {
                if let Some(j) = self.jobs.get_mut(&job.0) {
                    j.cancelled = true;
                }
            }
            JournalRecord::Evicted { job } => {
                if let Some(j) = self.jobs.remove(&job.0) {
                    self.held -= j.bytes.len() as u64;
                    self.jobs_evicted += 1;
                    // The store evicts oldest-sealed first, so this is the
                    // front; the scan is for any other order.
                    if self.sealed_order.front() == Some(&job.0) {
                        self.sealed_order.pop_front();
                    } else {
                        self.sealed_order.retain(|&id| id != job.0);
                    }
                }
            }
        }
    }

    /// Bytes of the jobs' images the shadow holds: each retained job's
    /// spec and outcomes, encoded.
    pub fn bytes_held(&self) -> u64 {
        self.held
    }

    /// Hands the encoding to `sink` in pieces: the head, then each job's
    /// id, bytes and flags, then the trailer.  A sink that writes each
    /// piece out sees the whole encoding without it being resident.
    fn encode_pieces(
        &self,
        sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        self.next_job.encode(&mut buf);
        (self.jobs.len() as u32).encode(&mut buf);
        sink(&buf)?;
        for (id, job) in &self.jobs {
            buf.clear();
            id.encode(&mut buf);
            sink(&buf)?;
            sink(&job.bytes)?;
            buf.clear();
            // An evicted job has left the shadow: its flag is never set.
            for flag in [job.sealed, job.cancelled, false] {
                flag.encode(&mut buf);
            }
            sink(&buf)?;
        }
        // The queue's bytes are a `Vec<u64>`'s: a count, then the ids.
        buf.clear();
        (self.sealed_order.len() as u32).encode(&mut buf);
        let (front, back) = self.sealed_order.as_slices();
        u64::encode_slice(front, &mut buf);
        u64::encode_slice(back, &mut buf);
        self.jobs_evicted.encode(&mut buf);
        sink(&buf)
    }
}

// wire: hand-written — streamed job by job from each job's held bytes (`encode_pieces`).
impl Wire for ShadowState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.encode_pieces(&mut |piece| {
            buf.extend_from_slice(piece);
            Ok(())
        })
        .expect("a sink that keeps every piece cannot fail");
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let next_job = u64::decode(r)?;
        let count = u64::from(u32::decode(r)?);
        // Each job is at least an id (8) plus a minimal spec.
        let count = r.check_count(count, 16)?;
        let mut shadow = ShadowState {
            next_job,
            ..ShadowState::default()
        };
        for _ in 0..count {
            let id = u64::decode(r)?;
            if let Some(job) = ShadowJob::read(r)? {
                shadow.jobs.insert(id, job);
            }
        }
        shadow.sealed_order = Vec::<u64>::decode(r)?.into();
        shadow.jobs_evicted = u64::decode(r)?;
        shadow.held = shadow.jobs.values().map(|j| j.bytes.len() as u64).sum();
        Ok(shadow)
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

cvm_net::counters! {
    /// Point-in-time persistence counters, surfaced through daemon stats
    /// and the drain report.
    /// No run-to-run comparison reads it, so its fields carry no class.
    pub struct PersistStatsSnapshot {
        /// Records currently live in the journal file (drops to zero at
        /// each compaction; bounded by `max(compact_every records, snapshot
        /// bytes)`).
        pub journal_records: u64,
        /// Snapshots written by this process.
        pub snapshots_written: u64,
        /// Non-terminal jobs re-admitted at startup.
        pub recovered_jobs: u64,
        /// Torn or corrupt journal/snapshot tails truncated at open.
        pub torn_tail_truncations: u64,
        /// Journal fsyncs issued.
        pub fsyncs: u64,
        /// Persistence I/O failures after open (journaling degrades, the
        /// daemon keeps serving).
        pub io_errors: u64,
        /// Bytes of job images the shadow holds (each retained job's spec
        /// and outcomes, encoded): bounded by retained jobs.
        pub shadow_bytes: u64,
        /// Size of the live snapshot file.
        pub snapshot_bytes: u64,
    }
    atomic struct PersistCounters {}
}

// ---------------------------------------------------------------------------
// The persister
// ---------------------------------------------------------------------------

struct PersistInner {
    dir: PathBuf,
    journal: File,
    fsync: FsyncPolicy,
    compact_every: u64,
    /// Records and bytes in the journal since its last trim and the live
    /// snapshot's size, all restored by `open`: when a compaction is due.
    since_compact: u64,
    journal_bytes: u64,
    snapshot_bytes: u64,
    unsynced: u64,
    shadow: ShadowState,
    crash: Option<CrashSpec>,
    crash_hits: u64,
    wedged: bool,
}

/// The write-ahead journal engine.  `Disabled` (no data dir) variants are
/// free: every call is a no-op, so the daemon's non-durable mode pays
/// nothing.
pub struct Persist {
    inner: Option<Mutex<PersistInner>>,
    stats: PersistCounters,
}

fn persist_err(what: &str, path: &Path, e: &std::io::Error) -> DsmError {
    DsmError::Persist {
        context: format!("{what} {}: {e}", path.display()),
    }
}

impl Persist {
    /// A persister that journals nothing (the `data_dir: None` mode).
    pub fn disabled() -> Arc<Persist> {
        Arc::new(Persist {
            inner: None,
            stats: PersistCounters::default(),
        })
    }

    /// Whether a data directory backs this persister.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens (creating if needed) the data directory, recovers
    /// snapshot-then-journal, truncates any torn tail, and returns the
    /// engine plus the recovered [`ShadowState`] for the daemon to
    /// rebuild from.  The returned shadow shares its jobs' bytes with the
    /// engine's, so the images are held once.
    ///
    /// # Errors
    ///
    /// [`DsmError::Persist`] when the directory or its files cannot be
    /// created, read, or opened.  Torn and corrupt *contents* are not
    /// errors — they are truncated to the last valid prefix and counted.
    pub fn open(cfg: &PersistConfig) -> Result<(Arc<Persist>, ShadowState), DsmError> {
        let Some(dir) = &cfg.data_dir else {
            return Ok((Persist::disabled(), ShadowState::default()));
        };
        std::fs::create_dir_all(dir).map_err(|e| persist_err("create data dir", dir, &e))?;
        let stats = PersistCounters::default();

        // A stale tmp is a compaction that died mid-write: discard it.
        let tmp = dir.join(SNAPSHOT_TMP);
        match std::fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(persist_err("remove stale snapshot tmp", &tmp, &e)),
        }

        let (mut shadow, mut snapshot_bytes) = (ShadowState::default(), 0u64);
        let snap_path = dir.join(SNAPSHOT_FILE);
        match std::fs::read(&snap_path) {
            Ok(bytes) => match decode_snapshot(&bytes) {
                Ok(decoded) => (shadow, snapshot_bytes) = (decoded, bytes.len() as u64),
                Err(_) => {
                    // The atomic rename protocol never leaves a torn live
                    // snapshot, so this is disk rot: fall back to an empty
                    // shadow plus whatever the journal still holds, and
                    // count it rather than wedging the daemon.
                    stats.torn_tail_truncations.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(persist_err("read snapshot", &snap_path, &e)),
        }

        let journal_path = dir.join(JOURNAL_FILE);
        let (mut records, mut journal_bytes) = (0u64, 0u64);
        match std::fs::read(&journal_path) {
            Ok(bytes) => {
                let (valid_len, replayed, torn) = replay_journal(&bytes, &mut shadow);
                (records, journal_bytes) = (replayed, valid_len as u64);
                if torn {
                    stats.torn_tail_truncations.fetch_add(1, Ordering::Relaxed);
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&journal_path)
                        .map_err(|e| persist_err("open journal for truncate", &journal_path, &e))?;
                    f.set_len(valid_len as u64)
                        .map_err(|e| persist_err("truncate journal", &journal_path, &e))?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(persist_err("read journal", &journal_path, &e)),
        }

        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| persist_err("open journal", &journal_path, &e))?;

        stats.journal_records.store(records, Ordering::Relaxed);
        stats
            .shadow_bytes
            .store(shadow.bytes_held(), Ordering::Relaxed);
        stats
            .snapshot_bytes
            .store(snapshot_bytes, Ordering::Relaxed);
        let persist = Persist {
            inner: Some(Mutex::new(PersistInner {
                dir: dir.clone(),
                journal,
                fsync: cfg.fsync,
                compact_every: cfg.compact_every(),
                since_compact: records,
                journal_bytes,
                snapshot_bytes,
                unsynced: 0,
                // The jobs' bytes are shared, not copied: the daemon's
                // rebuild drops its references job by job.
                shadow: shadow.clone(),
                crash: cfg.crash,
                crash_hits: 0,
                wedged: false,
            })),
            stats,
        };
        Ok((Arc::new(persist), shadow))
    }

    /// Journals one record (write-ahead: call this *before* relying on the
    /// in-memory effect), applying it to the shadow and compacting when
    /// due.  I/O failures after a successful open degrade to counted
    /// `io_errors` rather than killing the daemon — the in-memory service
    /// keeps working, durability is what's lost.
    pub fn record(&self, rec: &JournalRecord) {
        let Some(m) = &self.inner else { return };
        let mut inner = m.lock();
        if inner.wedged {
            return;
        }
        let frame = journal_frame(rec);
        inner
            .shadow
            .apply_encoded(rec, &frame[FRAME_HEADER_BYTES..]);
        self.stats
            .shadow_bytes
            .store(inner.shadow.bytes_held(), Ordering::Relaxed);

        if self.hits_crash_point(&mut inner, CrashPoint::MidRecord) {
            // Tear the frame: half the bytes reach the file, then die.
            let half = frame.len() / 2;
            let _ = inner.journal.write_all(&frame[..half]);
            let _ = inner.journal.sync_data();
            self.die(&mut inner);
            return;
        }

        if let Err(e) = inner.journal.write_all(&frame) {
            self.note_io_error("append journal record", &e);
            return;
        }
        self.stats.journal_records.fetch_add(1, Ordering::Relaxed);
        inner.journal_bytes += frame.len() as u64;
        inner.unsynced += 1;

        if self.hits_crash_point(&mut inner, CrashPoint::PostRecordPreFsync) {
            self.die(&mut inner);
            return;
        }

        let due = match inner.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.unsynced >= u64::from(n),
            FsyncPolicy::Never => false,
        };
        if due {
            match inner.journal.sync_data() {
                Ok(()) => {
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    inner.unsynced = 0;
                }
                Err(e) => self.note_io_error("fsync journal", &e),
            }
        }

        // A snapshot costs O(state): due when the journal grew by as much.
        inner.since_compact += 1;
        if inner.since_compact >= inner.compact_every && inner.journal_bytes >= inner.snapshot_bytes
        {
            self.compact_locked(&mut inner);
        }
    }

    /// Journals the jobs a store [`merge`](crate::store::ResultStore::merge)
    /// or [`seal`](crate::store::ResultStore::seal) evicted.
    pub(crate) fn record_evictions(&self, evicted: Vec<JobId>) {
        for job in evicted {
            self.record(&JournalRecord::Evicted { job });
        }
    }

    /// Forces a compaction now, of any size (the drain path calls this so a
    /// restart after clean shutdown replays a snapshot, not a long journal).
    pub fn compact_now(&self) {
        let Some(m) = &self.inner else { return };
        let mut inner = m.lock();
        if inner.wedged {
            return;
        }
        self.compact_locked(&mut inner);
    }

    /// Counts `n` re-admitted jobs (the daemon calls this after rebuild).
    pub fn note_recovered_jobs(&self, n: u64) {
        self.stats.recovered_jobs.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> PersistStatsSnapshot {
        self.stats.snapshot()
    }

    fn compact_locked(&self, inner: &mut PersistInner) {
        let tmp_path = inner.dir.join(SNAPSHOT_TMP);
        let snap_path = inner.dir.join(SNAPSHOT_FILE);

        let mut tmp = match File::create(&tmp_path) {
            Ok(f) => f,
            Err(e) => {
                self.note_io_error("create snapshot tmp", &e);
                inner.since_compact = 0; // Back off; retry next interval.
                return;
            }
        };
        let tear = self.hits_crash_point(inner, CrashPoint::MidCompaction);
        let streamed = write_snapshot(&inner.shadow, &mut tmp);
        if tear {
            // Tear the tmp (the first half of the snapshot's bytes reach
            // the disk): the live snapshot and journal are untouched.
            let _ = streamed.and_then(|len| tmp.set_len(len / 2));
            let _ = tmp.sync_all();
            self.die(inner);
            return;
        }
        let written = streamed.and_then(|len| {
            tmp.sync_all()?;
            drop(tmp);
            std::fs::rename(&tmp_path, &snap_path)?;
            Ok(len)
        });
        match written {
            Ok(len) => {
                inner.snapshot_bytes = len;
                self.stats.snapshot_bytes.store(len, Ordering::Relaxed);
            }
            Err(e) => {
                self.note_io_error("write snapshot", &e);
                inner.since_compact = 0; // Back off; retry next interval.
                return;
            }
        }
        // Make the rename itself durable (best effort off Linux).
        if let Ok(d) = File::open(&inner.dir) {
            let _ = d.sync_all();
        }
        self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);

        if self.hits_crash_point(inner, CrashPoint::PostSnapshotPreTrim) {
            // The snapshot is live but the journal still holds everything
            // it contains: replay idempotency covers this window.
            self.die(inner);
            return;
        }

        match inner.journal.set_len(0) {
            Ok(()) => {
                self.stats.journal_records.store(0, Ordering::Relaxed);
                inner.journal_bytes = 0;
                inner.unsynced = 0;
            }
            Err(e) => self.note_io_error("trim journal", &e),
        }
        inner.since_compact = 0;
    }

    /// Whether the armed crash point just hit its scripted occurrence.
    fn hits_crash_point(&self, inner: &mut PersistInner, point: CrashPoint) -> bool {
        let Some(spec) = inner.crash else {
            return false;
        };
        if spec.point != point {
            return false;
        }
        inner.crash_hits += 1;
        inner.crash_hits == spec.at
    }

    fn die(&self, inner: &mut PersistInner) {
        match inner.crash.map(|c| c.mode) {
            Some(CrashMode::Abort) => {
                eprintln!("cvm-service: scripted crash at persistence point");
                std::process::abort();
            }
            _ => inner.wedged = true,
        }
    }

    fn note_io_error(&self, what: &str, e: &std::io::Error) {
        self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
        eprintln!("cvm-service: persistence degraded: {what}: {e}");
    }
}

/// One journal frame: the record encoded once, behind a header filled in last.
fn journal_frame(rec: &JournalRecord) -> Vec<u8> {
    let mut frame = Vec::with_capacity(256); // most records, in one allocation
    frame.resize(FRAME_HEADER_BYTES, 0);
    rec.encode(&mut frame);
    let header = frame_header(&frame[FRAME_HEADER_BYTES..]);
    frame[..FRAME_HEADER_BYTES].copy_from_slice(&header);
    frame
}

/// Streams the snapshot file into `file` — magic, version, then the shadow
/// in one integrity frame — and returns its length; the caller syncs and
/// renames.  No image of the state is built: each job's held bytes are
/// folded into the running checksum and copied into a fixed write buffer.
/// The frame header is therefore known last and patched in over zeroes,
/// and until then no prefix of the file passes for a snapshot.
fn write_snapshot(shadow: &ShadowState, file: &mut File) -> std::io::Result<u64> {
    let mut out = BufWriter::with_capacity(SNAPSHOT_WRITE_BUF, &mut *file);
    let mut head = [0; 8 + FRAME_HEADER_BYTES];
    head[..4].copy_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    head[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.write_all(&head)?;
    let (mut crc, mut len) = (!0u32, 0u64);
    shadow.encode_pieces(&mut |piece| {
        crc = crc32c_update(crc, piece);
        len += piece.len() as u64;
        out.write_all(piece)
    })?;
    out.flush()?;
    drop(out);

    // The frame's length field is 32 bits: past it the compaction fails
    // (and backs off) and the journal, which holds everything, stays.
    let body_len = u32::try_from(len).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "snapshot body over 4 GiB")
    })?;
    file.seek(SeekFrom::Start(8))?; // past the magic and the version
    file.write_all(&frame_header_of(body_len, !crc))?;
    Ok(head.len() as u64 + len)
}

fn decode_snapshot(bytes: &[u8]) -> Result<ShadowState, WireError> {
    let mut r = Reader::new(bytes);
    let magic = u32::decode(&mut r)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = u32::decode(&mut r)?;
    if version != SNAPSHOT_VERSION {
        return Err(WireError::BadTag {
            what: "snapshot version",
            tag: version.min(255) as u8,
        });
    }
    let body = decode_frame(r.take(r.remaining())?)?;
    ShadowState::from_bytes(body)
}

/// Replays `bytes` as concatenated journal frames onto `shadow`.  Returns
/// `(valid_prefix_len, records_applied, torn)`; scanning stops at the
/// first bad magic, short frame, checksum failure, or record-decode
/// failure — that byte offset is where the caller truncates.
fn replay_journal(bytes: &[u8], shadow: &mut ShadowState) -> (usize, u64, bool) {
    let mut off = 0usize;
    let mut records = 0u64;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < FRAME_HEADER_BYTES {
            return (off, records, true);
        }
        let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if magic != FRAME_MAGIC {
            return (off, records, true);
        }
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
        let Some(total) = FRAME_HEADER_BYTES.checked_add(len) else {
            return (off, records, true);
        };
        if rest.len() < total {
            return (off, records, true);
        }
        let Ok(body) = decode_frame(&rest[..total]) else {
            return (off, records, true);
        };
        let Ok(rec) = JournalRecord::from_bytes(body) else {
            return (off, records, true);
        };
        shadow.apply_encoded(&rec, body);
        records += 1;
        off += total;
    }
    (off, records, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use cvm_net::wire::encode_frame;
    use std::sync::atomic::AtomicU64;

    /// The snapshot file's bytes built in memory: the reference
    /// [`write_snapshot`] must equal byte for byte.
    fn encode_snapshot(shadow: &ShadowState) -> Vec<u8> {
        let mut buf = Vec::new();
        SNAPSHOT_MAGIC.encode(&mut buf);
        SNAPSHOT_VERSION.encode(&mut buf);
        let body_at = buf.len() + FRAME_HEADER_BYTES;
        buf.resize(body_at, 0);
        shadow.encode(&mut buf);
        let header = frame_header(&buf[body_at..]);
        buf[body_at - FRAME_HEADER_BYTES..body_at].copy_from_slice(&header);
        buf
    }

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(Workload::RacyCounter { epochs: 2 }, 3, 7, 2);
        s.protocol = Protocol::MultiWriter;
        s.pipelined = true;
        s.recovery = RecoveryPolicy::Recover { max_attempts: 2 };
        s.fault.drop_rate = 0.05;
        s.fault.kill = Some(KillSpec {
            node: 1,
            at_event: 40,
        });
        s.stage_panic_epoch = Some(3);
        s
    }

    fn done_image() -> OutcomeImage {
        OutcomeImage::Done {
            retries: 1,
            occurrences: vec![10, 11, 10],
            rendered: vec![(10, "race ten".into()), (11, "race eleven".into())],
            recovery: [1, 2, 3, 4],
        }
    }

    /// A spec with every optional field set and no field at its default.
    fn golden_spec() -> JobSpec {
        let mut s = JobSpec::new(
            Workload::SleepyGrid {
                epochs: 3,
                dwell_ms: 25,
            },
            4,
            0x1_0000_0001,
            5,
        );
        s.protocol = Protocol::MultiWriter;
        s.pipelined = true;
        s.recovery = RecoveryPolicy::Recover { max_attempts: 6 };
        s.fault = FaultSpec {
            drop_rate: 0.125,
            corrupt_rate: 0.0625,
            kill: Some(KillSpec {
                node: 2,
                at_event: 900,
            }),
            partition: Some(PartitionSpec {
                node: 3,
                at_datagram: 50,
                heal_at: Some(75),
            }),
        };
        s.run_deadline = Duration::from_millis(1500);
        s.retry_budget = 7;
        s.flaky_first = 1;
        s.stage_panic_epoch = Some(2);
        s
    }

    /// Each outcome variant.
    fn golden_outcomes() -> Vec<OutcomeImage> {
        vec![
            done_image(),
            OutcomeImage::Failed {
                error: "boom".into(),
                transient: true,
                retries: 2,
            },
            OutcomeImage::Cancelled,
        ]
    }

    /// Each record variant, the submission carrying [`golden_spec`].
    fn golden_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                job: JobId(3),
                spec: golden_spec(),
            },
            JournalRecord::SeedDone {
                job: JobId(3),
                seed: 8,
                outcome: done_image(),
            },
            JournalRecord::Sealed { job: JobId(3) },
            JournalRecord::Cancelled { job: JobId(4) },
            JournalRecord::Evicted {
                job: JobId(u64::MAX),
            },
        ]
    }

    /// Journals and snapshots written by any earlier build must open: the
    /// record, outcome, spec and snapshot bytes, pinned by length and
    /// digest, and the short ones byte for byte.
    #[test]
    fn journal_and_snapshot_bytes_are_pinned() {
        use cvm_net::wire::pin;
        let records: Vec<(usize, u64)> = golden_records().iter().map(pin).collect();
        assert_eq!(
            records,
            [
                (125, 3799140913919603425),
                (129, 9356519949602901420),
                (9, 3158136037452374022),
                (9, 17679429800544454742),
                (9, 2296858089540181483),
            ]
        );
        let outcomes: Vec<(usize, u64)> = golden_outcomes().iter().map(pin).collect();
        assert_eq!(
            outcomes,
            [
                (112, 8039691774779175158),
                (14, 6685186268396885820),
                (1, 12638155314718423877),
            ]
        );
        assert_eq!(pin(&golden_spec()), (116, 8301870472961369176));
        assert_eq!(
            JournalRecord::Sealed { job: JobId(0x0102) }.to_bytes(),
            [2, 2, 1, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(OutcomeImage::Cancelled.to_bytes(), [2]);

        // A small shadow: three jobs sealed, the middle one evicted.  The
        // evicted job has left the shadow, so the snapshot holds two jobs.
        let mut records: Vec<_> = (1..=3).flat_map(job_records).collect();
        records.push(JournalRecord::Evicted { job: JobId(2) });
        let shadow = shadow_of(&records);
        let snapshot = encode_snapshot(&shadow);
        assert_eq!(
            (snapshot.len(), cvm_net::wire::fnv1a64(&snapshot)),
            (604, 3718445994561440909)
        );

        // The same records' snapshot as builds that kept evicted jobs wrote
        // it: job 2 is still there, flagged evicted.  It opens to the same
        // shadow, and the new file is the old one without job 2's bytes.
        let old = OLD_THREE_SEALED_MIDDLE_EVICTED;
        assert_eq!(
            (old.len(), cvm_net::wire::fnv1a64(old)),
            (876, 8775425330665880616)
        );
        assert_eq!(decode_snapshot(old).unwrap(), shadow);
        let body_at = 8 + FRAME_HEADER_BYTES;
        let jobs_at = body_at + 8 + 4; // past `next_job` and the job count
        let job_len = old.len() - snapshot.len();
        let mut body = old[body_at..jobs_at - 4].to_vec();
        2u32.encode(&mut body);
        body.extend_from_slice(&old[jobs_at..jobs_at + job_len]);
        body.extend_from_slice(&old[jobs_at + 2 * job_len..]);
        let mut expect = old[..8].to_vec();
        expect.extend_from_slice(&frame_header(&body));
        expect.extend_from_slice(&body);
        assert!(
            snapshot == expect,
            "the new snapshot is not the old minus job 2"
        );
    }

    /// A snapshot written by builds that kept evicted jobs in the shadow.
    const OLD_THREE_SEALED_MIDDLE_EVICTED: &[u8] =
        include_bytes!("../tests/fixtures/three-sealed-middle-evicted.snapshot");

    #[test]
    fn golden_records_keep_the_wire_laws() {
        use cvm_net::wire::assert_wire_laws;
        golden_records().iter().for_each(assert_wire_laws);
        golden_outcomes().iter().for_each(assert_wire_laws);
        assert_wire_laws(&golden_spec());
    }

    #[test]
    fn records_roundtrip_through_wire() {
        let records = [
            JournalRecord::Submitted {
                job: JobId(3),
                spec: spec(),
            },
            JournalRecord::SeedDone {
                job: JobId(3),
                seed: 8,
                outcome: done_image(),
            },
            JournalRecord::SeedDone {
                job: JobId(3),
                seed: 9,
                outcome: OutcomeImage::Failed {
                    error: "boom".into(),
                    transient: true,
                    retries: 2,
                },
            },
            JournalRecord::Sealed { job: JobId(3) },
            JournalRecord::Cancelled { job: JobId(4) },
            JournalRecord::Evicted { job: JobId(3) },
        ];
        for rec in &records {
            let bytes = rec.to_bytes();
            assert_eq!(&JournalRecord::from_bytes(&bytes).unwrap(), rec);
            // Encoding in place behind the header changes no byte.
            assert_eq!(journal_frame(rec), encode_frame(&bytes));
        }
    }

    #[test]
    fn shadow_apply_is_idempotent() {
        let mut a = ShadowState::default();
        let records = [
            JournalRecord::Submitted {
                job: JobId(1),
                spec: spec(),
            },
            JournalRecord::SeedDone {
                job: JobId(1),
                seed: 7,
                outcome: done_image(),
            },
            JournalRecord::Sealed { job: JobId(1) },
            JournalRecord::Cancelled { job: JobId(1) },
            JournalRecord::Evicted { job: JobId(1) },
        ];
        for rec in &records {
            a.apply(rec);
        }
        let mut b = a.clone();
        for rec in &records {
            b.apply(rec); // Replaying the whole journal must change nothing.
        }
        assert_eq!(a, b);
        assert_eq!(a.jobs_evicted, 1);
        assert!(a.sealed_order.is_empty(), "evicted job left the queue");
        // Its replayed `Submitted` does not bring it back.
        assert!(a.jobs.is_empty(), "evicted job left the shadow");
        assert_eq!((a.next_job, a.bytes_held()), (2, 0));
    }

    #[test]
    fn shadow_snapshot_roundtrips() {
        let mut shadow = ShadowState::default();
        shadow.apply(&JournalRecord::Submitted {
            job: JobId(2),
            spec: spec(),
        });
        shadow.apply(&JournalRecord::SeedDone {
            job: JobId(2),
            seed: 8,
            outcome: done_image(),
        });
        shadow.apply(&JournalRecord::Sealed { job: JobId(2) });
        let bytes = encode_snapshot(&shadow);
        assert_eq!(decode_snapshot(&bytes).unwrap(), shadow);
        // A flipped body bit fails the CRC, not an assert deep in decode.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_snapshot(&bad).is_err());
    }

    /// The eviction queue's front pop is the old full scan wherever the
    /// store's order holds, and its fallback wherever it does not: a long
    /// seal/evict replay, mostly oldest first, with out-of-order evictions
    /// and repeated records mixed in, leaves the queue the old rule left.
    #[test]
    fn eviction_queue_matches_the_old_scan() {
        let (mut shadow, mut old_rule) = (ShadowState::default(), Vec::<u64>::new());
        let mut replay = |rec: JournalRecord| {
            let before = shadow.jobs.get(&rec_job(&rec)).cloned();
            shadow.apply(&rec);
            match rec {
                // An evicted job has left the shadow.
                JournalRecord::Sealed { job } if before.as_ref().is_some_and(|j| !j.sealed) => {
                    old_rule.push(job.0)
                }
                JournalRecord::Evicted { job } if before.is_some() => {
                    old_rule.retain(|&id| id != job.0)
                }
                _ => {}
            }
            assert!(shadow.sealed_order.iter().eq(&old_rule), "after {rec:?}");
        };
        let mut roll = 0x9e37_79b9_u64;
        let mut next_evict = 1;
        for job in 1..=3000u64 {
            replay(JournalRecord::Submitted {
                job: JobId(job),
                spec: spec(),
            });
            replay(JournalRecord::Sealed { job: JobId(job) });
            roll = roll.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            match roll >> 61 {
                // Oldest first, as the store evicts, now and then twice.
                0..=3 => {
                    replay(JournalRecord::Evicted {
                        job: JobId(next_evict),
                    });
                    if roll & 1 == 0 {
                        replay(JournalRecord::Evicted {
                            job: JobId(next_evict),
                        });
                    }
                    next_evict += 1;
                }
                // Out of order: some job sealed since the oldest.
                4 => replay(JournalRecord::Evicted {
                    job: JobId(next_evict + (roll >> 20) % (job + 1 - next_evict)),
                }),
                // A repeated seal.
                5 => replay(JournalRecord::Sealed { job: JobId(job) }),
                _ => {}
            }
        }
        assert!(
            shadow.sealed_order.len() > 100,
            "{}",
            shadow.sealed_order.len()
        );
    }

    fn rec_job(rec: &JournalRecord) -> u64 {
        match rec {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::SeedDone { job, .. }
            | JournalRecord::Sealed { job }
            | JournalRecord::Cancelled { job }
            | JournalRecord::Evicted { job } => job.0,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cvm-persist-unit-{tag}-{}-{serial}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// One job's life as the daemon journals it: admitted, two seeds
    /// done, sealed.
    fn job_records(job: u64) -> [JournalRecord; 4] {
        let job = JobId(job);
        [
            JournalRecord::Submitted { job, spec: spec() },
            JournalRecord::SeedDone {
                job,
                seed: 7,
                outcome: done_image(),
            },
            JournalRecord::SeedDone {
                job,
                seed: 8,
                outcome: OutcomeImage::Failed {
                    error: format!("seed 8 of job {} failed", job.0),
                    transient: false,
                    retries: 2,
                },
            },
            JournalRecord::Sealed { job },
        ]
    }

    fn shadow_of(records: &[JournalRecord]) -> ShadowState {
        let mut shadow = ShadowState::default();
        records.iter().for_each(|rec| shadow.apply(rec));
        shadow
    }

    #[test]
    fn streamed_snapshot_is_byte_identical() {
        let dir = scratch_dir("streamed");
        std::fs::create_dir_all(&dir).unwrap();
        // 600 jobs are several write buffers' worth, so the stream is
        // flushed mid-body, and one eviction takes a job out of the trailer.
        for jobs in [0u64, 1, 600] {
            let mut records: Vec<_> = (1..=jobs).flat_map(job_records).collect();
            if jobs > 1 {
                records.push(JournalRecord::Evicted { job: JobId(2) });
            }
            let shadow = shadow_of(&records);
            let path = dir.join(format!("snapshot-{jobs}"));
            let mut file = File::create(&path).unwrap();
            let len = write_snapshot(&shadow, &mut file).unwrap();
            drop(file);

            let bytes = std::fs::read(&path).unwrap();
            assert!(
                bytes == encode_snapshot(&shadow),
                "{jobs} jobs: bytes differ"
            );
            assert_eq!(len, bytes.len() as u64, "{jobs} jobs: returned length");
            assert_eq!(decode_snapshot(&bytes).unwrap(), shadow);
            if jobs == 600 {
                assert!(bytes.len() > 2 * SNAPSHOT_WRITE_BUF, "{}", bytes.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compactions_track_state_size() {
        const FLOOR: u64 = 8;
        let dir = scratch_dir("tracks");
        let cfg = PersistConfig {
            fsync: FsyncPolicy::Never,
            compact_every: FLOOR,
            ..PersistConfig::at(&dir)
        };
        let (persist, _) = Persist::open(&cfg).unwrap();
        let file_len = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());

        let records: Vec<_> = (1..=1000).flat_map(job_records).collect();
        for (i, rec) in records.iter().enumerate() {
            persist.record(rec);
            // The bound, as it stands whenever the mutex is free: the
            // journal is under the floor or under the snapshot.  (It
            // passes the larger of the two by the one record that makes
            // the compaction due, and is trimmed before `record` returns.)
            let (live, journal, snapshot) = (
                persist.stats().journal_records,
                file_len(JOURNAL_FILE),
                file_len(SNAPSHOT_FILE),
            );
            assert!(
                live < FLOOR || journal < snapshot,
                "record {i}: {live} records, {journal} journal bytes, {snapshot} snapshot bytes"
            );
        }
        let stats = persist.stats();
        assert_eq!(stats.io_errors, 0);
        // One snapshot per doubling of the state, not one per floor (500).
        assert!(
            (4..=16).contains(&stats.snapshots_written),
            "{} snapshots for {} records",
            stats.snapshots_written,
            records.len()
        );
        drop(persist);

        let (_, reopened) = Persist::open(&cfg).unwrap();
        assert_eq!(reopened, shadow_of(&records));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The indices of the records that triggered a compaction, with the
    /// persister dropped and reopened after each record in `reopen_after`.
    fn compaction_points(
        tag: &str,
        records: &[JournalRecord],
        reopen_after: &[usize],
    ) -> Vec<usize> {
        let dir = scratch_dir(tag);
        let cfg = PersistConfig {
            fsync: FsyncPolicy::Never,
            compact_every: 4,
            ..PersistConfig::at(&dir)
        };
        let (mut persist, _) = Persist::open(&cfg).unwrap();
        let mut points = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            let before = persist.stats().snapshots_written;
            persist.record(rec);
            if persist.stats().snapshots_written > before {
                points.push(i);
            }
            if reopen_after.contains(&i) {
                drop(persist);
                persist = Persist::open(&cfg).unwrap().0;
            }
        }
        assert_eq!(persist.stats().io_errors, 0);
        std::fs::remove_dir_all(&dir).ok();
        points
    }

    /// The shadow `Persist::open` hands back shares each job's bytes with
    /// the persister's: recovery holds one copy of the images.
    #[test]
    fn open_shares_the_job_bytes_it_hands_back() {
        let dir = scratch_dir("shared");
        let records: Vec<_> = (1..=3).flat_map(job_records).collect();
        let (persist, _) = Persist::open(&PersistConfig::at(&dir)).unwrap();
        records.iter().for_each(|rec| persist.record(rec));
        persist.compact_now();
        drop(persist);

        let (persist, shadow) = Persist::open(&PersistConfig::at(&dir)).unwrap();
        assert_eq!(shadow, shadow_of(&records));
        assert_eq!(persist.stats().shadow_bytes, shadow.bytes_held());
        let held = persist.inner.as_ref().unwrap().lock();
        assert_eq!(held.shadow.jobs.len(), 3);
        for (id, job) in &held.shadow.jobs {
            assert!(Arc::ptr_eq(&job.bytes, &shadow.jobs[id].bytes), "job {id}");
        }
        drop(held);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The old "three sealed, middle evicted" snapshot opens to the daemon
    /// the same records' journal opens to: every `status` and `races`
    /// answer, and the counters, alike.
    #[test]
    fn old_snapshot_opens_to_the_daemon_its_journal_does() {
        use crate::{Daemon, DaemonConfig};
        let (from_snapshot, from_journal) = (scratch_dir("old-snap"), scratch_dir("old-journal"));
        std::fs::create_dir_all(&from_snapshot).unwrap();
        std::fs::create_dir_all(&from_journal).unwrap();
        std::fs::write(
            from_snapshot.join(SNAPSHOT_FILE),
            OLD_THREE_SEALED_MIDDLE_EVICTED,
        )
        .unwrap();
        let mut records: Vec<_> = (1..=3).flat_map(job_records).collect();
        records.push(JournalRecord::Evicted { job: JobId(2) });
        let journal: Vec<u8> = records.iter().flat_map(journal_frame).collect();
        std::fs::write(from_journal.join(JOURNAL_FILE), journal).unwrap();

        let open = |dir: &Path| {
            Daemon::open(DaemonConfig {
                workers: 1,
                persist: PersistConfig::at(dir),
                ..DaemonConfig::default()
            })
            .unwrap()
        };
        let (a, b) = (open(&from_snapshot), open(&from_journal));
        for id in (1..=4).map(JobId) {
            assert_eq!(a.status(id), b.status(id), "{id}");
            let races = |d: &Daemon| d.races(id).map(|r| format!("{r:?}"));
            assert_eq!(races(&a), races(&b), "{id}");
        }
        assert!(a.status(JobId(1)).is_some() && a.status(JobId(2)).is_none());
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.jobs_submitted, sa.store), (3, sb.store));
        assert_eq!(sb.jobs_submitted, 3);
        assert_eq!(sa.pool.attempts + sb.pool.attempts, 0, "nothing re-ran");
        drop((a, b));
        std::fs::remove_dir_all(&from_snapshot).ok();
        std::fs::remove_dir_all(&from_journal).ok();
    }

    #[test]
    fn reopen_restores_the_sizes() {
        let records: Vec<_> = (1..=120).flat_map(job_records).collect();
        let uninterrupted = compaction_points("steady", &records, &[]);
        assert!(uninterrupted.len() >= 4, "{uninterrupted:?}");
        // Restart right after each compaction, one record before each
        // comes due, and in between: forgetting the snapshot's size would
        // compact at the floor, forgetting the journal's would compact late.
        let reopen_after: Vec<usize> = uninterrupted
            .iter()
            .flat_map(|&at| [at.saturating_sub(1), at, at + 3])
            .collect();
        let restarted = compaction_points("restarted", &records, &reopen_after);
        assert_eq!(restarted, uninterrupted);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_prefix() {
        let rec = JournalRecord::Sealed { job: JobId(5) };
        let frame = encode_frame(&rec.to_bytes());
        let mut bytes = frame.clone();
        bytes.extend_from_slice(&frame[..frame.len() / 2]); // torn second frame

        let mut shadow = ShadowState::default();
        let (valid, records, torn) = replay_journal(&bytes, &mut shadow);
        assert_eq!(valid, frame.len());
        assert_eq!(records, 1);
        assert!(torn);

        // Garbage after a valid frame is also a (counted) tail.
        let mut garbage = frame.clone();
        garbage.extend_from_slice(b"not a frame at all........");
        let (valid, records, torn) = replay_journal(&garbage, &mut ShadowState::default());
        assert_eq!((valid, records, torn), (frame.len(), 1, true));

        // A clean journal replays whole.
        let (valid, records, torn) = replay_journal(&frame, &mut ShadowState::default());
        assert_eq!((valid, records, torn), (frame.len(), 1, false));
    }

    #[test]
    fn crash_and_fsync_specs_parse() {
        assert_eq!(
            CrashSpec::parse("mid-record:3"),
            Some(CrashSpec {
                point: CrashPoint::MidRecord,
                at: 3,
                mode: CrashMode::Abort,
            })
        );
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.name()), Some(p));
        }
        assert_eq!(CrashSpec::parse("mid-record"), None);
        assert_eq!(CrashSpec::parse("nowhere:1"), None);
        assert_eq!(CrashSpec::parse("mid-record:0"), None);

        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("every:16"),
            Some(FsyncPolicy::EveryN(16))
        );
        assert_eq!(FsyncPolicy::parse("every:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(4),
        ] {
            assert_eq!(FsyncPolicy::parse(&p.name()), Some(p));
        }
    }
}
