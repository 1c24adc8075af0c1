//! Run configuration.

use cvm_net::reliable::LossConfig;
use cvm_net::NetConfig;
use cvm_page::{GAddr, Geometry};
use cvm_race::{EpochDetector, OverlapStrategy, PairEnumeration};

use crate::replay::SyncSchedule;
use crate::simtime::CostModel;

/// Which coherence protocol backs the shared pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Protocol {
    /// Single-writer: one writable copy, ownership moves through the page
    /// home.  The paper's prototype uses this protocol "to minimize
    /// complexity" (§6.2).
    #[default]
    SingleWriter,
    /// Multi-writer, home-based: concurrent writers twin pages and flush
    /// diffs to the home at interval close.
    MultiWriter,
}

/// How write accesses are detected for the race detector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WriteDetection {
    /// Both loads and stores are instrumented (the paper's implementation).
    #[default]
    Instrumentation,
    /// Write bitmaps are derived from multi-writer diffs (§6.5): store
    /// instrumentation is skipped, at the cost of missing races that
    /// overwrite a value with itself.  Requires [`Protocol::MultiWriter`].
    Diffs,
}

/// §6.1's second-run facility: gather access sites touching one address in
/// one barrier epoch (after replaying the synchronization order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Watch {
    /// The racy address from the first run's report.
    pub addr: GAddr,
    /// The barrier epoch the race was detected in.
    pub epoch: u64,
}

/// What `Cluster::run` does when a node dies mid-run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryPolicy {
    /// Drain and return the structured failure (pre-checkpoint behavior).
    /// No checkpoints are taken, no recovery messages are exchanged, and no
    /// recovery costs are charged — runs are bit-identical to a build
    /// without the checkpoint subsystem.
    #[default]
    Abort,
    /// Checkpoint every node's recovery image at each barrier release and,
    /// on a node failure, roll the cluster back to the last epoch for which
    /// every node holds an image, restore replacement node threads from
    /// those images, and re-enter the barrier loop at that epoch.
    Recover {
        /// Recovery attempts before giving up and surfacing the failure
        /// (each attempt rolls back to the newest complete epoch).
        max_attempts: u32,
    },
}

/// Per-node memory budget over *retained* detection and consistency state:
/// interval records, access bitmaps, multi-writer twins, and this node's
/// live checkpoint images.
///
/// Crossing `soft_bytes` triggers proactive degradation — consistency-info
/// GC of provably cluster-known records plus checkpoint-cut eviction down
/// to the newest complete cut — and counts a `soft_gcs` on the node.
/// Crossing `hard_bytes` *after* that GC fails the operation with
/// [`DsmError::ResourceExhausted`](crate::DsmError::ResourceExhausted),
/// which unwinds through the cluster's first-error path: the run returns a
/// drained partial report rather than allocating until the process dies.
///
/// Budget checks never charge virtual time and the unlimited default takes
/// no action at all, so race reports and cost accounting stay
/// byte-identical to an unbudgeted run for any budget above the
/// application's actual peak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemBudget {
    /// Soft limit: crossing it triggers GC/eviction, not failure.
    pub soft_bytes: u64,
    /// Hard limit: crossing it (post-GC) fails the run cleanly.
    pub hard_bytes: u64,
}

impl Default for MemBudget {
    fn default() -> Self {
        MemBudget {
            soft_bytes: u64::MAX,
            hard_bytes: u64::MAX,
        }
    }
}

impl MemBudget {
    /// Both limits set to the same value.
    pub fn exact(bytes: u64) -> Self {
        MemBudget {
            soft_bytes: bytes,
            hard_bytes: bytes,
        }
    }

    /// Whether this budget can never trip (the default).
    pub fn is_unlimited(&self) -> bool {
        self.soft_bytes == u64::MAX && self.hard_bytes == u64::MAX
    }
}

/// Race-detection configuration (off for the uninstrumented baseline runs).
#[derive(Clone, Copy, Debug)]
pub struct DetectConfig {
    /// Master switch: when off, CVM runs unmodified (no read notices, no
    /// bitmaps, no extra barrier round, no instrumentation cost).
    pub enabled: bool,
    /// Instrumented binary on an *unmodified* CVM: accesses pay the
    /// procedure-call and access-check costs, but no notices, bitmaps, or
    /// detection exist.  This is the intermediate configuration the paper
    /// measures to separate instrumentation overhead from the CVM
    /// modifications in Figure 3.
    pub instrumentation_only: bool,
    /// Report only "first" races (§6.4) instead of all races.
    pub first_races_only: bool,
    /// Page-list intersection strategy for the comparison algorithm.
    pub overlap: OverlapStrategy,
    /// Concurrent-pair enumeration strategy (the paper's simple scan, or
    /// the binary-search pruning its discussion alludes to).
    pub enumeration: PairEnumeration,
    /// Worker threads for the barrier master's planning and word-level
    /// comparison phases: `0` (the default) uses the host's available
    /// parallelism, `1` is the paper's serial master.  The master's own
    /// thread is one of the workers, so `n` shards cost `n - 1` thread
    /// spawns per phase.  Race reports and detector statistics are
    /// bit-identical for every worker count (and therefore so is the
    /// simulated cost accounting); only wall-clock time changes.
    pub workers: usize,
    /// Source of write-access information.
    pub write_detection: WriteDetection,
    /// Optional §6.1 watchpoint for replay runs.
    pub watch: Option<Watch>,
    /// Pipelined detection epochs: the barrier master releases the barrier
    /// as soon as epoch `N`'s consistency information has settled and runs
    /// the comparison for epoch `N` on a dedicated stage thread while the
    /// nodes compute epoch `N+1`.  Race reports are delivered one epoch
    /// deferred (flushed at run end) with byte-identical content and
    /// ordering to the synchronous run; under
    /// [`RecoveryPolicy::Recover`] a checkpoint cut commits only after its
    /// epoch's detection has drained, so recovery images carry the same
    /// race log either way.  Off by default (the paper's synchronous
    /// master).
    pub pipelined: bool,
    /// Fault injection: panic the pipelined stage thread when it dequeues
    /// the detection job for this epoch.  Exercises the stage-thread
    /// panic-containment path (the panic must surface as a structured
    /// [`DsmError::Protocol`](crate::DsmError::Protocol) through the
    /// run-wide first-error cell, never a hang).  `None` (the default)
    /// injects nothing.
    pub stage_panic_epoch: Option<u64>,
}

/// The comparison algorithm this configuration selects.
impl From<DetectConfig> for EpochDetector {
    fn from(detect: DetectConfig) -> Self {
        EpochDetector {
            overlap: detect.overlap,
            enumeration: detect.enumeration,
            workers: detect.workers,
        }
    }
}

impl DetectConfig {
    /// Detection fully enabled with the paper's defaults.
    pub fn on() -> Self {
        DetectConfig {
            enabled: true,
            instrumentation_only: false,
            first_races_only: false,
            overlap: OverlapStrategy::Auto,
            enumeration: PairEnumeration::Pruned,
            workers: 0,
            write_detection: WriteDetection::Instrumentation,
            watch: None,
            pipelined: false,
            stage_panic_epoch: None,
        }
    }

    /// Detection fully enabled with the pipelined epoch stage: the barrier
    /// releases before the comparison runs, and reports arrive one epoch
    /// deferred but byte-identical to [`DetectConfig::on`].
    pub fn pipelined() -> Self {
        DetectConfig {
            pipelined: true,
            ..DetectConfig::on()
        }
    }

    /// Instrumented binary, unmodified CVM (Figure 3's middle ground).
    pub fn instrumentation_only() -> Self {
        DetectConfig {
            instrumentation_only: true,
            ..DetectConfig::on()
        }
    }

    /// Detection disabled (baseline CVM).
    pub fn off() -> Self {
        DetectConfig {
            enabled: false,
            ..DetectConfig::on()
        }
    }
}

/// Full configuration of a simulated CVM cluster run.
#[derive(Clone, Debug)]
pub struct DsmConfig {
    /// Number of processes (one per simulated node).
    pub nprocs: usize,
    /// Page geometry of the shared segment.
    pub geometry: Geometry,
    /// Shared-segment capacity in bytes.
    pub shared_capacity: u64,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Race-detection settings.
    pub detect: DetectConfig,
    /// Network limits.
    pub net: NetConfig,
    /// Run over a faulty wire with the reliability protocol (CVM's UDP
    /// deployment) instead of perfect channels.  The
    /// [`FaultPlan`](cvm_net::FaultPlan) ranges from plain Bernoulli loss
    /// to scripted partitions and kills.
    pub net_loss: Option<LossConfig>,
    /// Deadline for any single blocking protocol operation (a lock
    /// acquire, a page fetch, a barrier arrival round).  When a node dies
    /// or partitions, waiting peers convert the would-be deadlock into a
    /// structured [`DsmError`](crate::DsmError) within this bound instead
    /// of hanging.  A barrier wait is bounded by the *slowest peer's
    /// computation*, not by protocol latency — the 8-process TSP run
    /// spends minutes of wall clock between barriers — so the default is
    /// very generous; fault tests shorten it (scripted kills are anyway
    /// detected in milliseconds by the reliability layer's max-retransmit
    /// threshold, well before any deadline).
    pub op_deadline: std::time::Duration,
    /// Virtual-time cost constants.
    pub costs: CostModel,
    /// Record per-process trace logs for the post-mortem baseline
    /// ([`cvm_race::trace`]): computation events with access bitmaps plus
    /// synchronization events with pairing information.  Tracing pays the
    /// same instrumentation costs as online detection but keeps growing
    /// state instead of garbage-collected state.
    pub trace: bool,
    /// Record the synchronization order of this run.
    pub record_sync: bool,
    /// Enforce a previously recorded synchronization order (§6.1 replay).
    pub replay: Option<SyncSchedule>,
    /// What to do when a node dies mid-run: abort (default) or restore
    /// from barrier-epoch checkpoints and complete the run.
    pub recovery: RecoveryPolicy,
    /// Per-node budget over retained records/bitmaps/twins/checkpoint
    /// images.  Unlimited by default (no behavior change at all).
    pub budget: MemBudget,
    /// Complete checkpoint cuts retained in the in-process store: older
    /// cuts are evicted as newer ones complete.  Recovery always steers to
    /// the newest retained complete cut, so any value ≥ 1 is safe; the
    /// default keeps one cut of slack for a node that dies mid-commit.
    pub ckpt_retain: usize,
    /// External cancellation: when the token fires, every service loop
    /// routes [`DsmError::Cancelled`](crate::DsmError::Cancelled) through
    /// the first-error path and the run drains with a partial report.
    /// `None` (the default) makes runs uncancellable from outside.
    pub cancel: Option<crate::fault::CancelToken>,
}

impl DsmConfig {
    /// A cluster of `nprocs` nodes with detection on and defaults
    /// everywhere else.
    pub fn new(nprocs: usize) -> Self {
        DsmConfig {
            nprocs,
            geometry: Geometry::default(),
            shared_capacity: 64 << 20,
            protocol: Protocol::default(),
            detect: DetectConfig::on(),
            net: NetConfig::default(),
            net_loss: None,
            op_deadline: std::time::Duration::from_secs(1800),
            costs: CostModel::default(),
            trace: false,
            record_sync: false,
            replay: None,
            recovery: RecoveryPolicy::default(),
            budget: MemBudget::default(),
            ckpt_retain: 2,
            cancel: None,
        }
    }

    /// Returns `true` when barrier-epoch checkpoints are being taken (the
    /// recovery policy is [`RecoveryPolicy::Recover`]).
    pub fn checkpointing(&self) -> bool {
        matches!(self.recovery, RecoveryPolicy::Recover { .. })
    }

    /// Pages in the shared segment (a trailing partial page counts): the
    /// bound on every page id a node will index its tables with.
    pub(crate) fn segment_pages(&self) -> usize {
        let pages = self.shared_capacity.div_ceil(self.geometry.page_bytes());
        usize::try_from(pages).expect("segment page count overflows usize")
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical combinations (zero processes, diff-based write
    /// detection without the multi-writer protocol).
    pub fn validate(&self) {
        assert!(self.nprocs > 0, "cluster needs at least one process");
        assert!(
            self.nprocs <= u16::MAX as usize,
            "too many processes for ProcId"
        );
        if self.detect.enabled && self.detect.write_detection == WriteDetection::Diffs {
            assert_eq!(
                self.protocol,
                Protocol::MultiWriter,
                "diff-based write detection requires the multi-writer protocol"
            );
        }
        assert!(
            self.budget.hard_bytes >= self.budget.soft_bytes,
            "hard budget below soft budget"
        );
        assert!(self.ckpt_retain >= 1, "must retain at least one cut");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        DsmConfig::new(8).validate();
        DsmConfig::new(1).validate();
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_procs_invalid() {
        DsmConfig::new(0).validate();
    }

    #[test]
    #[should_panic(expected = "multi-writer")]
    fn diff_detection_requires_multiwriter() {
        let mut c = DsmConfig::new(2);
        c.detect.write_detection = WriteDetection::Diffs;
        c.validate();
    }

    #[test]
    fn diff_detection_with_multiwriter_is_valid() {
        let mut c = DsmConfig::new(2);
        c.protocol = Protocol::MultiWriter;
        c.detect.write_detection = WriteDetection::Diffs;
        c.validate();
    }

    #[test]
    fn detect_on_off_toggles() {
        assert!(DetectConfig::on().enabled);
        assert!(!DetectConfig::off().enabled);
    }

    #[test]
    fn pipelined_defaults_off_and_composes() {
        assert!(!DetectConfig::on().pipelined);
        assert!(!DetectConfig::off().pipelined);
        let p = DetectConfig::pipelined();
        assert!(p.pipelined && p.enabled && !p.instrumentation_only);
    }

    #[test]
    fn budget_defaults_unlimited() {
        let b = MemBudget::default();
        assert!(b.is_unlimited());
        assert!(!MemBudget::exact(1 << 20).is_unlimited());
    }

    #[test]
    #[should_panic(expected = "hard budget below soft")]
    fn inverted_budget_invalid() {
        let mut c = DsmConfig::new(2);
        c.budget = MemBudget {
            soft_bytes: 100,
            hard_bytes: 50,
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one cut")]
    fn zero_retention_invalid() {
        let mut c = DsmConfig::new(2);
        c.ckpt_retain = 0;
        c.validate();
    }

    #[test]
    fn stage_panic_defaults_to_no_injection() {
        let c = DsmConfig::new(3);
        assert_eq!(c.detect.stage_panic_epoch, None);
        assert_eq!(DetectConfig::pipelined().stage_panic_epoch, None);
    }
}
