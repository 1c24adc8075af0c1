//! Run reports: everything the evaluation harness reads.

use std::time::Duration;

use cvm_net::{ReliabilitySnapshot, StatsSnapshot};
use cvm_page::SegmentMap;
use cvm_race::trace::TraceEvent;
use cvm_race::{DetectorStats, RaceLog, RaceReport};
use cvm_vclock::ProcId;

use crate::node::NodeStats;
use crate::replay::SyncSchedule;
use crate::simtime::{OverheadCat, CLOCK_HZ, NCATS};

/// One §6.1 watchpoint hit: an access site touching the watched address in
/// the watched epoch during a replay run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchHit {
    /// Accessing process.
    pub proc: ProcId,
    /// Access-site id (the modelled program counter).
    pub site: u32,
    /// Whether the access was a write.
    pub write: bool,
    /// Interval index of the access.
    pub interval: u32,
}

/// Per-node summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeReport {
    /// The process.
    pub proc: ProcId,
    /// Protocol counters.
    pub stats: NodeStats,
    /// Final virtual time (cycles).
    pub cycles: u64,
    /// Virtual cycles attributed per overhead category.
    pub cats: [u64; NCATS],
    /// Dynamic analysis-routine calls for shared data.
    pub shared_calls: u64,
    /// Dynamic analysis-routine calls for private data.
    pub private_calls: u64,
}

cvm_net::counters! {
    /// Checkpoint/recovery activity of one run (all zeros under
    /// [`RecoveryPolicy::Abort`](crate::RecoveryPolicy)).  What a kill or a
    /// partition sets off is timing: which cut the kill lands after, whose
    /// `NodeFailed` wins.
    pub struct RecoveryStats {
        /// Node images deposited in the checkpoint store (across attempts).
        pub checkpoints_taken: u64,
        /// Total encoded bytes of those images.
        #[sharing]
        pub bytes_snapshotted: u64,
        /// Rollback/restart cycles performed after node failures.
        #[timing]
        pub recoveries: u64,
        /// Barrier epochs re-entered after rollbacks (work lost to failures).
        #[timing]
        pub epochs_replayed: u64,
        /// Times the barrier-master role moved to the lowest-numbered survivor
        /// because the master itself died.
        #[timing]
        pub failovers: u64,
        /// Backoff sleeps taken between recovery attempts (exponential with
        /// seeded jitter, so persistent faults cannot spin the attempt loop).
        #[timing]
        pub backoff_waits: u64,
        /// Scripted partition windows that reached their heal point and let
        /// traffic flow again (from the reliability layer).
        #[timing]
        pub partitions_healed: u64,
        /// Stale-term master messages fenced (dropped, never applied) across
        /// the cluster: an old master talking across a healed partition.
        #[timing]
        pub stale_msgs_fenced: u64,
        /// Re-seating rounds abandoned because the would-be master could not
        /// collect a strict majority of handoff acknowledgements.
        #[timing]
        pub quorum_losses: u64,
        /// Nodes restored from the agreed checkpoint cut after having been cut
        /// off from the re-seating (the healed old master rejoining at the
        /// current term).
        #[timing]
        pub rejoin_restores: u64,
    }
}

/// Resource-governance high-water marks and counters of one run.
///
/// Node-side marks are cluster maxima (the most loaded node); queue and
/// link marks come from the transport; checkpoint counters from the shared
/// store.  All are observability-only: none feed back into protocol
/// decisions, so enabling them costs nothing in virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Max retained interval records on any node.
    pub log_high_water: u64,
    /// Max retained access bitmaps on any node.
    pub bitmap_high_water: u64,
    /// Max estimated retained bytes on any node (budget meter).
    pub retained_bytes_high_water: u64,
    /// Soft-budget crossings that triggered proactive GC, cluster-wide.
    pub soft_gcs: u64,
    /// Deepest credit window (in-flight unacked datagrams) on any link;
    /// bounded by the configured link capacity.
    pub queue_high_water: u64,
    /// Sends that waited for the credit window to reopen.
    pub credit_stalls: u64,
    /// Deepest in-process link queue anywhere in the fabric.
    pub link_high_water: u64,
    /// Checkpoint epochs evicted by the retention bound.
    pub cuts_evicted: u64,
    /// Encoded checkpoint bytes still resident at run end.
    pub checkpoint_bytes_live: u64,
}

/// Everything measured in one cluster run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-node summaries, indexed by process.
    pub nodes: Vec<NodeReport>,
    /// Races reported by the barrier master.
    pub races: RaceLog,
    /// Master's accumulated detector statistics.
    pub det_stats: DetectorStats,
    /// Network statistics (bytes per traffic class).
    pub net: StatsSnapshot,
    /// Reliability-layer statistics (drops, retransmissions, injected
    /// faults) when the run used a lossy wire; `None` on perfect channels.
    pub reliability: Option<ReliabilitySnapshot>,
    /// Shared-segment symbol map.
    pub segments: SegmentMap,
    /// Recorded synchronization schedule (when recording was on).
    pub schedule: SyncSchedule,
    /// §6.1 watchpoint hits (replay runs).
    pub watch_hits: Vec<WatchHit>,
    /// Per-process post-mortem trace logs (empty unless `DsmConfig::trace`).
    pub traces: Vec<Vec<TraceEvent>>,
    /// Checkpoint/recovery activity (zeros when checkpointing is off).
    pub recovery: RecoveryStats,
    /// Resource-governance marks (queues, budgets, eviction).
    pub resources: ResourceStats,
    /// Wall-clock duration of the simulation itself.
    pub wall: Duration,
}

/// What of a [`RunReport`] repeats between two runs of one program under
/// one synchronisation order, compared whole: [`RunReport::schedule_free`].
#[derive(Debug, PartialEq, Eq)]
pub struct ScheduleFree {
    races: Vec<RaceReport>,
    det_stats: DetectorStats,
    traces: Vec<Vec<TraceEvent>>,
    nodes: Vec<NodeReport>,
    net: Option<StatsSnapshot>,
    recovery: RecoveryStats,
    reliability: Option<ReliabilitySnapshot>,
}

impl RunReport {
    /// The part of this report that repeats between two runs of one
    /// program under one synchronisation order, for one `assert_eq!`.
    /// `sharing` is the program's property "two processes write one page
    /// in one epoch"; where it holds, the `#[sharing]` counters, the `Base`
    /// cycles and `net` go.  Clocks, `wall` and `resources` never count.  A
    /// run that takes checkpoints drops `retained_bytes_high_water` too.
    pub fn schedule_free(&self, sharing: bool) -> ScheduleFree {
        let nodes = self.nodes.iter().map(|n| {
            let mut n = NodeReport {
                stats: n.stats.schedule_free(sharing),
                cycles: 0,
                ..*n
            };
            if self.recovery.checkpoints_taken > 0 {
                n.stats.retained_bytes_high_water = 0;
            }
            if sharing {
                n.cats[OverheadCat::Base as usize] = 0;
            }
            n
        });
        ScheduleFree {
            races: self.races.reports().to_vec(),
            det_stats: self.det_stats.schedule_free(sharing),
            traces: self.traces.clone(),
            nodes: nodes.collect(),
            net: (!sharing).then_some(self.net),
            recovery: self.recovery.schedule_free(sharing),
            reliability: self.reliability.map(|r| r.schedule_free(sharing)),
        }
    }

    /// Virtual completion time: the latest node clock.
    pub fn virtual_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles).max().unwrap_or(0)
    }

    /// Virtual completion time in seconds (250 MHz Alpha clock).
    pub fn virtual_seconds(&self) -> f64 {
        self.virtual_cycles() as f64 / CLOCK_HZ as f64
    }

    /// Total intervals closed across the cluster.
    pub fn total_intervals(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.intervals).sum()
    }

    /// Barriers executed (per process; they are global).
    pub fn barriers(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.stats.barriers + n.stats.consolidations)
            .max()
            .unwrap_or(0)
    }

    /// Table 1's "Intervals Per Barrier": average intervals created per
    /// process per barrier epoch.
    pub fn intervals_per_barrier(&self) -> f64 {
        let b = self.barriers();
        if b == 0 || self.nodes.is_empty() {
            return 0.0;
        }
        self.total_intervals() as f64 / (b as f64 * self.nodes.len() as f64)
    }

    /// Cluster-wide overhead cycles per category.
    pub fn cats_total(&self) -> [u64; NCATS] {
        let mut out = [0u64; NCATS];
        for n in &self.nodes {
            for (acc, v) in out.iter_mut().zip(n.cats) {
                *acc += v;
            }
        }
        out
    }

    /// Dynamic analysis-routine calls: `(shared, private)` totals.
    pub fn analysis_calls(&self) -> (u64, u64) {
        let shared = self.nodes.iter().map(|n| n.shared_calls).sum();
        let private = self.nodes.iter().map(|n| n.private_calls).sum();
        (shared, private)
    }

    /// Table 3's "Inst. Accesses Per Second": per-process rates of
    /// instrumented calls, `(shared, private)`, using virtual time.
    pub fn analysis_rates(&self) -> (f64, f64) {
        let secs = self.virtual_seconds() * self.nodes.len() as f64;
        if secs == 0.0 {
            return (0.0, 0.0);
        }
        let (s, p) = self.analysis_calls();
        (s as f64 / secs, p as f64 / secs)
    }

    /// Total faults taken cluster-wide `(read, write)`.
    pub fn faults(&self) -> (u64, u64) {
        (
            self.nodes.iter().map(|n| n.stats.read_faults).sum(),
            self.nodes.iter().map(|n| n.stats.write_faults).sum(),
        )
    }

    /// Pipelined-detection counters `(epochs, stalls)`: epochs whose
    /// comparison ran on the stage thread, and barriers that had to wait
    /// for a still-running previous comparison.  Both zero for the
    /// synchronous master ([`DetectConfig::on`](crate::DetectConfig::on)).
    pub fn pipeline(&self) -> (u64, u64) {
        (
            self.nodes.iter().map(|n| n.stats.pipelined_epochs).sum(),
            self.nodes.iter().map(|n| n.stats.pipeline_stalls).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeStats;

    fn node(proc: u16, cycles: u64, intervals: u64, barriers: u64) -> NodeReport {
        NodeReport {
            proc: ProcId(proc),
            stats: NodeStats {
                intervals,
                barriers,
                ..NodeStats::default()
            },
            cycles,
            cats: [cycles, 0, 0, 0, 0, 0],
            shared_calls: 100,
            private_calls: 300,
        }
    }

    fn report(nodes: Vec<NodeReport>) -> RunReport {
        RunReport {
            nodes,
            races: RaceLog::new(),
            det_stats: DetectorStats::default(),
            net: StatsSnapshot::default(),
            reliability: None,
            segments: SegmentMap::default(),
            schedule: SyncSchedule::new(),
            watch_hits: Vec::new(),
            traces: Vec::new(),
            recovery: RecoveryStats::default(),
            resources: ResourceStats::default(),
            wall: Duration::from_secs(0),
        }
    }

    #[test]
    fn virtual_time_is_the_latest_node() {
        let r = report(vec![node(0, 100, 4, 2), node(1, 250, 4, 2)]);
        assert_eq!(r.virtual_cycles(), 250);
        assert!(r.virtual_seconds() > 0.0);
    }

    #[test]
    fn intervals_per_barrier_averages_over_procs_and_barriers() {
        let r = report(vec![node(0, 1, 4, 2), node(1, 1, 4, 2)]);
        // 8 intervals / (2 barriers * 2 procs) = 2.
        assert!((r.intervals_per_barrier() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn intervals_per_barrier_handles_no_barriers() {
        let r = report(vec![node(0, 1, 3, 0)]);
        assert_eq!(r.intervals_per_barrier(), 0.0);
    }

    #[test]
    fn cats_total_sums_across_nodes() {
        let r = report(vec![node(0, 100, 0, 1), node(1, 50, 0, 1)]);
        assert_eq!(r.cats_total()[OverheadCat::Base as usize], 150);
    }

    #[test]
    fn analysis_rates_use_per_process_virtual_seconds() {
        let cycles = crate::simtime::CLOCK_HZ; // Exactly one virtual second.
        let r = report(vec![node(0, cycles, 0, 1), node(1, cycles, 0, 1)]);
        let (shared, private) = r.analysis_rates();
        // 200 shared calls over 2 proc-seconds.
        assert!((shared - 100.0).abs() < 1e-9);
        assert!((private - 300.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = report(vec![]);
        assert_eq!(r.virtual_cycles(), 0);
        assert_eq!(r.analysis_rates(), (0.0, 0.0));
        assert_eq!(r.faults(), (0, 0));
    }
}
