//! The test kit every equivalence matrix runs on.
//!
//! One invariant carries the detector: a program's race reports depend only
//! on the program and its synchronisation order (§4), with §6.1's replay
//! pinning that order where lock grants make it vary.  A [`Scenario`] is one
//! cell of the configuration lattice; [`Scenario::reference`] is the same
//! cell with every fault and constraint removed and detection synchronous;
//! [`assert_equivalent`] runs both and compares their [`race_lines`].  Cells
//! that share a reference run it once as a [`Reference`] and compare each
//! cell against it with [`assert_matches`].
//!
//! ```
//! use cvm_dsm::{Cluster, Protocol, RecoveryPolicy};
//! use cvm_testkit::{assert_equivalent, Detection, Fault, Scenario, Wire};
//!
//! // Pipelined detection on multi-writer pages, recovering from a
//! // worker's death: the reports must equal the fault-free serial run's.
//! let cell = Scenario {
//!     protocol: Protocol::MultiWriter,
//!     detection: Detection::Pipelined,
//!     recovery: RecoveryPolicy::Recover { max_attempts: 3 },
//!     wire: Wire::Fast(7),
//!     faults: vec![Fault::Kill { victim: 1, at_event: 40 }],
//!     ..Scenario::new(2)
//! };
//! let (report, _reference) = assert_equivalent(&cell, |cfg| {
//!     Cluster::run(cfg, |a| a.alloc("x", 8).unwrap(), |h, &x| {
//!         let mut ep = h.epochs();
//!         for i in 0..8 {
//!             ep.step(|| h.write(x, i));
//!         }
//!     })
//! });
//! assert_eq!(report.races.len(), 8);
//! ```
//!
//! `CVM_SEED` is the one knob a CI matrix turns.  [`seed`] reads it (0 when
//! unset).  Suites that take it as a wire-seed axis pass their wire seeds
//! through [`seeded`], which moves them by `1000 × seed()`; suites with a
//! seed base of their own start from `seed().max(1)`.  Every other wire
//! seed is fixed.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cvm_dsm::{
    Cluster, DetectConfig, DsmConfig, MemBudget, Protocol, ProtocolPhase, RecoveryPolicy, RunError,
    RunReport, WriteDetection,
};
use cvm_net::FaultPlan;
use cvm_page::Geometry;
use cvm_vclock::ProcId;

/// The step `CVM_SEED` selects; 0 when it is unset.
pub fn seed() -> u64 {
    std::env::var("CVM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// The wire seed `base` moved by `1000 × seed()`, so each step explores
/// other loss and timing schedules.
pub fn seeded(base: u64) -> u64 {
    base.wrapping_add(1000 * seed())
}

/// How long any one blocking operation of a [`Scenario`] may wait: a bound
/// on a hang, never reached by a run that completes.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

/// The reliability-layer wire of every cell with a scripted death: a tight
/// RTO and retransmit budget declare a dead peer in milliseconds.
pub fn fast_wire(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed)
        .with_rto(Duration::from_millis(2), Duration::from_millis(16))
        .with_max_retransmits(8)
}

/// Sorted, rendered race lines: the fingerprint every matrix compares.
pub fn race_lines(report: &RunReport) -> Vec<String> {
    let mut lines: Vec<String> = report
        .races
        .reports()
        .iter()
        .map(|r| format!("{:?}@{} {}", r.kind, r.epoch, r.render(&report.segments)))
        .collect();
    lines.sort();
    lines
}

/// A fresh path under the system temp dir (the hermetic build has no
/// tempfile crate); nothing is created.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cvm-{tag}-{}-{serial}", std::process::id()))
}

/// How a cell detects races.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detection {
    /// The synchronous barrier master, on the host's cores.
    Sync,
    /// Detection epochs pipelined behind the barrier release.
    Pipelined,
    /// The synchronous master with this many comparison workers.
    Workers(usize),
    /// Instrumented accesses on an unmodified DSM: nothing is detected.
    InstrumentationOnly,
    /// Write bits derived from multi-writer diffs (§6.5).
    Diffs,
    /// Detection with the post-mortem trace recorded beside it.
    Trace,
    /// The post-mortem trace alone.
    TraceOnly,
    /// Neither detection nor instrumentation.
    Off,
}

/// How the nodes are connected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Perfect in-process channels.
    Direct,
    /// The reliability layer with its default timers, on this wire seed.
    Reliable(u64),
    /// [`fast_wire`] on this seed.
    Fast(u64),
}

/// One fault or constraint a cell adds to its wire or its nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// `victim` dies at its `at_event`-th engine event.
    Kill {
        /// The node that dies.
        victim: u16,
        /// Node-local engine-event count at which it dies.
        at_event: u64,
    },
    /// `victim` dies the `hit`-th time (0-based) it enters `phase`.
    KillAtPhase {
        /// The node that dies.
        victim: u16,
        /// The protocol window the strike fires in.
        phase: ProtocolPhase,
        /// Which entry into the window fires it.
        hit: u64,
    },
    /// `victim` is cut off from its `at`-th wire datagram until its
    /// `heal`-th.
    Partition {
        /// The partitioned node.
        victim: u16,
        /// Datagram count at which the cut starts.
        at: u64,
        /// Datagram count at which it heals.
        heal: u64,
    },
    /// Datagram corruption at this rate.
    Corrupt(f64),
    /// Datagram loss, duplication and reordering at these rates.
    Chaos {
        /// Loss rate.
        drop: f64,
        /// Duplication rate.
        dup: f64,
        /// Reordering rate.
        reorder: f64,
    },
    /// Every link's in-flight window, in datagrams.
    Capacity(u32),
    /// From its `at`-th wire datagram on, `node` dwells `dwell` per arrival.
    SlowConsumer {
        /// The slow node.
        node: u16,
        /// Datagram count at which the slowdown starts.
        at: u64,
        /// Dwell per arrival.
        dwell: Duration,
    },
    /// A soft memory budget of this many bytes (the hard limit unlimited).
    SoftBudget(u64),
}

/// One cell of the configuration lattice.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Processes, one per node.
    pub nprocs: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Detection mode.
    pub detection: Detection,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// What a node death does.
    pub recovery: RecoveryPolicy,
    /// The wire the faults ride on.
    pub wire: Wire,
    /// Faults and constraints; wire faults need a wire other than
    /// [`Wire::Direct`].
    pub faults: Vec<Fault>,
    /// Replay the reference's recorded synchronisation order in the cell
    /// (§6.1): what lock programs need for their reports to be comparable.
    pub replay: bool,
}

impl Scenario {
    /// `nprocs` processes on the defaults: single-writer, synchronous
    /// detection, 4 KB pages, abort on failure, perfect channels.
    pub fn new(nprocs: usize) -> Scenario {
        Scenario {
            nprocs,
            protocol: Protocol::SingleWriter,
            detection: Detection::Sync,
            page_bytes: 4096,
            recovery: RecoveryPolicy::Abort,
            wire: Wire::Direct,
            faults: Vec::new(),
            replay: false,
        }
    }

    /// Both protocols × every detection mode, and detection with
    /// checkpoints, on pages of `page_bytes`: the axis over which two
    /// programs making the same accesses must leave the same report.
    pub fn detection_axis(nprocs: usize, page_bytes: usize) -> Vec<Scenario> {
        use Detection::*;
        let mut cells = Vec::new();
        for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
            for detection in [Sync, Off, InstrumentationOnly, Diffs, Trace, TraceOnly] {
                // Single-writer has no diffs to derive write bits from.
                if detection != Diffs || protocol == Protocol::MultiWriter {
                    cells.push(Scenario {
                        protocol,
                        detection,
                        page_bytes,
                        ..Scenario::new(nprocs)
                    });
                }
            }
            cells.push(Scenario {
                protocol,
                page_bytes,
                recovery: RecoveryPolicy::Recover { max_attempts: 1 },
                ..Scenario::new(nprocs)
            });
        }
        cells
    }

    /// The run configuration of this cell, with [`OP_DEADLINE`].
    ///
    /// # Panics
    ///
    /// Panics on a wire fault over [`Wire::Direct`], or on a loss rate
    /// outside `0.0..1.0`.
    pub fn config(&self) -> DsmConfig {
        let mut cfg = DsmConfig::new(self.nprocs);
        cfg.op_deadline = OP_DEADLINE;
        cfg.protocol = self.protocol;
        cfg.geometry = Geometry::with_page_bytes(self.page_bytes);
        cfg.recovery = self.recovery;
        cfg.detect = match self.detection {
            Detection::Sync | Detection::Trace => DetectConfig::on(),
            Detection::Pipelined => DetectConfig::pipelined(),
            Detection::Workers(workers) => DetectConfig {
                workers,
                ..DetectConfig::on()
            },
            Detection::InstrumentationOnly => DetectConfig::instrumentation_only(),
            Detection::Diffs => DetectConfig {
                write_detection: WriteDetection::Diffs,
                ..DetectConfig::on()
            },
            Detection::TraceOnly | Detection::Off => DetectConfig::off(),
        };
        cfg.trace = matches!(self.detection, Detection::Trace | Detection::TraceOnly);
        let mut plan = match self.wire {
            Wire::Direct => None,
            Wire::Reliable(seed) => Some(FaultPlan::clean(seed)),
            Wire::Fast(seed) => Some(fast_wire(seed)),
        };
        for &fault in &self.faults {
            let wire =
                |plan: Option<FaultPlan>| plan.expect("a wire fault needs a wire, not Direct");
            plan = match fault {
                Fault::Kill { victim, at_event } => {
                    Some(wire(plan).with_kill(ProcId(victim), at_event))
                }
                Fault::KillAtPhase { victim, phase, hit } => {
                    Some(wire(plan).with_kill_at_phase(ProcId(victim), phase, hit))
                }
                Fault::Partition { victim, at, heal } => {
                    Some(wire(plan).with_partition_healed(ProcId(victim), at, heal))
                }
                Fault::Corrupt(rate) => Some(wire(plan).with_corruption(rate)),
                Fault::Chaos { drop, dup, reorder } => {
                    // The range `FaultPlan::new` enforces.
                    assert!((0.0..1.0).contains(&drop), "loss rate {drop} out of range");
                    Some(FaultPlan {
                        drop_rate: drop,
                        ..wire(plan).with_duplication(dup).with_reordering(reorder)
                    })
                }
                Fault::Capacity(capacity) => Some(wire(plan).with_link_capacity(capacity)),
                Fault::SlowConsumer { node, at, dwell } => {
                    Some(wire(plan).with_slow_consumer(ProcId(node), at, dwell))
                }
                Fault::SoftBudget(soft_bytes) => {
                    cfg.budget = MemBudget {
                        soft_bytes,
                        hard_bytes: u64::MAX,
                    };
                    plan
                }
            };
        }
        cfg.net_loss = plan;
        cfg
    }

    /// The same cell with no faults or constraints and the paper's serial
    /// synchronous master.  A [`Wire::Reliable`] cell tests that the
    /// reliability layer repairs its faults invisibly, so its reference runs
    /// on perfect channels; a [`Wire::Fast`] cell tests recovery from a
    /// death, so its reference keeps the wire and its timers and differs by
    /// the death alone.
    pub fn reference(&self) -> Scenario {
        Scenario {
            detection: Detection::Workers(1),
            wire: match self.wire {
                Wire::Reliable(_) => Wire::Direct,
                wire => wire,
            },
            faults: Vec::new(),
            ..self.clone()
        }
    }
}

/// A reference run: the scenario that ran and what it reported.
pub struct Reference {
    /// Some cell's [`Scenario::reference`].
    pub scenario: Scenario,
    /// Its report; its synchronisation order is recorded when
    /// `scenario.replay` is set.
    pub report: RunReport,
}

impl Reference {
    /// Runs `cell`'s reference and asserts that it recovered from nothing.
    ///
    /// # Panics
    ///
    /// Panics when the run fails or recovered.
    pub fn run(cell: &Scenario, run: impl Fn(DsmConfig) -> Result<RunReport, RunError>) -> Self {
        let scenario = cell.reference();
        let mut cfg = scenario.config();
        cfg.record_sync = scenario.replay;
        let report =
            run(cfg).unwrap_or_else(|e| panic!("{cell:?}: reference failed: {:?}", e.error));
        // The recovery counts a fault sets off are the `#[timing]` ones.
        let r = report.recovery;
        assert_eq!(
            r,
            r.schedule_free(false),
            "{cell:?}: the reference recovered"
        );
        Reference { scenario, report }
    }
}

/// Runs `cell` — replaying the reference's synchronisation order when
/// `cell.replay` is set — and asserts that it reports the same
/// [`race_lines`] as `reference`, which must be the cell's own.  Returns the
/// cell's report for the caller's per-cell checks.
///
/// # Panics
///
/// Panics when `reference` belongs to another cell, when the run fails, or
/// when the reports differ.
pub fn assert_matches(
    cell: &Scenario,
    reference: &Reference,
    run: impl Fn(DsmConfig) -> Result<RunReport, RunError>,
) -> RunReport {
    assert_eq!(
        cell.reference(),
        reference.scenario,
        "{cell:?}: compared against another cell's reference"
    );
    let mut cfg = cell.config();
    if cell.replay {
        cfg.replay = Some(reference.report.schedule.clone());
    }
    let report = run(cfg).unwrap_or_else(|e| panic!("{cell:?}: cell failed: {:?}", e.error));
    assert_eq!(
        race_lines(&report),
        race_lines(&reference.report),
        "{cell:?}: race reports differ from the reference"
    );
    report
}

/// [`assert_matches`] against a fresh [`Reference`] of `cell`.  Returns
/// `(cell, reference)` for the caller's per-cell checks.
///
/// # Panics
///
/// Panics when either run fails or the assertions do not hold.
pub fn assert_equivalent(
    cell: &Scenario,
    run: impl Fn(DsmConfig) -> Result<RunReport, RunError>,
) -> (RunReport, RunReport) {
    let reference = Reference::run(cell, &run);
    (assert_matches(cell, &reference, run), reference.report)
}

/// Asserts that two runs of one program left the same report: equal
/// [`RunReport::schedule_free`] projections.  `sharing` is whether two of
/// the program's processes write one page in one epoch.
pub fn assert_same_report(what: &str, a: &RunReport, b: &RunReport, sharing: bool) {
    assert_eq!(a.schedule_free(sharing), b.schedule_free(sharing), "{what}");
}

/// One access of a litmus program: `(proc, word, is_write)`.  The process
/// and word are taken modulo the run's process and word counts.
pub type Op = (usize, usize, bool);

/// Runs a barrier-epoch litmus program over `words` shared words: epoch `e`
/// performs its ops, each on its process, then ends at a barrier; a write
/// stores `e * 1000 + word`.
///
/// # Errors
///
/// The run's failure, as [`Cluster::run`] reports it.
pub fn run_epochs(cfg: DsmConfig, words: usize, epochs: &[Vec<Op>]) -> Result<RunReport, RunError> {
    let nprocs = cfg.nprocs;
    Cluster::run(
        cfg,
        |alloc| alloc.alloc("words", (words * 8) as u64).unwrap(),
        |h, &base| {
            let me = h.proc();
            let mut ep = h.epochs();
            for (e, ops) in epochs.iter().enumerate() {
                ep.step(|| {
                    for &(p, w, is_write) in ops {
                        if p % nprocs != me {
                            continue;
                        }
                        let w = w % words;
                        let addr = base.word(w as u64);
                        if is_write {
                            h.write(addr, (e * 1000 + w) as u64);
                        } else {
                            let _ = h.read(addr);
                        }
                    }
                });
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "a lost node")]
    fn a_report_missing_a_node_is_not_the_same_report() {
        let epochs = [vec![(0, 0, true), (1, 1, true)], vec![(0, 1, false)]];
        let full = run_epochs(DsmConfig::new(2), 2, &epochs).expect("run");
        let mut short = full.clone();
        short.nodes.pop();
        assert_same_report("a lost node", &full, &short, false);
    }
}
