//! CVM: a lazy release consistent software DSM, with integrated
//! on-the-fly data-race detection.
//!
//! This crate is the substrate the paper modified: a user-level DSM in the
//! mould of CVM/TreadMarks.  Each simulated node pairs an *application
//! thread* (running the parallel program against [`ProcHandle`]) with a
//! *service thread* (standing in for CVM's SIGIO-driven message handlers).
//! Nodes exchange real encoded messages over `cvm-net` links.
//!
//! The protocol engine implements:
//!
//! * **Intervals & version vectors** — execution segments delimited by
//!   synchronization, stamped for the constant-time concurrency check;
//! * **Locks** — distributed queue: a static manager per lock forwards
//!   requests to the last holder, grants carry the interval records the
//!   requester lacks (lazy release consistency proper);
//! * **Barriers** — a central master gathers all intervals, runs the race
//!   detector (steps 2–5 of §4), performs the extra bitmap round, and
//!   releases with the missing consistency information;
//! * **Single-writer protocol** (the paper's baseline) — page ownership
//!   through the page's home node, write faults transfer ownership;
//! * **Multi-writer protocol** (home-based, §6.5) — twins and diffs flushed
//!   to the page home at interval close, with optional diff-derived write
//!   detection and its documented weaker guarantee;
//! * **Virtual time** — a deterministic cycle-level cost model attributing
//!   overhead to the paper's Figure 3 categories, driving the slowdown
//!   numbers of Table 1 and Figure 4;
//! * **Synchronization record & replay** (§6.1) — lock-grant order recorded
//!   in a first run can be enforced in a second, enabling access-site
//!   identification of racy instructions.
//!
//! # Examples
//!
//! ```
//! use cvm_dsm::{Cluster, DsmConfig};
//!
//! let report = Cluster::run(
//!     DsmConfig::new(2),
//!     |alloc| alloc.alloc("Flag", 8).unwrap(),
//!     |h, &flag| {
//!         if h.proc() == 0 {
//!             h.write(flag, 1);        // Unsynchronized write...
//!         } else {
//!             let _ = h.read(flag);    // ...against an unsynchronized read.
//!         }
//!         h.barrier();                 // Detection runs here.
//!     },
//! )
//! .expect("healthy run");
//! assert_eq!(report.races.len(), 1);
//! assert!(report.races.reports()[0].render(&report.segments).contains("Flag"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod checkpoint;
mod cluster;
mod config;
mod error;
mod fault;
mod handle;
mod locks;
mod msg;
mod node;
mod pages;
mod pipeline;
mod replay;
mod report;
mod simtime;

pub use checkpoint::{CheckpointStore, NodeImage};
pub use cluster::Cluster;
pub use config::{
    DetectConfig, DsmConfig, MemBudget, Protocol, RecoveryPolicy, Watch, WriteDetection,
};
pub use cvm_net::{CorruptKind, FaultEvent, FaultPlan, ProtocolPhase, ReliabilitySnapshot};
pub use error::{DsmError, ResourceKind, RunError};
pub use fault::CancelToken;
pub use handle::{EpochStepper, ProcHandle};
pub use msg::Msg;
pub use node::NodeStats;
pub use replay::SyncSchedule;
pub use report::{NodeReport, RecoveryStats, ResourceStats, RunReport, WatchHit};
pub use simtime::{CostModel, OverheadCat, VirtualClock, CLOCK_HZ, NCATS};
