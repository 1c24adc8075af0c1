//! On-the-fly data-race detection via coherency guarantees.
//!
//! This crate is the paper's contribution (Perković & Keleher, OSDI '96):
//! an online race detector that leverages the ordering metadata a lazy
//! release consistent DSM already maintains.  The key intuition:
//!
//! > LRC implementations already maintain enough ordering information to
//! > make a constant-time determination of whether any two accesses are
//! > concurrent.
//!
//! A *data race* (Definition 2) is a pair of accesses to the same shared
//! variable, at least one a write, that are unordered by happens-before-1.
//! The detector runs at global synchronization points (barriers) in five
//! steps (§4):
//!
//! 1. intervals arrive at the barrier master carrying version vectors,
//!    *write notices*, and — the paper's addition — *read notices*;
//! 2. the master enumerates concurrent interval pairs (constant-time
//!    version-vector checks, see [`cvm_vclock::IntervalStamp`]);
//! 3. pairs whose page notice lists overlap go on the *check list*;
//! 4. an extra barrier round retrieves word-granularity access bitmaps for
//!    listed pages;
//! 5. bitmap intersection distinguishes false sharing from true races and
//!    reports the racy words.
//!
//! The crate is pure algorithm + data structures: the DSM engine in
//! `cvm-dsm` feeds it intervals and bitmaps.  This keeps every step
//! unit-testable without spinning up a cluster.
//!
//! # Examples
//!
//! Two concurrent intervals both write word 0 of page 3:
//!
//! ```
//! use cvm_page::{Geometry, PageBitmaps, PageId};
//! use cvm_race::{make_interval, BitmapStore, EpochDetector, RaceKind};
//!
//! let a = make_interval(0, 1, vec![1, 0], &[3], &[]); // P0 wrote page 3.
//! let b = make_interval(1, 1, vec![0, 1], &[3], &[]); // P1 wrote page 3.
//!
//! let detector = EpochDetector::new();
//! let mut plan = detector.plan(&[a.clone(), b.clone()]);
//! assert_eq!(plan.check.len(), 1);                    // On the check list.
//!
//! let mut store = BitmapStore::new();
//! let mut bm = PageBitmaps::new(512);
//! bm.write.set(0);
//! store.insert(a.id(), PageId(3), bm.clone());
//! store.insert(b.id(), PageId(3), bm);
//!
//! let geometry = Geometry::default();
//! let races = detector.compare(&mut plan, &store, geometry, 0).unwrap();
//! assert_eq!(races.len(), 1);
//! assert_eq!(races[0].kind, RaceKind::WriteWrite);
//! assert_eq!(races[0].addr, geometry.addr_of(PageId(3), 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod first;
mod interval;
mod report;
mod stats;
pub mod trace;

pub use detector::{
    BitmapStore, CheckEntry, CheckList, DetectError, DetectionPlan, EpochArena, EpochDetector,
    OverlapStrategy, PairClass, PairEnumeration, AUTO_COMPARE_PAGES_PER_SHARD,
    AUTO_OVERLAP_CUTOVER, AUTO_PLAN_PAIRS_PER_SHARD,
};
pub use first::filter_first_races;
pub use interval::{make_interval, Interval};
pub use report::{RaceKind, RaceLog, RaceReport};
pub use stats::DetectorStats;
