//! A synthetic 8-node detection epoch at paper scale: the epoch the
//! ledger's traced pass times as `core.{plan,compare,epoch}_us`.
//!
//! The epoch models a lock-heavy application (TSP/Water shape): intervals
//! close in a global round-robin acquire order, so each interval is
//! concurrent only with the handful of peers "in flight" around it and
//! ordered with everything else — the structure the pruned enumeration
//! exploits.  Page lists overlap between neighbours and the word-level
//! bitmaps are mostly disjoint (false sharing), the common case the
//! bitmap summary word short-circuits.

use cvm_page::{Geometry, PageBitmaps, PageId};
use cvm_race::{make_interval, BitmapStore, Interval};

/// Paper-scale node count.
pub const NPROCS: u16 = 8;
/// Intervals per process in the synthetic epoch.
pub const PER_PROC: u32 = 192;
/// Intervals "in flight" at once: interval `t` has only seen intervals
/// that closed at least `WINDOW` positions earlier, so each interval is
/// concurrent with its `WINDOW - 1` global neighbours on either side —
/// the paper's observation that almost all pairs are ordered, with a thin
/// concurrent frontier.
pub const WINDOW: u32 = 2;
/// Pages noticed per interval per kind.
pub const PAGES_PER_LIST: u32 = 4;
/// 8 KB DECstation pages, in words.
pub const PAGE_WORDS: usize = 1024;

/// One lock-heavy barrier epoch: interval `t` of the global round-robin
/// order belongs to process `t % 8`.  Knowledge propagates with a lag of
/// [`WINDOW`] positions (the release chains are still in transit for
/// anything closer), producing the realistic mostly-ordered structure
/// with a bounded concurrency window that the pruned enumeration
/// exploits.  Per-process knowledge of each peer is non-decreasing in
/// program order by construction.
pub fn epoch() -> Vec<Interval> {
    let nprocs = u32::from(NPROCS);
    let total = nprocs * PER_PROC;
    let mut out = Vec::new();
    for t in 0..total {
        let p = (t % nprocs) as u16;
        let index = t / nprocs + 1;
        let mut vc = vec![0u32; usize::from(NPROCS)];
        for q in 0..nprocs {
            // Number of q's intervals with global position <= t - WINDOW.
            vc[q as usize] = if t >= WINDOW + q {
                (t - WINDOW - q) / nprocs + 1
            } else {
                0
            };
        }
        vc[usize::from(p)] = index;
        let writes: Vec<u32> = (0..PAGES_PER_LIST)
            .map(|k| (u32::from(p) * 7 + index + k) % 32)
            .collect();
        let reads: Vec<u32> = (0..PAGES_PER_LIST)
            .map(|k| (u32::from(p) * 11 + index + k * 3) % 32)
            .collect();
        out.push(make_interval(p, index, vc, &writes, &reads));
    }
    out
}

/// Sparse, mostly per-process-disjoint word bitmaps for every page an
/// interval noticed: the false-sharing common case, with occasional true
/// overlaps so the comparison also produces reports.
pub fn bitmaps(intervals: &[Interval], g: Geometry) -> BitmapStore {
    let mut store = BitmapStore::new();
    for iv in intervals {
        let p = u32::from(iv.proc().0);
        let index = iv.id().index;
        let mut pages: Vec<PageId> = iv
            .write_notices
            .iter()
            .chain(iv.read_notices.iter())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            let mut bm = PageBitmaps::new(g.page_words);
            for k in 0..8u32 {
                // Word sets are offset by process so most pairs are
                // word-disjoint; every 16th interval collides on word 0.
                let w = (p * 101 + k * 37) as usize % g.page_words;
                if iv.write_notices.contains(&page) {
                    bm.write.set(w);
                } else {
                    bm.read.set(w);
                }
            }
            if index % 16 == 0 && iv.write_notices.contains(&page) {
                bm.write.set(0);
            }
            store.insert(iv.id(), page, bm);
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_race::{EpochArena, EpochDetector, PairEnumeration, RaceReport};

    /// The epoch behind the ledger's `core.*` rows genuinely exercises the
    /// comparison phase, and the paper's serial master, the default
    /// detector and the default detector through one reused arena (the
    /// pipelined stage's steady state) report exactly the same races.
    #[test]
    fn epoch_is_large_and_every_configuration_agrees() {
        let g = Geometry::with_page_bytes(PAGE_WORDS * 8);
        let intervals = epoch();
        let store = bitmaps(&intervals, g);
        let serial = EpochDetector {
            enumeration: PairEnumeration::Naive,
            workers: 1,
            ..EpochDetector::new()
        };
        let default = EpochDetector::new();
        let run = |d: &EpochDetector| -> Vec<RaceReport> {
            let mut plan = d.plan(&intervals);
            d.compare(&mut plan, &store, g, 0).expect("bitmaps present")
        };

        let entries = default.plan(&intervals).check.entries.len();
        assert!(entries > 500, "check list unexpectedly small: {entries}");
        let reports = run(&serial);
        assert!(!reports.is_empty(), "the epoch's true overlaps must report");
        assert_eq!(reports, run(&default));
        let mut arena = EpochArena::new();
        for _ in 0..2 {
            let mut plan = default.plan_with(&intervals, &mut arena);
            let arena_reports = default
                .compare_with(&mut plan, &store, g, 0, &mut arena)
                .expect("bitmaps present");
            assert_eq!(reports, arena_reports);
        }
    }
}
