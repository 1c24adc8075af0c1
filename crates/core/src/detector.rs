//! The barrier-master comparison algorithm (paper §4, steps 2–5).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use cvm_page::{Bitmap, Geometry, PageBitmaps, PageId};
use cvm_vclock::{IntervalId, ProcId};

use crate::{DetectorStats, Interval, RaceKind, RaceReport};

/// Notice-list length at or below which [`OverlapStrategy::Auto`] uses
/// the paper's quadratic scan instead of the sorted merge.
///
/// Calibrated from the `overlap_cutover` Criterion sweep
/// (`crates/bench/benches/detector.rs`, harvested into
/// `bench_results/overlap_cutover.csv`): on half-overlapping lists the
/// merge is at parity with the scan for single-entry lists (75 ns vs
/// 76 ns) and strictly faster at every longer length (2 entries: 76 ns
/// vs 91 ns; 8: 201 ns vs 317 ns; 16: 379 ns vs 836 ns; 32: 659 ns vs
/// 2179 ns), so the scan is only kept for the degenerate one-page lists
/// where it skips the merge's cursor bookkeeping.  Earlier revisions
/// guessed 16; the sweep shows the scan's constant-factor edge never
/// materialises because both paths allocate the same output vector.
pub const AUTO_OVERLAP_CUTOVER: usize = 1;

/// Strategy for intersecting two intervals' page notice lists.
///
/// The paper uses a naive `O(n^2)` scan because lists are "usually very
/// small (i.e. less than ten)" and notes (§6.2) that bitmap-backed page
/// lists would make the comparison linear in the number of pages; all three
/// are implemented (and benchmarked against each other) here.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlapStrategy {
    /// Naive scan for short lists, merge for long ones.
    #[default]
    Auto,
    /// The paper's naive `O(n*m)` nested scan.
    Quadratic,
    /// Linear merge of the (sorted) notice lists.
    SortedMerge,
    /// Bitmap over the page id space (§6.2's suggested improvement).
    PageBitmap,
}

/// How concurrent interval pairs are enumerated during planning.
///
/// The paper uses "a very simple interval comparison algorithm ...
/// primarily because the major system overhead is elsewhere", noting that
/// "synchronization and program order allow many of the comparisons to be
/// bypassed".  [`PairEnumeration::Pruned`] implements that bypass: within
/// one process, interval indices are totally ordered and knowledge only
/// grows, so for a fixed interval `a` of process `p`, the intervals of
/// process `q` ordered *before* `a` form a prefix (indices `<=
/// a.vc[q]`) and those ordered *after* form a suffix (the first whose
/// clock has seen `a`); the concurrent ones are the contiguous middle,
/// found by two binary searches instead of a full scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PairEnumeration {
    /// The paper's all-pairs scan.
    Naive,
    /// Binary-search pruning over per-process sorted interval lists.
    ///
    /// Requires stamps from a real execution: a process's knowledge of any
    /// peer must be non-decreasing in program order (always true of
    /// clocks produced by the protocol).  The default: it produces the
    /// same check list as [`PairEnumeration::Naive`] (property-tested)
    /// with far fewer version-vector comparisons on ordered epochs.
    #[default]
    Pruned,
}

/// Classification of one interval pair during planning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairClass {
    /// Ordered by happens-before-1; cannot race.
    Ordered,
    /// Concurrent, but their page access lists are disjoint.
    ConcurrentNoOverlap,
    /// Concurrent with overlapping pages: unsynchronized sharing (true or
    /// false) — goes on the check list.
    ConcurrentOverlap,
}

/// One check-list entry: a concurrent interval pair and the pages both
/// touched in a conflicting way.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckEntry {
    /// First interval (belonging to the lower-numbered process).
    pub a: IntervalId,
    /// Second interval.
    pub b: IntervalId,
    /// Overlapping pages, sorted.
    pub pages: Vec<PageId>,
}

/// The check list (paper §4, step 3): every concurrent interval pair with
/// page overlap, to be resolved at word granularity with bitmaps.
#[derive(Clone, Default, Debug)]
pub struct CheckList {
    /// Entries in discovery order.
    pub entries: Vec<CheckEntry>,
}

impl CheckList {
    /// Returns `true` if nothing needs word-level comparison.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Output of the planning phase (steps 2–3): the check list, the bitmaps to
/// fetch, and the counters accumulated so far.
#[derive(Clone, Debug)]
pub struct DetectionPlan {
    /// Pairs needing bitmap comparison.
    pub check: CheckList,
    /// Statistics for this epoch (bitmap counters filled in during
    /// [`EpochDetector::compare`]).
    pub stats: DetectorStats,
    requests: BTreeSet<(IntervalId, PageId)>,
}

impl DetectionPlan {
    /// Distinct `(interval, page)` bitmaps the master must retrieve in the
    /// extra barrier round (step 4), sorted.
    pub fn bitmap_requests(&self) -> impl Iterator<Item = (IntervalId, PageId)> + '_ {
        self.requests.iter().copied()
    }

    /// Number of distinct bitmaps to retrieve.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }
}

/// Storage for access bitmaps keyed by `(interval, page)`.
///
/// Each node keeps bitmaps for the intervals it created until they have
/// been checked at a barrier; the master assembles the subset named by the
/// check list into one of these before comparing.
#[derive(Clone, Default, Debug)]
pub struct BitmapStore {
    map: HashMap<(IntervalId, PageId), PageBitmaps>,
}

impl BitmapStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BitmapStore::default()
    }

    /// Inserts (or replaces) the bitmaps for `(interval, page)`.
    pub fn insert(&mut self, interval: IntervalId, page: PageId, bitmaps: PageBitmaps) {
        self.map.insert((interval, page), bitmaps);
    }

    /// Looks up the bitmaps for `(interval, page)`.
    pub fn get(&self, interval: IntervalId, page: PageId) -> Option<&PageBitmaps> {
        self.map.get(&(interval, page))
    }

    /// Number of stored bitmap pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every bitmap belonging to `interval`.
    pub fn evict_interval(&mut self, interval: IntervalId) {
        self.map.retain(|(id, _), _| *id != interval);
    }

    /// Retains only the bitmaps whose key satisfies `keep` (used for
    /// epoch-boundary garbage collection).
    pub fn retain(&mut self, mut keep: impl FnMut(&(IntervalId, PageId)) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Iterates over every stored `((interval, page), bitmaps)` entry in
    /// unspecified order (checkpoint serialization sorts the keys itself).
    pub fn iter(&self) -> impl Iterator<Item = (&(IntervalId, PageId), &PageBitmaps)> {
        self.map.iter()
    }
}

/// Reusable per-epoch scratch buffers for the detector's planning and
/// word-level comparison phases.
///
/// Both phases used to allocate inside their hot loops: planning built a
/// fresh page-overlap vector per concurrent pair (three intermediate
/// vectors per pair under the list strategies), and the comparison built a
/// fresh write-write chunk vector per `(entry, page)`.  An arena owns one
/// scratch set per worker shard and hands it back cleared, so a master
/// that keeps its arena across barrier epochs does **zero mid-epoch heap
/// allocation** in the comparison (outputs — check entries and race
/// reports — still allocate, exactly as before).
///
/// Reuse never changes results: every buffer is cleared before use, and
/// running two epochs through one arena is property-tested identical to
/// running them through two fresh arenas.
#[derive(Default, Debug)]
pub struct EpochArena {
    workers: Vec<WorkerScratch>,
}

impl EpochArena {
    /// Creates an empty arena (buffers grow on first use).
    pub fn new() -> Self {
        EpochArena::default()
    }

    /// Hands out one scratch set per shard, growing the pool as needed.
    fn scratches(&mut self, n: usize) -> &mut [WorkerScratch] {
        if self.workers.len() < n {
            self.workers.resize_with(n, WorkerScratch::default);
        }
        &mut self.workers[..n]
    }
}

/// One worker shard's scratch buffers (cleared before each use).
#[derive(Default, Debug)]
struct WorkerScratch {
    /// Page-overlap output for the pair currently being planned.
    pages: Vec<PageId>,
    /// Write-write chunk masks for the page currently being compared.
    ww: Vec<(usize, u64)>,
}

/// Error from the word-level comparison phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DetectError {
    /// A bitmap named by the check list was not supplied.
    MissingBitmap {
        /// Interval whose bitmap is missing.
        interval: IntervalId,
        /// Page whose bitmap is missing.
        page: PageId,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::MissingBitmap { interval, page } => {
                write!(f, "missing access bitmap for {interval:?} on {page:?}")
            }
        }
    }
}

impl std::error::Error for DetectError {}

/// The epoch-level race detector run by the barrier master.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochDetector {
    /// Page-list intersection strategy.
    pub overlap: OverlapStrategy,
    /// Concurrent-pair enumeration strategy.
    pub enumeration: PairEnumeration,
    /// Worker threads for planning and word-level comparison: `0` resolves
    /// to the host's available parallelism, `1` is the paper's serial
    /// master.  The calling thread is one of the workers: `n` shards cost
    /// `n - 1` thread spawns.
    ///
    /// Every worker count produces **bit-identical** plans, reports, and
    /// statistics: work is split into contiguous shards of the serial
    /// iteration order and shard outputs are merged back in shard order,
    /// so parallelism changes wall-clock time only — never what the
    /// detector reports or what the simulated cost model charges.
    pub workers: usize,
}

/// The host's available parallelism, resolved once: std documents the
/// call as uncached and expensive (on Linux it re-reads the affinity mask
/// and the cgroup quota files every time), and both phases of every epoch
/// need it.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl EpochDetector {
    /// Creates a detector with the default (auto) overlap strategy.
    pub fn new() -> Self {
        EpochDetector::default()
    }

    /// Resolves the configured worker count against the number of work
    /// items (shards are never smaller than one item).
    fn effective_workers(&self, items: usize) -> usize {
        if items == 0 {
            return 1;
        }
        let cap = match self.workers {
            0 => host_parallelism(),
            n => n,
        };
        cap.clamp(1, items)
    }

    /// Steps 2–3: enumerate concurrent interval pairs among `intervals`
    /// (one barrier epoch) and build the check list.
    ///
    /// Intervals of the same process are never compared — program order
    /// already orders them — so the version-vector comparison count is
    /// bounded by `O(i^2 p^2)` exactly as in the paper.
    ///
    /// With [`EpochDetector::workers`] above one, pair enumeration is
    /// sharded across threads by contiguous ranges of the serial iteration
    /// order (outer interval index for [`PairEnumeration::Naive`], process
    /// pairs for [`PairEnumeration::Pruned`]); the merged check list,
    /// request set, and statistics are identical to the serial ones.
    pub fn plan<I: std::borrow::Borrow<Interval>>(&self, intervals: &[I]) -> DetectionPlan {
        self.plan_with(intervals, &mut EpochArena::new())
    }

    /// [`EpochDetector::plan`] with caller-owned scratch: a master that
    /// keeps one [`EpochArena`] across epochs plans without re-allocating
    /// its per-pair overlap buffers.  Results are identical to
    /// [`EpochDetector::plan`].
    pub fn plan_with<I: std::borrow::Borrow<Interval>>(
        &self,
        intervals: &[I],
        arena: &mut EpochArena,
    ) -> DetectionPlan {
        // Accepting any borrow of `Interval` lets the barrier master plan
        // directly over its `Arc`-shared records without copying them.
        let intervals: Vec<&Interval> = intervals.iter().map(std::borrow::Borrow::borrow).collect();
        let intervals = &intervals[..];
        let mut stats = DetectorStats {
            intervals_total: intervals.len() as u64,
            ..DetectorStats::default()
        };
        for iv in intervals {
            stats.bitmaps_total += (iv.write_notices.len() + iv.read_notices.len()) as u64;
        }

        let shards = match self.enumeration {
            PairEnumeration::Naive => {
                // Outer index i is compared against everything after it.
                let n = intervals.len();
                let weights: Vec<u64> = (0..n).map(|i| (n - 1 - i) as u64).collect();
                self.run_plan_shards(arena, &weights, |planner, scratch, range| {
                    planner.naive(scratch, intervals, range);
                })
            }
            PairEnumeration::Pruned => {
                let by_proc = group_by_proc(intervals);
                let procs: Vec<ProcId> = by_proc.keys().copied().collect();
                let mut pairs = Vec::new();
                for (x, &p) in procs.iter().enumerate() {
                    for &q in &procs[x + 1..] {
                        pairs.push((p, q));
                    }
                }
                let weights: Vec<u64> =
                    pairs.iter().map(|(p, _)| by_proc[p].len() as u64).collect();
                self.run_plan_shards(arena, &weights, |planner, scratch, range| {
                    planner.pruned(scratch, &by_proc, &pairs[range]);
                })
            }
        };

        let mut check = CheckList::default();
        let mut requests = BTreeSet::new();
        let mut used = BTreeSet::new();
        for shard in shards {
            stats.add(&shard.stats);
            check.entries.extend(shard.check.entries);
            requests.extend(shard.requests);
            used.extend(shard.used);
        }
        stats.intervals_used = used.len() as u64;
        stats.bitmaps_requested = requests.len() as u64;
        DetectionPlan {
            check,
            stats,
            requests,
        }
    }

    /// Runs `fill` over contiguous weight-balanced shards of the serial
    /// iteration order and returns the per-shard planners **in shard
    /// order**, so concatenating their outputs reproduces the serial
    /// result exactly.
    fn run_plan_shards<F>(
        &self,
        arena: &mut EpochArena,
        weights: &[u64],
        fill: F,
    ) -> Vec<Planner<'_>>
    where
        F: Fn(&mut Planner<'_>, &mut WorkerScratch, Range<usize>) + Sync,
    {
        let ranges = balanced_ranges(weights, self.effective_workers(weights.len()));
        run_sharded(ranges, arena, |range, scratch| {
            let mut p = Planner::new(self);
            fill(&mut p, scratch, range);
            p
        })
    }

    /// Classifies a single interval pair (exposed for the figure-level unit
    /// tests and the ablation benches).
    pub fn classify_pair(&self, a: &Interval, b: &Interval) -> PairClass {
        if !a.stamp.concurrent_with(&b.stamp) {
            return PairClass::Ordered;
        }
        if self.overlap_pages(a, b).is_empty() {
            PairClass::ConcurrentNoOverlap
        } else {
            PairClass::ConcurrentOverlap
        }
    }

    /// Pages on which `a` and `b` conflict: written by one and read *or*
    /// written by the other.
    pub fn overlap_pages(&self, a: &Interval, b: &Interval) -> Vec<PageId> {
        let mut pages = Vec::new();
        self.overlap_pages_into(a, b, &mut pages);
        pages
    }

    /// [`EpochDetector::overlap_pages`] into a caller-owned buffer (cleared
    /// first): the planner's per-pair hot path, which allocates nothing
    /// when the buffer is reused across pairs.
    pub fn overlap_pages_into(&self, a: &Interval, b: &Interval, out: &mut Vec<PageId>) {
        out.clear();
        match self.overlap {
            OverlapStrategy::Quadratic => {
                quadratic_intersect(&a.write_notices, &b.write_notices, out);
                quadratic_intersect(&a.write_notices, &b.read_notices, out);
                quadratic_intersect(&a.read_notices, &b.write_notices, out);
            }
            OverlapStrategy::SortedMerge => {
                merge_intersect(&a.write_notices, &b.write_notices, out);
                merge_intersect(&a.write_notices, &b.read_notices, out);
                merge_intersect(&a.read_notices, &b.write_notices, out);
            }
            OverlapStrategy::PageBitmap => bitmap_conflict(a, b, out),
            OverlapStrategy::Auto => {
                let longest = a
                    .write_notices
                    .len()
                    .max(a.read_notices.len())
                    .max(b.write_notices.len())
                    .max(b.read_notices.len());
                let strategy = if longest <= AUTO_OVERLAP_CUTOVER {
                    OverlapStrategy::Quadratic
                } else {
                    OverlapStrategy::SortedMerge
                };
                EpochDetector {
                    overlap: strategy,
                    ..*self
                }
                .overlap_pages_into(a, b, out);
                return;
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Step 5: word-level bitmap comparison for every check-list entry.
    ///
    /// `epoch` tags the resulting reports.  Updates `plan.stats` with the
    /// comparison and race counters.
    ///
    /// With [`EpochDetector::workers`] above one, check entries are
    /// sharded across threads by contiguous ranges; merging shard outputs
    /// in shard order reproduces the serial report order, counters, and
    /// (on failure) the serial first error exactly.
    ///
    /// # Errors
    ///
    /// [`DetectError::MissingBitmap`] if `bitmaps` lacks an entry named by
    /// the check list.
    pub fn compare(
        &self,
        plan: &mut DetectionPlan,
        bitmaps: &BitmapStore,
        geometry: Geometry,
        epoch: u64,
    ) -> Result<Vec<RaceReport>, DetectError> {
        self.compare_with(plan, bitmaps, geometry, epoch, &mut EpochArena::new())
    }

    /// [`EpochDetector::compare`] with caller-owned scratch: with a reused
    /// [`EpochArena`] the word-level comparison performs zero mid-epoch
    /// heap allocation (reports excepted).  Results are identical to
    /// [`EpochDetector::compare`].
    ///
    /// # Errors
    ///
    /// [`DetectError::MissingBitmap`] if `bitmaps` lacks an entry named by
    /// the check list.
    pub fn compare_with(
        &self,
        plan: &mut DetectionPlan,
        bitmaps: &BitmapStore,
        geometry: Geometry,
        epoch: u64,
        arena: &mut EpochArena,
    ) -> Result<Vec<RaceReport>, DetectError> {
        let entries = &plan.check.entries;
        let weights: Vec<u64> = entries.iter().map(|e| e.pages.len() as u64).collect();
        let ranges = balanced_ranges(&weights, self.effective_workers(entries.len()));
        let shards = run_sharded(ranges, arena, |range, scratch| {
            compare_entries(&entries[range], bitmaps, geometry, epoch, scratch)
        });
        let mut reports = Vec::new();
        for shard in shards {
            // Counters and reports of shards past a failing one are
            // discarded, matching where the serial scan would have stopped.
            plan.stats.bitmap_comparisons += shard.comparisons;
            reports.extend(shard.reports);
            if let Some(err) = shard.error {
                return Err(err);
            }
        }
        plan.stats.races_found += reports.len() as u64;
        Ok(reports)
    }
}

/// Runs `work` over each range with a scratch set of its own and returns
/// the outputs in range order.  The calling thread takes the first range
/// itself and spawns a scoped thread for each further one, so a single
/// range spawns nothing and a thread that would only wait in `join` does
/// a shard's work instead.
fn run_sharded<T, F>(ranges: Vec<Range<usize>>, arena: &mut EpochArena, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &mut WorkerScratch) -> T + Sync,
{
    let scratches = arena.scratches(ranges.len());
    let mut shards = ranges.into_iter().zip(scratches.iter_mut());
    let Some((first_range, first_scratch)) = shards.next() else {
        return Vec::new();
    };
    if shards.len() == 0 {
        return vec![work(first_range, first_scratch)];
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = shards
            .map(|(range, scratch)| s.spawn(move || work(range, scratch)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(work(first_range, first_scratch));
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("detector shard panicked")),
        );
        out
    })
}

/// Splits `0..weights.len()` into at most `shards` contiguous, non-empty
/// ranges of roughly equal total weight.  Items are never reordered, so
/// shard outputs concatenate back into the serial order regardless of the
/// split.
fn balanced_ranges(weights: &[u64], shards: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, n);
    if shards == 1 {
        return std::iter::once(0..n).collect();
    }
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut out: Vec<Range<usize>> = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let filled = out.len() as u64 + 1;
        if filled < shards as u64 && acc * shards as u64 >= total * filled {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out.push(start..n);
    out.retain(|r| !r.is_empty());
    out
}

/// Groups intervals by owning process, each list sorted by interval index
/// (the order [`Planner::pruned`]'s binary searches require).
fn group_by_proc<'a>(intervals: &[&'a Interval]) -> BTreeMap<ProcId, Vec<&'a Interval>> {
    let mut by_proc: BTreeMap<ProcId, Vec<&'a Interval>> = BTreeMap::new();
    for &iv in intervals {
        by_proc.entry(iv.proc()).or_default().push(iv);
    }
    for list in by_proc.values_mut() {
        list.sort_by_key(|iv| iv.id().index);
    }
    by_proc
}

/// One shard's output from the word-level comparison phase.
struct CompareShard {
    reports: Vec<RaceReport>,
    comparisons: u64,
    error: Option<DetectError>,
}

/// Compares one contiguous run of check entries, stopping at the first
/// missing bitmap exactly as the serial scan does.
fn compare_entries(
    entries: &[CheckEntry],
    bitmaps: &BitmapStore,
    geometry: Geometry,
    epoch: u64,
    scratch: &mut WorkerScratch,
) -> CompareShard {
    let mut shard = CompareShard {
        reports: Vec::new(),
        comparisons: 0,
        error: None,
    };
    'entries: for entry in entries {
        for &page in &entry.pages {
            let Some(ba) = bitmaps.get(entry.a, page) else {
                shard.error = Some(DetectError::MissingBitmap {
                    interval: entry.a,
                    page,
                });
                break 'entries;
            };
            let Some(bb) = bitmaps.get(entry.b, page) else {
                shard.error = Some(DetectError::MissingBitmap {
                    interval: entry.b,
                    page,
                });
                break 'entries;
            };
            shard.comparisons += 1;
            compare_page(
                entry,
                page,
                ba,
                bb,
                geometry,
                epoch,
                &mut scratch.ww,
                &mut shard.reports,
            );
        }
    }
    shard
}

/// Planning state for one shard (the serial path is the one-shard case).
///
/// Every field merges exactly: the stats are additive counters, the check
/// list concatenates in shard order, and the request/used sets union.
struct Planner<'d> {
    detector: &'d EpochDetector,
    stats: DetectorStats,
    check: CheckList,
    requests: BTreeSet<(IntervalId, PageId)>,
    used: BTreeSet<IntervalId>,
}

impl<'d> Planner<'d> {
    fn new(detector: &'d EpochDetector) -> Self {
        Planner {
            detector,
            stats: DetectorStats::default(),
            check: CheckList::default(),
            requests: BTreeSet::new(),
            used: BTreeSet::new(),
        }
    }

    /// Handles one *known-concurrent* pair: page overlap + check list.
    fn concurrent_pair(&mut self, scratch: &mut WorkerScratch, a: &Interval, b: &Interval) {
        self.stats.pairs_concurrent += 1;
        if a.is_quiet() && b.is_quiet() {
            return;
        }
        self.detector.overlap_pages_into(a, b, &mut scratch.pages);
        let pages = &scratch.pages;
        if pages.is_empty() {
            return;
        }
        self.stats.pairs_overlapping += 1;
        self.used.insert(a.id());
        self.used.insert(b.id());
        for &pg in pages {
            self.requests.insert((a.id(), pg));
            self.requests.insert((b.id(), pg));
        }
        self.check.entries.push(CheckEntry {
            a: a.id(),
            b: b.id(),
            pages: pages.clone(),
        });
    }

    /// The paper's all-pairs scan, over one range of outer indices.
    fn naive(&mut self, scratch: &mut WorkerScratch, intervals: &[&Interval], range: Range<usize>) {
        for i in range {
            let a = intervals[i];
            for &b in &intervals[i + 1..] {
                if a.proc() == b.proc() {
                    continue;
                }
                self.stats.pair_comparisons += 1;
                if a.stamp.concurrent_with(&b.stamp) {
                    self.concurrent_pair(scratch, a, b);
                }
            }
        }
    }

    /// Binary-search pruning over one run of process pairs: per pair, the
    /// intervals of `q` concurrent with a fixed interval of `p` form a
    /// contiguous run.
    fn pruned(
        &mut self,
        scratch: &mut WorkerScratch,
        by_proc: &BTreeMap<ProcId, Vec<&Interval>>,
        pairs: &[(ProcId, ProcId)],
    ) {
        for &(p, q) in pairs {
            let pa = &by_proc[&p];
            let qb = &by_proc[&q];
            for a in pa {
                // Prefix of q ordered before a: indices <= a.vc[q].
                let known = a.stamp.vc.get(q);
                let lo = partition_probe(qb, &mut self.stats, |b| b.id().index <= known);
                // Suffix of q ordered after a: the first whose clock
                // has seen a (knowledge is monotone in program order).
                let own = a.id().index;
                let hi =
                    partition_probe(&qb[lo..], &mut self.stats, |b| b.stamp.vc.get(p) < own) + lo;
                for b in &qb[lo..hi] {
                    debug_assert!(a.stamp.concurrent_with(&b.stamp));
                    self.concurrent_pair(scratch, a, b);
                }
            }
        }
    }
}

/// `partition_point` that counts each probe as one version-vector
/// comparison in the statistics.
fn partition_probe(
    list: &[&Interval],
    stats: &mut DetectorStats,
    mut pred: impl FnMut(&Interval) -> bool,
) -> usize {
    let mut lo = 0;
    let mut hi = list.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        stats.pair_comparisons += 1;
        if pred(list[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Iterates the bit indices of `mask`, offset for backing word `wi`.
fn mask_bits(wi: usize, mut mask: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let tz = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(wi * 64 + tz)
        }
    })
}

/// Compares one page's bitmaps for one concurrent interval pair.
///
/// Works a 64-word chunk at a time via [`Bitmap::overlap_chunks`] (the
/// SWAR 4-lane AND-walk): the summary guard skips disjoint bitmap pairs
/// (the false-sharing common case) without scanning, and the mask
/// arithmetic below suppresses duplicate reports per chunk instead of per
/// bit.  `ww` is caller-owned scratch for the write-write chunk masks
/// (cleared here), so a reused arena makes this loop allocation-free.
#[allow(clippy::too_many_arguments)]
fn compare_page(
    entry: &CheckEntry,
    page: PageId,
    a: &PageBitmaps,
    b: &PageBitmaps,
    geometry: Geometry,
    epoch: u64,
    ww: &mut Vec<(usize, u64)>,
    out: &mut Vec<RaceReport>,
) {
    let report = |word: usize, kind: RaceKind| RaceReport {
        addr: geometry.addr_of(page, word),
        kind,
        a: entry.a,
        b: entry.b,
        epoch,
    };
    // Write-write conflicts take precedence; collect them first, keeping
    // the racy chunk masks to suppress duplicate read-write reports.
    ww.clear();
    for (wi, m) in a.write.overlap_chunks(&b.write) {
        for w in mask_bits(wi, m) {
            out.push(report(w, RaceKind::WriteWrite));
        }
        ww.push((wi, m));
    }
    let ww_mask = |wi: usize| -> u64 {
        ww.binary_search_by_key(&wi, |&(i, _)| i)
            .map_or(0, |k| ww[k].1)
    };
    for (wi, m) in a.write.overlap_chunks(&b.read) {
        for w in mask_bits(wi, m & !ww_mask(wi)) {
            out.push(report(w, RaceKind::ReadWrite));
        }
    }
    let a_write = a.write.raw();
    for (wi, m) in a.read.overlap_chunks(&b.write) {
        // A word already reported write-write or where `a` also wrote
        // (covered by the a.write∩b.write / a.write∩b.read passes) is not
        // reported again.
        for w in mask_bits(wi, m & !ww_mask(wi) & !a_write[wi]) {
            out.push(report(w, RaceKind::ReadWrite));
        }
    }
}

fn quadratic_intersect(a: &[PageId], b: &[PageId], out: &mut Vec<PageId>) {
    for &x in a {
        for &y in b {
            if x == y {
                out.push(x);
            }
        }
    }
}

fn merge_intersect(a: &[PageId], b: &[PageId], out: &mut Vec<PageId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn bitmap_conflict(a: &Interval, b: &Interval, out: &mut Vec<PageId>) {
    let max_page = a
        .pages_touched()
        .iter()
        .chain(b.pages_touched().iter())
        .map(|p| p.0)
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut wa = Bitmap::new(max_page);
    let mut ra = Bitmap::new(max_page);
    let mut wb = Bitmap::new(max_page);
    let mut rb = Bitmap::new(max_page);
    for p in &a.write_notices {
        wa.set(p.index());
    }
    for p in &a.read_notices {
        ra.set(p.index());
    }
    for p in &b.write_notices {
        wb.set(p.index());
    }
    for p in &b.read_notices {
        rb.set(p.index());
    }
    out.extend(
        wa.overlap_words(&wb)
            .chain(wa.overlap_words(&rb))
            .chain(ra.overlap_words(&wb))
            .map(|i| PageId(i as u32)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::make_interval;

    const STRATEGIES: [OverlapStrategy; 4] = [
        OverlapStrategy::Auto,
        OverlapStrategy::Quadratic,
        OverlapStrategy::SortedMerge,
        OverlapStrategy::PageBitmap,
    ];

    #[test]
    fn overlap_requires_a_writer() {
        // Read-read sharing on page 3 is not a conflict.
        let a = make_interval(0, 1, vec![1, 0], &[], &[3]);
        let b = make_interval(1, 1, vec![0, 1], &[], &[3]);
        for s in STRATEGIES {
            let d = EpochDetector {
                overlap: s,
                ..Default::default()
            };
            assert!(d.overlap_pages(&a, &b).is_empty(), "{s:?}");
            assert_eq!(d.classify_pair(&a, &b), PairClass::ConcurrentNoOverlap);
        }
    }

    #[test]
    fn overlap_detects_all_three_conflict_shapes() {
        // a writes 1, reads 2; b writes 2, reads 1; both write 5.
        let a = make_interval(0, 1, vec![1, 0], &[1, 5], &[2]);
        let b = make_interval(1, 1, vec![0, 1], &[2, 5], &[1]);
        for s in STRATEGIES {
            let d = EpochDetector {
                overlap: s,
                ..Default::default()
            };
            assert_eq!(
                d.overlap_pages(&a, &b),
                vec![PageId(1), PageId(2), PageId(5)],
                "{s:?}"
            );
        }
    }

    #[test]
    fn ordered_pairs_are_never_checked() {
        // b's clock has seen a's interval: ordered, even with page overlap.
        let a = make_interval(0, 1, vec![1, 0], &[7], &[]);
        let b = make_interval(1, 1, vec![1, 1], &[7], &[]);
        let d = EpochDetector {
            enumeration: PairEnumeration::Naive,
            ..Default::default()
        };
        assert_eq!(d.classify_pair(&a, &b), PairClass::Ordered);
        let plan = d.plan(&[a.clone(), b.clone()]);
        assert!(plan.check.is_empty());
        assert_eq!(plan.stats.pairs_concurrent, 0);
        assert_eq!(plan.stats.pair_comparisons, 1);
        // The pruned default reaches the same conclusion (its two binary
        // search probes both count as comparisons).
        let pruned = EpochDetector::new().plan(&[a, b]);
        assert!(pruned.check.is_empty());
        assert_eq!(pruned.stats.pairs_concurrent, 0);
        assert_eq!(pruned.stats.pair_comparisons, 2);
    }

    #[test]
    fn same_process_intervals_skip_comparison() {
        let a = make_interval(0, 1, vec![1, 0], &[1], &[]);
        let b = make_interval(0, 2, vec![2, 0], &[1], &[]);
        let plan = EpochDetector::new().plan(&[a, b]);
        assert_eq!(plan.stats.pair_comparisons, 0);
        assert!(plan.check.is_empty());
    }

    #[test]
    fn plan_builds_check_list_and_requests() {
        let a = make_interval(0, 1, vec![1, 0], &[4], &[9]);
        let b = make_interval(1, 1, vec![0, 1], &[9], &[]);
        let plan = EpochDetector::new().plan(&[a, b]);
        assert_eq!(plan.check.len(), 1);
        let entry = &plan.check.entries[0];
        assert_eq!(entry.pages, vec![PageId(9)]);
        let reqs: Vec<_> = plan.bitmap_requests().collect();
        assert_eq!(reqs.len(), 2);
        assert_eq!(plan.stats.intervals_used, 2);
        assert_eq!(plan.stats.intervals_total, 2);
        // a has 2 notices, b has 1: denominator is 3; 2 requested.
        assert_eq!(plan.stats.bitmaps_total, 3);
        assert_eq!(plan.stats.bitmaps_requested, 2);
    }

    #[test]
    fn compare_separates_false_and_true_sharing() {
        let g = Geometry::default();
        let a = make_interval(0, 1, vec![1, 0], &[0], &[]);
        let b = make_interval(1, 1, vec![0, 1], &[0], &[]);
        let d = EpochDetector::new();
        let mut plan = d.plan(&[a.clone(), b.clone()]);

        // False sharing: different words of page 0.
        let mut store = BitmapStore::new();
        let mut ba = PageBitmaps::new(g.page_words);
        ba.write.set(0);
        let mut bb = PageBitmaps::new(g.page_words);
        bb.write.set(1);
        store.insert(a.id(), PageId(0), ba.clone());
        store.insert(b.id(), PageId(0), bb);
        let reports = d.compare(&mut plan, &store, g, 0).unwrap();
        assert!(reports.is_empty(), "false sharing must not be reported");
        assert_eq!(plan.stats.bitmap_comparisons, 1);

        // True sharing: same word.
        let mut plan2 = d.plan(&[a.clone(), b.clone()]);
        let mut bb2 = PageBitmaps::new(g.page_words);
        bb2.write.set(0);
        let mut store2 = BitmapStore::new();
        store2.insert(a.id(), PageId(0), ba);
        store2.insert(b.id(), PageId(0), bb2);
        let reports = d.compare(&mut plan2, &store2, g, 5).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::WriteWrite);
        assert_eq!(reports[0].addr, g.addr_of(PageId(0), 0));
        assert_eq!(reports[0].epoch, 5);
        assert_eq!(plan2.stats.races_found, 1);
    }

    #[test]
    fn compare_reports_read_write_in_both_directions() {
        let g = Geometry::default();
        // a reads word 3 of page 2; b writes it.
        let a = make_interval(0, 1, vec![1, 0], &[], &[2]);
        let b = make_interval(1, 1, vec![0, 1], &[2], &[]);
        let d = EpochDetector::new();
        let mut plan = d.plan(&[a.clone(), b.clone()]);
        let mut store = BitmapStore::new();
        let mut ba = PageBitmaps::new(g.page_words);
        ba.read.set(3);
        let mut bb = PageBitmaps::new(g.page_words);
        bb.write.set(3);
        store.insert(a.id(), PageId(2), ba);
        store.insert(b.id(), PageId(2), bb);
        let reports = d.compare(&mut plan, &store, g, 0).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::ReadWrite);
        assert_eq!(reports[0].addr, g.addr_of(PageId(2), 3));
    }

    #[test]
    fn write_write_takes_precedence_over_read_write() {
        let g = Geometry::default();
        let a = make_interval(0, 1, vec![1, 0], &[0], &[0]);
        let b = make_interval(1, 1, vec![0, 1], &[0], &[0]);
        let d = EpochDetector::new();
        let mut plan = d.plan(&[a.clone(), b.clone()]);
        let mut store = BitmapStore::new();
        // Both read AND write word 7.
        let mut bm = PageBitmaps::new(g.page_words);
        bm.read.set(7);
        bm.write.set(7);
        store.insert(a.id(), PageId(0), bm.clone());
        store.insert(b.id(), PageId(0), bm);
        let reports = d.compare(&mut plan, &store, g, 0).unwrap();
        assert_eq!(reports.len(), 1, "one report per racy word per pair");
        assert_eq!(reports[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn missing_bitmap_is_an_error() {
        let g = Geometry::default();
        let a = make_interval(0, 1, vec![1, 0], &[0], &[]);
        let b = make_interval(1, 1, vec![0, 1], &[0], &[]);
        let d = EpochDetector::new();
        let mut plan = d.plan(&[a.clone(), b]);
        let err = d.compare(&mut plan, &BitmapStore::new(), g, 0).unwrap_err();
        assert!(matches!(err, DetectError::MissingBitmap { .. }));
        assert!(err.to_string().contains("missing access bitmap"));
    }

    #[test]
    fn bitmap_store_eviction() {
        let mut store = BitmapStore::new();
        let a = make_interval(0, 1, vec![1, 0], &[0], &[]);
        store.insert(a.id(), PageId(0), PageBitmaps::new(8));
        store.insert(a.id(), PageId(1), PageBitmaps::new(8));
        assert_eq!(store.len(), 2);
        store.evict_interval(a.id());
        assert!(store.is_empty());
    }

    #[test]
    fn quiet_pairs_do_not_reach_overlap() {
        let a = make_interval(0, 1, vec![1, 0], &[], &[]);
        let b = make_interval(1, 1, vec![0, 1], &[], &[]);
        let plan = EpochDetector::new().plan(&[a, b]);
        assert_eq!(plan.stats.pairs_concurrent, 1);
        assert_eq!(plan.stats.pairs_overlapping, 0);
        assert_eq!(plan.stats.intervals_used, 0);
    }

    #[test]
    fn balanced_ranges_partition_without_reordering() {
        for (weights, shards) in [
            (vec![1u64; 10], 3),
            (vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0], 4),
            (vec![0, 0, 5], 2),
            (vec![5], 8),
            (vec![0, 0, 0], 2),
            ((0..100).collect::<Vec<u64>>(), 7),
        ] {
            let ranges = balanced_ranges(&weights, shards);
            assert!(ranges.len() <= shards, "{weights:?} x{shards}");
            // Contiguous cover of 0..n with no gaps or overlaps.
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "{weights:?} x{shards}");
                assert!(r.end > r.start, "empty shard for {weights:?}");
                next = r.end;
            }
            assert_eq!(next, weights.len());
        }
        assert!(balanced_ranges(&[], 4).is_empty());
    }

    /// An explicit worker count is honoured whatever the host has (down to
    /// one item per shard); `0` takes the host's parallelism.
    #[test]
    fn worker_count_resolves_against_items_and_host() {
        let with = |workers| EpochDetector {
            workers,
            ..EpochDetector::new()
        };
        assert_eq!(with(1).effective_workers(1000), 1);
        assert_eq!(with(4).effective_workers(1000), 4);
        assert_eq!(with(64).effective_workers(28), 28);
        assert_eq!(with(4).effective_workers(0), 1);
        assert_eq!(with(0).effective_workers(1000), host_parallelism());
        assert_eq!(with(0).effective_workers(1), 1);
    }

    /// The calling thread is a worker: it runs the first shard itself, so
    /// one shard spawns nothing and `n` shards spawn `n - 1` threads;
    /// outputs come back in range order either way.
    #[test]
    fn first_shard_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let mut arena = EpochArena::new();
        let ran_on = |ranges: Vec<Range<usize>>, arena: &mut EpochArena| {
            run_sharded(ranges, arena, |r, _| (r.start, std::thread::current().id()))
        };
        assert!(ran_on(Vec::new(), &mut arena).is_empty());
        let whole = std::iter::once(0..7).collect();
        assert_eq!(ran_on(whole, &mut arena), [(0, me)]);
        let split = ran_on(vec![0..3, 3..5, 5..7], &mut arena);
        let starts: Vec<usize> = split.iter().map(|&(start, _)| start).collect();
        assert_eq!(starts, [0, 3, 5]);
        assert_eq!(split[0].1, me);
        assert!(split[1..].iter().all(|&(_, id)| id != me));
        assert_ne!(split[1].1, split[2].1);
    }

    /// A multi-epoch-sized synthetic input: plans, reports, and statistics
    /// must be bit-identical for every worker count and both enumerations.
    #[test]
    fn worker_count_never_changes_the_result() {
        let g = Geometry { page_words: 128 };
        // A mix of ordered and concurrent intervals across 4 procs with
        // clustered page accesses (deterministic LCG).
        let nprocs = 4usize;
        let mut seed = 0x9e37u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut intervals = Vec::new();
        let mut store = BitmapStore::new();
        for p in 0..nprocs {
            // Knowledge of each peer must be non-decreasing in program
            // order (the pruned enumeration's precondition, always true of
            // protocol-produced clocks).
            let mut prev = vec![0u32; nprocs];
            for idx in 1..=6u32 {
                let mut vc = vec![0u32; nprocs];
                for (q, slot) in vc.iter_mut().enumerate() {
                    *slot = if q == p {
                        idx
                    } else {
                        prev[q].max(rng() % (idx + 1))
                    };
                }
                prev.clone_from(&vc);
                let pages: Vec<u32> = (0..(rng() % 4)).map(|_| rng() % 6).collect();
                let reads: Vec<u32> = (0..(rng() % 4)).map(|_| rng() % 6).collect();
                let iv = make_interval(p as u16, idx, vc, &pages, &reads);
                for pg in pages.iter().chain(&reads) {
                    let mut bm = PageBitmaps::new(g.page_words);
                    for _ in 0..3 {
                        let w = (rng() as usize) % g.page_words;
                        if rng() % 2 == 0 {
                            bm.write.set(w);
                        } else {
                            bm.read.set(w);
                        }
                    }
                    store.insert(iv.id(), PageId(*pg), bm);
                }
                intervals.push(iv);
            }
        }
        for enumeration in [PairEnumeration::Naive, PairEnumeration::Pruned] {
            let serial = EpochDetector {
                enumeration,
                workers: 1,
                ..Default::default()
            };
            let mut ref_plan = serial.plan(&intervals);
            let ref_reports = serial.compare(&mut ref_plan, &store, g, 3).unwrap();
            for workers in [2, 3, 8, 64] {
                let par = EpochDetector {
                    enumeration,
                    workers,
                    ..Default::default()
                };
                let mut plan = par.plan(&intervals);
                assert_eq!(
                    plan.check.entries, ref_plan.check.entries,
                    "{enumeration:?} x{workers}: check list diverged"
                );
                assert_eq!(
                    plan.bitmap_requests().collect::<Vec<_>>(),
                    ref_plan.bitmap_requests().collect::<Vec<_>>()
                );
                let reports = par.compare(&mut plan, &store, g, 3).unwrap();
                assert_eq!(reports, ref_reports, "{enumeration:?} x{workers}");
                assert_eq!(plan.stats, ref_plan.stats, "{enumeration:?} x{workers}");
            }
        }
    }

    /// The parallel error path reproduces the serial one: same first
    /// error, same comparison counter at the point of failure.
    #[test]
    fn missing_bitmap_error_is_worker_invariant() {
        let g = Geometry::default();
        // Three concurrent overlapping pairs; only the first has bitmaps.
        let a = make_interval(0, 1, vec![1, 0, 0], &[0, 1], &[]);
        let b = make_interval(1, 1, vec![0, 1, 0], &[0, 1], &[]);
        let c = make_interval(2, 1, vec![0, 0, 1], &[1], &[]);
        let mut store = BitmapStore::new();
        store.insert(a.id(), PageId(0), PageBitmaps::new(g.page_words));
        store.insert(b.id(), PageId(0), PageBitmaps::new(g.page_words));
        let intervals = [a, b, c];
        let serial = EpochDetector {
            workers: 1,
            ..Default::default()
        };
        let mut ref_plan = serial.plan(&intervals);
        let ref_err = serial.compare(&mut ref_plan, &store, g, 0).unwrap_err();
        for workers in [2, 8] {
            let par = EpochDetector {
                workers,
                ..Default::default()
            };
            let mut plan = par.plan(&intervals);
            let err = par.compare(&mut plan, &store, g, 0).unwrap_err();
            assert_eq!(err, ref_err, "x{workers}");
            assert_eq!(
                plan.stats.bitmap_comparisons, ref_plan.stats.bitmap_comparisons,
                "x{workers}"
            );
            assert_eq!(plan.stats.races_found, 0);
        }
    }

    /// Builds a deterministic synthetic epoch: intervals with clustered
    /// page accesses plus matching bitmaps, varied by `seed`.
    fn synth_epoch(seed0: u64, g: Geometry) -> (Vec<Interval>, BitmapStore) {
        let nprocs = 4usize;
        let mut seed = seed0;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut intervals = Vec::new();
        let mut store = BitmapStore::new();
        for p in 0..nprocs {
            let mut prev = vec![0u32; nprocs];
            for idx in 1..=5u32 {
                let mut vc = vec![0u32; nprocs];
                for (q, slot) in vc.iter_mut().enumerate() {
                    *slot = if q == p {
                        idx
                    } else {
                        prev[q].max(rng() % (idx + 1))
                    };
                }
                prev.clone_from(&vc);
                let pages: Vec<u32> = (0..(rng() % 4)).map(|_| rng() % 6).collect();
                let reads: Vec<u32> = (0..(rng() % 4)).map(|_| rng() % 6).collect();
                let iv = make_interval(p as u16, idx, vc, &pages, &reads);
                for pg in pages.iter().chain(&reads) {
                    let mut bm = PageBitmaps::new(g.page_words);
                    for _ in 0..3 {
                        let w = (rng() as usize) % g.page_words;
                        if rng() % 2 == 0 {
                            bm.write.set(w);
                        } else {
                            bm.read.set(w);
                        }
                    }
                    store.insert(iv.id(), PageId(*pg), bm);
                }
                intervals.push(iv);
            }
        }
        (intervals, store)
    }

    /// Running two different epochs through one reused [`EpochArena`]
    /// yields exactly the plans and reports of two fresh arenas: leftover
    /// scratch contents never leak into the next epoch's results.
    #[test]
    fn arena_reuse_matches_fresh_arenas() {
        let g = Geometry { page_words: 128 };
        let det = EpochDetector {
            workers: 3,
            ..Default::default()
        };
        let mut arena = EpochArena::new();
        for seed in [0x9e37u64, 0xdead_beef, 0x1234_5678] {
            let (intervals, store) = synth_epoch(seed, g);
            let mut fresh_plan = det.plan_with(&intervals, &mut EpochArena::new());
            let fresh_reports = det
                .compare_with(&mut fresh_plan, &store, g, 7, &mut EpochArena::new())
                .unwrap();
            let mut plan = det.plan_with(&intervals, &mut arena);
            assert_eq!(
                plan.check.entries, fresh_plan.check.entries,
                "seed {seed:#x}"
            );
            let reports = det
                .compare_with(&mut plan, &store, g, 7, &mut arena)
                .unwrap();
            assert_eq!(reports, fresh_reports, "seed {seed:#x}");
            assert_eq!(plan.stats, fresh_plan.stats, "seed {seed:#x}");
        }
    }
}
