//! Property-based tests for the comparison algorithm.
//!
//! The detector must agree with a brute-force oracle that compares every
//! access of every interval pair directly, on randomly generated epochs.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cvm_page::{Geometry, PageBitmaps, PageId};
use cvm_race::{
    BitmapStore, CheckEntry, DetectorStats, EpochDetector, Interval, OverlapStrategy,
    PairEnumeration, RaceKind, RaceReport,
};
use cvm_vclock::{IntervalId, IntervalStamp, ProcId, VClock};
use proptest::prelude::*;

const NPROCS: usize = 3;
const NPAGES: u32 = 4;
const PAGE_WORDS: usize = 16;

/// A randomly generated interval: per-proc index plus raw word accesses.
#[derive(Debug, Clone)]
struct RawInterval {
    proc: usize,
    /// Entries of the vector clock for other processes (own entry is the
    /// interval index, assigned during normalization).
    knowledge: Vec<u32>,
    /// `(page, word, is_write)` accesses.
    accesses: Vec<(u32, usize, bool)>,
}

fn arb_raw(
    proc: usize,
    pages: impl Strategy<Value = u32>,
    max_index: u32,
) -> impl Strategy<Value = RawInterval> {
    (
        proptest::collection::vec(0..=max_index, NPROCS),
        proptest::collection::vec((pages, 0..PAGE_WORDS, any::<bool>()), 0..12),
    )
        .prop_map(move |(knowledge, accesses)| RawInterval {
            proc,
            knowledge,
            accesses,
        })
}

/// One epoch: `per_proc` intervals per process with monotone clocks.
fn arb_epoch_of<S: Strategy<Value = u32>>(
    per_proc: usize,
    pages: impl Fn() -> S,
) -> impl Strategy<Value = Vec<RawInterval>> {
    let procs: Vec<_> = (0..NPROCS)
        .map(|p| proptest::collection::vec(arb_raw(p, pages(), per_proc as u32), per_proc))
        .collect();
    procs.prop_map(|v| v.into_iter().flatten().collect())
}

/// One epoch: two intervals per process with monotone clocks.
fn arb_epoch() -> impl Strategy<Value = Vec<RawInterval>> {
    arb_epoch_of(2, || 0..NPAGES)
}

/// Page ids spread over five multiples of 64, so the page-bitmap overlap
/// strategy works on bitmaps several words long and distinct pages of one
/// epoch share a bit position within their words.
fn arb_sparse_page() -> impl Strategy<Value = u32> {
    (0..3u32, 0..5u32).prop_map(|(bit, multiple)| bit + 64 * multiple)
}

/// Normalizes raw intervals into well-formed `Interval`s + bitmaps.
///
/// Clocks are made self-consistent: per process, interval k gets index k+1
/// and its knowledge entries are clamped to be monotone in program order
/// and capped by how many intervals the source process has (so that stamps
/// describe a *possible* execution; exactness does not matter for the
/// oracle equivalence, which uses the same stamps).
fn normalize(raw: &[RawInterval]) -> (Vec<Interval>, BitmapStore) {
    let mut per_index: Vec<u32> = vec![0; NPROCS];
    let mut prev_knowledge: Vec<Vec<u32>> = vec![vec![0; NPROCS]; NPROCS];
    let mut intervals = Vec::new();
    let mut store = BitmapStore::new();
    for r in raw {
        let idx = per_index[r.proc] + 1;
        per_index[r.proc] = idx;
        let mut vc = vec![0u32; NPROCS];
        for q in 0..NPROCS {
            if q == r.proc {
                vc[q] = idx;
            } else {
                // Monotone in program order, and can't know an interval the
                // peer hasn't closed; a closed interval of q exists only up
                // to per_index[q] (conservative but consistent).
                let capped = r.knowledge[q].min(per_index[q]);
                vc[q] = capped.max(prev_knowledge[r.proc][q]);
            }
        }
        prev_knowledge[r.proc] = vc.clone();
        let id = IntervalId::new(ProcId::from_index(r.proc), idx);
        let stamp = IntervalStamp::new(id, VClock::from(vc));
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        let mut maps: HashMap<u32, PageBitmaps> = HashMap::new();
        for &(page, word, is_write) in &r.accesses {
            let bm = maps
                .entry(page)
                .or_insert_with(|| PageBitmaps::new(PAGE_WORDS));
            if is_write {
                bm.write.set(word);
                writes.push(PageId(page));
            } else {
                bm.read.set(word);
                reads.push(PageId(page));
            }
        }
        for (page, bm) in maps {
            store.insert(id, PageId(page), bm);
        }
        intervals.push(Interval::new(stamp, writes, reads));
    }
    (intervals, store)
}

/// Brute-force oracle: every pair of accesses, compared directly.
fn oracle_races(raw: &[RawInterval], intervals: &[Interval]) -> BTreeSet<(u32, usize)> {
    let by_id: HashMap<IntervalId, &Interval> = intervals.iter().map(|iv| (iv.id(), iv)).collect();
    let mut racy = BTreeSet::new();
    let idx_of = |r: &RawInterval, seen: &mut Vec<u32>| -> IntervalId {
        let idx = seen[r.proc] + 1;
        seen[r.proc] = idx;
        IntervalId::new(ProcId::from_index(r.proc), idx)
    };
    let mut seen = vec![0u32; NPROCS];
    let ids: Vec<IntervalId> = raw.iter().map(|r| idx_of(r, &mut seen)).collect();
    for (i, a) in raw.iter().enumerate() {
        for (j, b) in raw.iter().enumerate().skip(i + 1) {
            if a.proc == b.proc {
                continue;
            }
            let sa = &by_id[&ids[i]].stamp;
            let sb = &by_id[&ids[j]].stamp;
            if !sa.concurrent_with(sb) {
                continue;
            }
            for &(pa, wa, wra) in &a.accesses {
                for &(pb, wb, wrb) in &b.accesses {
                    if pa == pb && wa == wb && (wra || wrb) {
                        racy.insert((pa, wa));
                    }
                }
            }
        }
    }
    racy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The detector finds exactly the racy words the oracle finds.
    #[test]
    fn detector_matches_bruteforce_oracle(raw in arb_epoch()) {
        let (intervals, store) = normalize(&raw);
        let expected = oracle_races(&raw, &intervals);
        let g = Geometry { page_words: PAGE_WORDS };
        let d = EpochDetector::new();
        let mut plan = d.plan(&intervals);
        let reports = d.compare(&mut plan, &store, g, 0).expect("bitmaps present");
        let got: BTreeSet<(u32, usize)> = reports
            .iter()
            .map(|r| {
                let (page, word) = g.locate(r.addr);
                (page.0, word)
            })
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// All four overlap strategies produce identical check lists.
    #[test]
    fn overlap_strategies_agree(raw in arb_epoch()) {
        let (intervals, _) = normalize(&raw);
        let reference = EpochDetector { overlap: OverlapStrategy::Quadratic, ..Default::default() };
        for s in [
            OverlapStrategy::Auto,
            OverlapStrategy::SortedMerge,
            OverlapStrategy::PageBitmap,
        ] {
            let d = EpochDetector { overlap: s, ..Default::default() };
            for a in &intervals {
                for b in &intervals {
                    if a.proc() == b.proc() {
                        continue;
                    }
                    prop_assert_eq!(
                        d.overlap_pages(a, b),
                        reference.overlap_pages(a, b),
                        "strategy {:?} disagrees on {:?} vs {:?}",
                        s, a.id(), b.id()
                    );
                }
            }
        }
    }

    /// Two random epochs pushed through one reused [`EpochArena`] produce
    /// exactly the plans and reports of two fresh arenas: scratch left
    /// behind by the first epoch never bleeds into the second.
    #[test]
    fn arena_reuse_is_invisible(raw1 in arb_epoch(), raw2 in arb_epoch()) {
        use cvm_race::EpochArena;
        let g = Geometry { page_words: PAGE_WORDS };
        let d = EpochDetector { workers: 2, ..EpochDetector::new() };
        let mut arena = EpochArena::new();
        for (epoch, raw) in [(0u64, &raw1), (1, &raw2)] {
            let (intervals, store) = normalize(raw);
            let mut fresh_plan = d.plan_with(&intervals, &mut EpochArena::new());
            let fresh = d
                .compare_with(&mut fresh_plan, &store, g, epoch, &mut EpochArena::new())
                .unwrap();
            let mut plan = d.plan_with(&intervals, &mut arena);
            prop_assert_eq!(&plan.check.entries, &fresh_plan.check.entries);
            let reports = d.compare_with(&mut plan, &store, g, epoch, &mut arena).unwrap();
            prop_assert_eq!(reports, fresh);
            prop_assert_eq!(plan.stats, fresh_plan.stats);
        }
    }

    /// Write-write reports always name a word both intervals wrote;
    /// read-write reports name a word with at least one write.
    #[test]
    fn report_kinds_are_consistent_with_bitmaps(raw in arb_epoch()) {
        let (intervals, store) = normalize(&raw);
        let g = Geometry { page_words: PAGE_WORDS };
        let d = EpochDetector::new();
        let mut plan = d.plan(&intervals);
        let reports = d.compare(&mut plan, &store, g, 0).unwrap();
        for r in &reports {
            let (page, word) = g.locate(r.addr);
            let ba = store.get(r.a, page).unwrap();
            let bb = store.get(r.b, page).unwrap();
            match r.kind {
                RaceKind::WriteWrite => {
                    prop_assert!(ba.write.get(word) && bb.write.get(word));
                }
                RaceKind::ReadWrite => {
                    prop_assert!(
                        (ba.read.get(word) && bb.write.get(word))
                            || (ba.write.get(word) && bb.read.get(word))
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pruned enumeration finds exactly the same concurrent pairs and
    /// check entries as the paper's all-pairs scan, with (at most) as many
    /// version-vector comparisons.
    #[test]
    fn pruned_enumeration_matches_naive(raw in arb_epoch()) {
        use cvm_race::PairEnumeration;
        let (intervals, _) = normalize(&raw);
        let naive = EpochDetector {
            enumeration: PairEnumeration::Naive,
            ..EpochDetector::new()
        }
        .plan(&intervals);
        let pruned = EpochDetector {
            enumeration: PairEnumeration::Pruned,
            ..EpochDetector::new()
        }
        .plan(&intervals);
        // Same pairs and requests (order may differ: compare as sets).
        let key = |e: &cvm_race::CheckEntry| {
            let (lo, hi) = if e.a < e.b { (e.a, e.b) } else { (e.b, e.a) };
            (lo, hi, e.pages.clone())
        };
        let mut naive_entries: Vec<_> = naive.check.entries.iter().map(key).collect();
        let mut pruned_entries: Vec<_> = pruned.check.entries.iter().map(key).collect();
        naive_entries.sort();
        pruned_entries.sort();
        prop_assert_eq!(naive_entries, pruned_entries);
        prop_assert_eq!(
            naive.bitmap_requests().collect::<Vec<_>>(),
            pruned.bitmap_requests().collect::<Vec<_>>()
        );
        prop_assert_eq!(naive.stats.pairs_concurrent, pruned.stats.pairs_concurrent);
        prop_assert_eq!(naive.stats.pairs_overlapping, pruned.stats.pairs_overlapping);
        prop_assert_eq!(naive.stats.intervals_used, pruned.stats.intervals_used);
    }
}

/// On a barrier-heavy epoch (mostly ordered intervals), pruning does far
/// fewer version-vector comparisons than the quadratic scan.
#[test]
fn pruned_enumeration_reduces_comparisons_on_ordered_epochs() {
    use cvm_race::{make_interval, PairEnumeration};
    // A lock-chain epoch: every interval of P1 is ordered after all of
    // P0's (P1 kept acquiring from P0), so no pair is concurrent.
    let mut intervals = Vec::new();
    let n = 64u32;
    for i in 1..=n {
        intervals.push(make_interval(0, i, vec![i, 0], &[i], &[]));
    }
    for j in 1..=n {
        // P1's interval j has seen all of P0.
        intervals.push(make_interval(1, j, vec![n, j], &[j + 1000], &[]));
    }
    let naive = EpochDetector {
        enumeration: PairEnumeration::Naive,
        ..EpochDetector::new()
    }
    .plan(&intervals);
    let pruned = EpochDetector {
        enumeration: PairEnumeration::Pruned,
        ..EpochDetector::new()
    }
    .plan(&intervals);
    assert_eq!(naive.stats.pairs_concurrent, 0);
    assert_eq!(pruned.stats.pairs_concurrent, 0);
    assert_eq!(naive.stats.pair_comparisons, u64::from(n) * u64::from(n));
    assert!(
        pruned.stats.pair_comparisons < u64::from(n) * 16,
        "pruned did {} comparisons",
        pruned.stats.pair_comparisons
    );
}

/// What planning and comparing one epoch must produce, derived pair by
/// pair from the vector clocks, notice lists and bitmaps alone — no
/// overlap strategy, no sharding.
struct Reference {
    entries: Vec<CheckEntry>,
    requests: Vec<(IntervalId, PageId)>,
    reports: Vec<RaceReport>,
    stats: DetectorStats,
}

/// Probes a binary search for a partition point makes over `len` items
/// when the point is `answer` (each counts as one vector comparison).
fn partition_probes(len: usize, answer: usize) -> u64 {
    let (mut lo, mut hi, mut probes) = (0, len, 0);
    while lo < hi {
        let mid = (lo + hi) / 2;
        probes += 1;
        if mid < answer {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    probes
}

fn reference(
    intervals: &[Interval],
    store: &BitmapStore,
    g: Geometry,
    enumeration: PairEnumeration,
    epoch: u64,
) -> Reference {
    let mut stats = DetectorStats {
        intervals_total: intervals.len() as u64,
        bitmaps_total: intervals
            .iter()
            .map(|iv| (iv.write_notices.len() + iv.read_notices.len()) as u64)
            .sum(),
        ..DetectorStats::default()
    };
    // Concurrent pairs, in the order the enumeration visits them.
    let mut concurrent: Vec<(&Interval, &Interval)> = Vec::new();
    match enumeration {
        PairEnumeration::Naive => {
            for (i, a) in intervals.iter().enumerate() {
                for b in &intervals[i + 1..] {
                    if a.proc() == b.proc() {
                        continue;
                    }
                    stats.pair_comparisons += 1;
                    if a.stamp.concurrent_with(&b.stamp) {
                        concurrent.push((a, b));
                    }
                }
            }
        }
        PairEnumeration::Pruned => {
            let mut by_proc: BTreeMap<ProcId, Vec<&Interval>> = BTreeMap::new();
            for iv in intervals {
                by_proc.entry(iv.proc()).or_default().push(iv);
            }
            for list in by_proc.values_mut() {
                list.sort_by_key(|iv| iv.id().index);
            }
            for (p, pa) in &by_proc {
                for (q, qb) in by_proc.range(*p..).skip(1) {
                    for a in pa {
                        // The two searches bracket the concurrent run:
                        // it starts past everything `a` has seen and holds
                        // every interval concurrent with `a`.
                        let seen = qb.iter().filter(|b| b.id().index <= a.stamp.vc.get(*q));
                        let lo = seen.count();
                        let run: Vec<_> = qb
                            .iter()
                            .filter(|b| a.stamp.concurrent_with(&b.stamp))
                            .collect();
                        stats.pair_comparisons += partition_probes(qb.len(), lo)
                            + partition_probes(qb.len() - lo, run.len());
                        concurrent.extend(run.into_iter().map(|b| (*a, *b)));
                    }
                }
            }
        }
    }

    let mut entries = Vec::new();
    let mut requests = BTreeSet::new();
    let mut used = BTreeSet::new();
    let mut reports = Vec::new();
    for (a, b) in concurrent {
        stats.pairs_concurrent += 1;
        let set = |pages: &[PageId]| pages.iter().copied().collect::<BTreeSet<PageId>>();
        let (aw, bw) = (set(&a.write_notices), set(&b.write_notices));
        let a_any = &aw | &set(&a.read_notices);
        let b_any = &bw | &set(&b.read_notices);
        let pages: Vec<PageId> = (&(&aw & &b_any) | &(&a_any & &bw)).into_iter().collect();
        if pages.is_empty() {
            continue;
        }
        stats.pairs_overlapping += 1;
        used.extend([a.id(), b.id()]);
        for &page in &pages {
            requests.extend([(a.id(), page), (b.id(), page)]);
            stats.bitmap_comparisons += 1;
            let ba = store.get(a.id(), page).expect("a's bitmaps");
            let bb = store.get(b.id(), page).expect("b's bitmaps");
            let mut report = |word: usize, kind: RaceKind| {
                reports.push(RaceReport {
                    addr: g.addr_of(page, word),
                    kind,
                    a: a.id(),
                    b: b.id(),
                    epoch,
                });
            };
            // Write-write first, then each read-write direction, every
            // racy word once.
            let ww = |w: usize| ba.write.get(w) && bb.write.get(w);
            for w in (0..g.page_words).filter(|&w| ww(w)) {
                report(w, RaceKind::WriteWrite);
            }
            for w in 0..g.page_words {
                if ba.write.get(w) && bb.read.get(w) && !ww(w) {
                    report(w, RaceKind::ReadWrite);
                }
            }
            for w in 0..g.page_words {
                if ba.read.get(w) && bb.write.get(w) && !ba.write.get(w) {
                    report(w, RaceKind::ReadWrite);
                }
            }
        }
        entries.push(CheckEntry {
            a: a.id(),
            b: b.id(),
            pages,
        });
    }
    stats.intervals_used = used.len() as u64;
    stats.bitmaps_requested = requests.len() as u64;
    stats.races_found = reports.len() as u64;
    Reference {
        entries,
        requests: requests.into_iter().collect(),
        reports,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every enumeration, overlap strategy and worker count yields the
    /// check list, request set, reports and statistics — each field — of
    /// the pairwise reference, on epochs of sparse page ids.
    #[test]
    fn plan_and_compare_match_pairwise_reference(raw in arb_epoch_of(3, arb_sparse_page)) {
        let (intervals, store) = normalize(&raw);
        let g = Geometry { page_words: PAGE_WORDS };
        for enumeration in [PairEnumeration::Naive, PairEnumeration::Pruned] {
            let want = reference(&intervals, &store, g, enumeration, 4);
            for overlap in [
                OverlapStrategy::Auto,
                OverlapStrategy::Quadratic,
                OverlapStrategy::SortedMerge,
                OverlapStrategy::PageBitmap,
            ] {
                for workers in [1, 2, 4, 0] {
                    let d = EpochDetector { overlap, enumeration, workers };
                    let mut plan = d.plan(&intervals);
                    prop_assert_eq!(&plan.check.entries, &want.entries, "{:?}", d);
                    let requests: Vec<_> = plan.bitmap_requests().collect();
                    prop_assert_eq!(&requests, &want.requests, "{:?}", d);
                    let reports = d.compare(&mut plan, &store, g, 4).expect("bitmaps present");
                    prop_assert_eq!(&reports, &want.reports, "{:?}", d);
                    prop_assert_eq!(plan.stats, want.stats, "{:?}", d);
                }
            }
        }
    }
}
