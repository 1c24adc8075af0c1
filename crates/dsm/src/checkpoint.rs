//! Barrier-epoch checkpointing: recovery images and the consistent cut.
//!
//! LRC gives checkpointing the same gift it gives race detection: at a
//! barrier release every interval is closed, every lock is free, and the
//! master has just pushed a merged vector clock to every process — the
//! cluster is at a natural consistency point.  Each node therefore
//! serializes its *recovery image* — page frames (twins discarded),
//! version-vector state, interval log, lock tokens, detection metadata and
//! the application's epoch cursor — right after applying the release, and
//! parks the image in a shared [`CheckpointStore`] keyed by `(epoch, proc)`.
//!
//! Two wrinkles keep the image set a *consistent cut*:
//!
//! 1. **Withheld release.** Under [`RecoveryPolicy::Recover`](crate::RecoveryPolicy)
//!    the application thread is *not* released when the node applies the
//!    barrier release.  The node first snapshots, then sends
//!    [`Msg::CkptAck`] to the master; only when the master has collected an
//!    ack from every process does it broadcast [`Msg::CkptGo`], which
//!    finally signals the blocked `barrier()` calls.  Without this round, a
//!    fast node's next-epoch page or lock request could reach a slow node
//!    *before* that node snapshots, smuggling post-cut state into its image.
//! 2. **Diff watermarks.** The one fire-and-forget message in flight at a
//!    release is the multi-writer `DiffFlush`.  A home node defers its
//!    snapshot until every write notice it has seen for its own pages is
//!    covered by an applied diff (`mw_seen` ⊆ `mw_home.applied`), completing
//!    the deferred checkpoint from the diff-flush handler.
//!
//! Recovery itself is orchestrated by `Cluster::run`: on a node failure it
//! rolls every process back to the newest epoch for which *all* images
//! exist, rebuilds each `NodeCore` from its image, and re-enters the
//! barrier loop.  Applications opt in through the epoch-entry API
//! ([`ProcHandle::epochs`](crate::ProcHandle::epochs)), which skips
//! already-checkpointed phases on a restored node.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cvm_instrument::AnalysisRuntime;
use cvm_net::wire::{Wire, WireError};
use cvm_page::{Frame, PageBitmaps, PageId, Protection};
use cvm_race::trace::TraceEvent;
use cvm_race::{BitmapStore, DetectorStats, Interval, RaceLog, RaceReport};
use cvm_vclock::{IntervalId, ProcId, VClock};

use crate::config::Protocol;
use crate::error::DsmError;
use crate::msg::Msg;
use crate::node::{LockLocal, LockMgr, MwHome, NodeCore, NodeStats, OpenInterval};
use crate::pages::Node;
use crate::replay::SyncSchedule;
use crate::report::WatchHit;
use crate::simtime::{OverheadCat, VirtualClock, NCATS};

/// One node's complete recovery image at a barrier epoch.
///
/// The image captures exactly the state a fresh `NodeCore` needs to rejoin
/// the cluster at the epoch boundary.  Transient coordination state —
/// blocked waiter channels, in-flight page requests, replay holds, page
/// twins — is provably empty at the cut and is not serialized.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeImage {
    pub(crate) proc: ProcId,
    /// Barrier epochs completed — the resume cursor for the epoch-entry API.
    pub(crate) epoch: u64,
    pub(crate) clock_now: u64,
    pub(crate) clock_cats: Vec<u64>,
    /// Resident frames as `(page, (protection, words))`, sorted by page.
    pub(crate) frames: Vec<(PageId, (u8, Vec<u64>))>,
    pub(crate) vc: VClock,
    pub(crate) cur_index: u32,
    pub(crate) cur_stamp_vc: VClock,
    pub(crate) cur_dirty: Vec<PageId>,
    pub(crate) cur_read: Vec<PageId>,
    pub(crate) cur_bitmaps: Vec<(PageId, PageBitmaps)>,
    pub(crate) log: Vec<Interval>,
    pub(crate) unsent_own: Vec<IntervalId>,
    pub(crate) bitmap_store: Vec<((IntervalId, PageId), PageBitmaps)>,
    /// `(shared_calls, private_calls)` of the analysis runtime.
    pub(crate) analysis: (u64, u64),
    pub(crate) home_owner: Vec<(PageId, ProcId)>,
    /// Multi-writer home watermarks: applied interval index per writer.
    pub(crate) mw_applied: Vec<(PageId, Vec<(ProcId, u32)>)>,
    pub(crate) mw_seen: Vec<(PageId, Vec<(ProcId, u32)>)>,
    /// `(lock, ((have_token, held), release_vc))` for non-default locals.
    pub(crate) locks: Vec<(u32, LockImage)>,
    pub(crate) lock_mgr: Vec<(u32, ProcId)>,
    pub(crate) races: Vec<RaceReport>,
    pub(crate) det_stats: DetectorStats,
    pub(crate) sched_rec: Vec<(u32, Vec<ProcId>)>,
    pub(crate) replay_pos: Vec<(u32, u32)>,
    pub(crate) stats: NodeStats,
    pub(crate) watch_hits: Vec<((ProcId, u32), (bool, u32))>,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) trace_last_release: Vec<(u32, u32)>,
    /// The barrier-master seat at the time of the cut.  Recovery reads
    /// this to find where the detector's accumulated statistics live when
    /// a failover has moved the seat since the cut was taken.
    pub(crate) master: ProcId,
    /// The master-seat term the node had adopted at the cut.  A restored
    /// node resumes at this (possibly stale) term; only an accepted
    /// `MasterHandoff` moves it forward, so an old master restored across
    /// a re-seating speaks with a stale term and is fenced.
    pub(crate) seat_term: u64,
}

/// A lock's local state in an image: `((have_token, held), release_vc)`.
pub(crate) type LockImage = ((bool, bool), Option<VClock>);

fn prot_to_u8(p: Protection) -> u8 {
    match p {
        Protection::Invalid => 0,
        Protection::Read => 1,
        Protection::Write => 2,
    }
}

fn prot_from_u8(v: u8) -> Result<Protection, WireError> {
    match v {
        0 => Ok(Protection::Invalid),
        1 => Ok(Protection::Read),
        2 => Ok(Protection::Write),
        _ => Err(WireError::BadTag {
            what: "Protection",
            tag: v,
        }),
    }
}

cvm_net::wire! {
    struct NodeImage {
        proc, epoch, clock_now, clock_cats, frames, vc, cur_index, cur_stamp_vc,
        cur_dirty, cur_read, cur_bitmaps, log, unsent_own, bitmap_store, analysis,
        home_owner, mw_applied, mw_seen, locks, lock_mgr, races, det_stats, sched_rec,
        replay_pos, stats, watch_hits, trace, trace_last_release, master, seat_term,
    }
    check(img) {
        if img.clock_cats.len() != NCATS {
            return Err(WireError::BadLength(img.clock_cats.len() as u64));
        }
        for (_, (prot, _)) in &img.frames {
            prot_from_u8(*prot)?;
        }
    }
}

impl NodeImage {
    /// Barrier epochs completed when the image was taken (also the epoch
    /// cursor the application resumes from).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The process this image belongs to.
    pub fn proc(&self) -> ProcId {
        self.proc
    }
}

/// Serializes a node's state at a barrier cut.
pub(crate) fn snapshot(st: &NodeCore) -> NodeImage {
    // Transient coordination state must be quiescent at the cut; anything
    // live here would be silently dropped by a restore.
    debug_assert!(st.page_wait.is_empty(), "page fault in flight at cut");
    debug_assert!(st.pending_local_write.is_empty());
    debug_assert!(st.page_queue.is_empty(), "queued page request at cut");
    debug_assert!(
        st.replay_pending.values().all(|q| q.is_empty()),
        "replay hold at cut"
    );
    let cur_dirty = st.cur.dirty_pages();
    debug_assert!(cur_dirty.is_empty(), "open interval dirty at cut");

    // `pages()` is ascending, the order the image fixes.
    let frames: Vec<(PageId, (u8, Vec<u64>))> = st
        .pages
        .pages()
        .map(|p| {
            let f = st.pages.frame(p).expect("resident page has a frame");
            (p, (prot_to_u8(f.prot), f.data.to_vec()))
        })
        .collect();

    let mut bitmap_store: Vec<((IntervalId, PageId), PageBitmaps)> =
        st.bitmaps.iter().map(|(k, v)| (*k, v.clone())).collect();
    bitmap_store.sort_unstable_by_key(|(k, _)| *k);

    let mut home_owner: Vec<(PageId, ProcId)> =
        st.home_owner.iter().map(|(p, o)| (*p, *o)).collect();
    home_owner.sort_unstable_by_key(|(p, _)| *p);

    let mut mw_applied: Vec<(PageId, Vec<(ProcId, u32)>)> = st
        .mw_home
        .iter()
        .map(|(p, h)| {
            debug_assert!(h.waiting.is_empty(), "gated fetch at cut");
            debug_assert!(h.local_waiter.is_none(), "gated local fault at cut");
            let mut applied: Vec<(ProcId, u32)> = h.applied.iter().map(|(w, i)| (*w, *i)).collect();
            applied.sort_unstable();
            (*p, applied)
        })
        .collect();
    mw_applied.sort_unstable_by_key(|(p, _)| *p);

    let mut mw_seen: Vec<(PageId, Vec<(ProcId, u32)>)> = st
        .mw_seen
        .iter()
        .map(|(p, v)| {
            let mut v = v.clone();
            v.sort_unstable();
            (*p, v)
        })
        .collect();
    mw_seen.sort_unstable_by_key(|(p, _)| *p);

    let mut locks: Vec<(u32, LockImage)> = st
        .locks
        .iter()
        .filter(|(_, l)| l.have_token || l.held || l.release_vc.is_some())
        .map(|(lock, l)| {
            debug_assert!(l.waiter.is_none(), "blocked lock() at cut");
            debug_assert!(l.successor.is_none(), "queued lock successor at cut");
            (*lock, ((l.have_token, l.held), l.release_vc.clone()))
        })
        .collect();
    locks.sort_unstable_by_key(|(l, _)| *l);

    let mut lock_mgr: Vec<(u32, ProcId)> = st.lock_mgr.iter().map(|(l, m)| (*l, m.last)).collect();
    lock_mgr.sort_unstable_by_key(|(l, _)| *l);

    let mut trace_last_release: Vec<(u32, u32)> = st
        .trace_last_release
        .iter()
        .map(|(l, i)| (*l, *i))
        .collect();
    trace_last_release.sort_unstable_by_key(|(l, _)| *l);

    let mut watch_hits: Vec<((ProcId, u32), (bool, u32))> = st
        .watch_hits
        .iter()
        .map(|h| ((h.proc, h.site), (h.write, h.interval)))
        .collect();
    watch_hits.sort_unstable();

    NodeImage {
        proc: st.proc,
        epoch: st.epoch,
        clock_now: st.clock.now(),
        clock_cats: st.clock.cats().to_vec(),
        frames,
        vc: st.vc.clone(),
        cur_index: st.cur.index,
        cur_stamp_vc: st.cur.stamp_vc.clone(),
        cur_dirty,
        cur_read: st.cur.read_pages(),
        cur_bitmaps: st.cur.sorted_bitmaps(),
        log: st.log.values().map(|r| (**r).clone()).collect(),
        unsent_own: st.unsent_own.clone(),
        bitmap_store,
        analysis: (st.analysis.shared_calls(), st.analysis.private_calls()),
        home_owner,
        mw_applied,
        mw_seen,
        locks,
        lock_mgr,
        races: st.race_log.reports().to_vec(),
        det_stats: st.det_stats,
        sched_rec: st.sched_rec.entries(),
        replay_pos: st
            .replay
            .as_ref()
            .map(|r| r.positions())
            .unwrap_or_default(),
        stats: st.stats,
        watch_hits,
        trace: st.trace.clone(),
        trace_last_release,
        master: st.master,
        seat_term: st.seat_term,
    }
}

/// Rebuilds a fresh `NodeCore` from a recovery image, charging the
/// per-word restore cost.  The caller has already wired `barrier`,
/// `replay`, and `ckpt` into the core.
pub(crate) fn restore(st: &mut NodeCore, img: &NodeImage) {
    debug_assert_eq!(st.proc, img.proc, "image restored onto the wrong node");
    let mut cats = [0u64; NCATS];
    cats.copy_from_slice(&img.clock_cats);
    st.clock = VirtualClock::from_parts(img.clock_now, cats);
    let mut words = 0u64;
    for (page, (prot, data)) in &img.frames {
        words += data.len() as u64;
        let prot = prot_from_u8(*prot).expect("validated at decode");
        st.pages
            .install(*page, Frame::from_data(data.clone(), prot));
    }
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, words * c.restore_per_word);
    st.vc = img.vc.clone();
    st.cur = OpenInterval::new(img.cur_index, img.cur_stamp_vc.clone());
    for &page in &img.cur_dirty {
        st.cur.note_dirty(page);
    }
    for &page in &img.cur_read {
        st.cur.note_read(page);
    }
    for (page, bm) in &img.cur_bitmaps {
        *st.cur.bitmap_mut(*page, bm.read.len()) = bm.clone();
    }
    st.log = img
        .log
        .iter()
        .map(|r| (r.id(), Arc::new(r.clone())))
        .collect();
    st.unsent_own = img.unsent_own.clone();
    st.bitmaps = BitmapStore::new();
    for ((id, page), bm) in &img.bitmap_store {
        st.bitmaps.insert(*id, *page, bm.clone());
    }
    st.analysis = AnalysisRuntime::from_counts(img.analysis.0, img.analysis.1);
    st.home_owner = img.home_owner.iter().copied().collect();
    st.mw_home = img
        .mw_applied
        .iter()
        .map(|(page, applied)| {
            (
                *page,
                MwHome {
                    applied: applied.iter().copied().collect(),
                    waiting: Vec::new(),
                    local_waiter: None,
                },
            )
        })
        .collect();
    st.mw_seen = img.mw_seen.iter().cloned().collect();
    st.locks = img
        .locks
        .iter()
        .map(|(lock, ((have_token, held), release_vc))| {
            (
                *lock,
                LockLocal {
                    have_token: *have_token,
                    held: *held,
                    successor: None,
                    waiter: None,
                    release_vc: release_vc.clone(),
                },
            )
        })
        .collect();
    st.lock_mgr = img
        .lock_mgr
        .iter()
        .map(|(lock, last)| (*lock, LockMgr { last: *last }))
        .collect();
    st.epoch = img.epoch;
    st.resume_epoch = img.epoch;
    st.race_log = RaceLog::new();
    st.race_log.extend(img.races.iter().cloned());
    st.det_stats = img.det_stats;
    st.sched_rec = SyncSchedule::from_entries(img.sched_rec.clone());
    if let Some(cursor) = st.replay.as_mut() {
        cursor.restore_positions(&img.replay_pos);
    }
    st.stats = img.stats;
    st.watch_hits = img
        .watch_hits
        .iter()
        .map(|((proc, site), (write, interval))| WatchHit {
            proc: *proc,
            site: *site,
            write: *write,
            interval: *interval,
        })
        .collect();
    st.trace = img.trace.clone();
    st.trace_last_release = img.trace_last_release.iter().copied().collect();
    // The seat recorded at the cut.  On a failover attempt the cluster
    // overrides this with the successor after every restore, but reads it
    // first to locate the cut-time master's detector statistics.
    st.master = img.master;
    st.seat_term = img.seat_term;
    // The restored node has no current barrier floor: a stale floor from a
    // pre-kill epoch could let soft GC drop restored records that replay
    // still needs.  Reset it; the next release re-establishes it.
    st.barrier_floor = VClock::new(st.cfg.nprocs);
}

/// In-memory store of recovery images, shared by every node of a run.
///
/// Keyed by `(epoch, proc)`.  `Cluster::run` keeps it across recovery
/// attempts so a replacement node can be rebuilt from the newest epoch for
/// which *every* process deposited an image.
///
/// With a retention bound ([`with_retention`](Self::with_retention)) the
/// store keeps only the newest K *complete* epochs: depositing an image
/// evicts every epoch — complete or partial — older than the K-th newest
/// complete cut.  Partial cuts newer than that floor are in flight and
/// always survive.  Lifetime counters (`checkpoints_taken`,
/// `bytes_snapshotted`) are unaffected by eviction.
#[derive(Debug)]
pub struct CheckpointStore {
    inner: Mutex<HashMap<(u64, u16), Vec<u8>>>,
    checkpoints_taken: AtomicU64,
    bytes_snapshotted: AtomicU64,
    cuts_evicted: AtomicU64,
    /// Complete epochs to retain; `usize::MAX` means unlimited.
    retain: usize,
    /// Cluster size, needed to recognize a complete cut (unused when
    /// retention is unlimited).
    nprocs: usize,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::with_retention(usize::MAX, 0)
    }
}

impl CheckpointStore {
    /// An empty store with unlimited retention.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// An empty store retaining the newest `retain` complete epochs for a
    /// cluster of `nprocs` processes.
    pub fn with_retention(retain: usize, nprocs: usize) -> Self {
        CheckpointStore {
            inner: Mutex::new(HashMap::new()),
            checkpoints_taken: AtomicU64::new(0),
            bytes_snapshotted: AtomicU64::new(0),
            cuts_evicted: AtomicU64::new(0),
            retain,
            nprocs,
        }
    }

    /// Deposits one node's encoded image for `epoch`.
    pub fn put(&self, epoch: u64, proc: u16, bytes: Vec<u8>) {
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        self.bytes_snapshotted
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        inner.insert((epoch, proc), bytes);
        self.enforce_retention(&mut inner, self.retain);
    }

    /// Evicts every epoch older than the `keep`-th newest complete cut.
    /// Recovery is unaffected: it steers to the newest complete cut, which
    /// is always retained.
    fn enforce_retention(&self, inner: &mut HashMap<(u64, u16), Vec<u8>>, keep: usize) {
        if keep == usize::MAX || self.nprocs == 0 {
            return;
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (epoch, _) in inner.keys() {
            *counts.entry(*epoch).or_insert(0) += 1;
        }
        let mut complete: Vec<u64> = counts
            .into_iter()
            .filter(|(_, n)| *n == self.nprocs)
            .map(|(e, _)| e)
            .collect();
        complete.sort_unstable_by(|a, b| b.cmp(a));
        if complete.len() <= keep {
            return;
        }
        let floor = complete[keep - 1];
        let mut evicted: Vec<u64> = inner
            .keys()
            .map(|(e, _)| *e)
            .filter(|e| *e < floor)
            .collect();
        evicted.sort_unstable();
        evicted.dedup();
        inner.retain(|(e, _), _| *e >= floor);
        self.cuts_evicted
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Soft-budget pressure: shrink to the single newest complete cut (and
    /// anything newer still in flight), regardless of the configured
    /// retention.  No-op on an unbounded store.
    pub fn evict_under_pressure(&self) {
        if self.nprocs == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        self.enforce_retention(&mut inner, 1);
    }

    /// Decodes the stored image of `proc` at `epoch`, if present.
    ///
    /// The store normally holds only bytes it encoded itself, but decode
    /// remains a trust boundary (a persisted or transported store could
    /// hand back damaged bytes): an image that no longer decodes is
    /// treated as absent, which steers recovery toward an older complete
    /// cut instead of panicking mid-restore.
    pub fn image(&self, epoch: u64, proc: u16) -> Option<NodeImage> {
        let bytes = self.inner.lock().unwrap().get(&(epoch, proc)).cloned()?;
        NodeImage::from_bytes(&bytes).ok()
    }

    /// Newest epoch for which all `nprocs` processes hold an image — the
    /// rollback target of a recovery.
    pub fn last_complete_epoch(&self, nprocs: usize) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (epoch, _) in inner.keys() {
            *counts.entry(*epoch).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|(_, n)| *n == nprocs)
            .map(|(e, _)| e)
            .max()
    }

    /// Highest epoch any process deposited an image for (possibly an
    /// incomplete cut).
    pub fn max_epoch(&self) -> Option<u64> {
        self.inner
            .lock()
            .unwrap()
            .keys()
            .map(|(epoch, _)| *epoch)
            .max()
    }

    /// Drops every image above `epoch`: a failed attempt may have deposited
    /// a partial (inconsistent) cut that must not mix with the next
    /// attempt's images.
    pub fn prune_above(&self, epoch: u64) {
        self.inner.lock().unwrap().retain(|(e, _), _| *e <= epoch);
    }

    /// Images deposited over the store's lifetime (across attempts).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken.load(Ordering::Relaxed)
    }

    /// Total encoded bytes deposited over the store's lifetime.
    pub fn bytes_snapshotted(&self) -> u64 {
        self.bytes_snapshotted.load(Ordering::Relaxed)
    }

    /// Epochs evicted by the retention bound over the store's lifetime.
    pub fn cuts_evicted(&self) -> u64 {
        self.cuts_evicted.load(Ordering::Relaxed)
    }

    /// Encoded bytes currently resident (after eviction).
    pub fn checkpoint_bytes_live(&self) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .values()
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Encoded bytes currently resident for one process's images.
    pub fn bytes_live_for(&self, proc: ProcId) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter(|((_, p), _)| *p == proc.0)
            .map(|(_, b)| b.len() as u64)
            .sum()
    }
}

/// Serializes this node's image into the store, charging the per-word
/// checkpoint cost.  No-op when checkpointing is off.
pub(crate) fn take_checkpoint(st: &mut NodeCore) {
    let Some(store) = st.ckpt.clone() else {
        return;
    };
    // The dominant serialization work is copying resident page data.
    let words: u64 = st
        .pages
        .pages()
        .map(|p| st.pages.frame(p).map_or(0, |f| f.data.len() as u64))
        .sum();
    let c = st.cfg.costs;
    st.clock
        .add(OverheadCat::Base, words * c.checkpoint_per_word);
    let img = snapshot(st);
    store.put(img.epoch, st.proc.0, img.to_bytes());
}

/// True when every multi-writer write notice for pages homed here is
/// covered by an applied diff — the only in-flight traffic at a release.
fn mw_settled(st: &NodeCore) -> bool {
    if st.cfg.protocol != Protocol::MultiWriter {
        return true;
    }
    for (page, seen) in &st.mw_seen {
        if st.home_of(*page) != st.proc {
            continue;
        }
        for (writer, idx) in seen {
            let applied = st
                .mw_home
                .get(page)
                .and_then(|h| h.applied.get(writer))
                .copied()
                .unwrap_or(0);
            if applied < *idx {
                return false;
            }
        }
    }
    true
}

/// Acknowledges a pending barrier checkpoint once the node is quiescent.
/// Called at release application and again from the diff-flush handler
/// (the deferred case).  The snapshot itself is taken at commit time
/// ([`on_ckpt_go`]): the ack/commit round carries each node's virtual
/// clock through the master and back, so an image taken at the commit
/// embeds the epoch's full clock synchronization — a restored node can
/// never resume with a clock behind where the fault-free run stood.
///
/// # Errors
///
/// Propagates send failures from the acknowledgement.
pub(crate) fn maybe_complete(st: &mut NodeCore, node: &Node) -> Result<(), DsmError> {
    let Some(epoch) = st.pending_ckpt else {
        return Ok(());
    };
    if !mw_settled(st) {
        return Ok(());
    }
    st.pending_ckpt = None;
    st.phase_strike(cvm_net::ProtocolPhase::CkptWindow)?;
    let me = st.proc;
    let master = st.master;
    if me == master {
        on_ckpt_ack(st, node, epoch)
    } else {
        st.send_msg(&node.sender, master, &Msg::CkptAck { from: me, epoch })
    }
}

/// Master: one node's checkpoint acknowledgement.  When every process is
/// quiescent and ready the cut can commit; broadcast the commit.
///
/// # Errors
///
/// Propagates send failures from the `CkptGo` broadcast, and the protocol
/// error from the master's own commit.
pub(crate) fn on_ckpt_ack(st: &mut NodeCore, node: &Node, epoch: u64) -> Result<(), DsmError> {
    let nprocs = st.cfg.nprocs;
    let acks = st.ckpt_acks.entry(epoch).or_insert(0);
    *acks += 1;
    if *acks < nprocs {
        return Ok(());
    }
    st.ckpt_acks.remove(&epoch);
    // A pipelined cut must not commit before its epoch's detection drains;
    // the stage commits it then.
    if st.detection_pipelined() && crate::pipeline::gate_cut(st, epoch)? {
        return Ok(());
    }
    commit_cut(st, node, epoch)
}

/// Master: commits the cut at `epoch`.  The broadcast carries whatever
/// reports are deferred — none on a synchronous master, on a pipelined one
/// those that completed after their release went out — so every image
/// carries the race log a synchronous run would have at this cut.
pub(crate) fn commit_cut(st: &mut NodeCore, node: &Node, epoch: u64) -> Result<(), DsmError> {
    let races = st
        .barrier
        .as_mut()
        .map_or_else(Vec::new, |m| std::mem::take(&mut m.deferred));
    let me = st.proc;
    for p in (0..st.cfg.nprocs as u16).map(ProcId).filter(|p| *p != me) {
        st.send_msg(
            &node.sender,
            p,
            &Msg::CkptGo {
                epoch,
                races: races.clone(),
                term: st.seat_term,
            },
        )?;
    }
    on_ckpt_go(st, epoch, races)
}

/// The commit: every node is quiescent, so snapshot this node's image
/// (its clock now carries the ack/commit round's synchronization) and
/// release the application thread held at the barrier.  A node that dies
/// before processing the commit simply leaves the epoch incomplete —
/// recovery then rolls back one epoch further, which is still a
/// consistent cut.
///
/// In pipelined runs the commit carries any race reports whose detection
/// drained between the cut being requested and committed; they join the
/// race log *before* the snapshot so the image matches a synchronous
/// run's.  Synchronous commits always pass an empty list.
///
/// # Errors
///
/// [`DsmError::Protocol`] if no application thread is waiting.
pub(crate) fn on_ckpt_go(
    st: &mut NodeCore,
    epoch: u64,
    races: Vec<cvm_race::RaceReport>,
) -> Result<(), DsmError> {
    debug_assert_eq!(st.epoch, epoch, "checkpoint commit for a stale epoch");
    st.race_log.extend(races);
    take_checkpoint(st);
    let Some(tx) = st.barrier_wait.take() else {
        return Err(DsmError::Protocol {
            context: "checkpoint commit without a waiting arrival",
        });
    };
    let _ = tx.send(());
    // The fresh image is the one allocation in this path; meter it after
    // the release so a budget failure drains the cluster instead of
    // wedging the barrier.
    st.check_budget()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsmConfig, RecoveryPolicy};
    use crate::replay::ReplayCursor;
    use cvm_page::GAddr;
    use cvm_race::{RaceKind, RaceReport};
    use cvm_vclock::IntervalStamp;
    use proptest::prelude::*;

    fn hydrated_core() -> NodeCore {
        let mut cfg = DsmConfig::new(3);
        cfg.protocol = Protocol::MultiWriter;
        cfg.recovery = RecoveryPolicy::Recover { max_attempts: 2 };
        cfg.record_sync = true;
        let mut st = NodeCore::new(cfg, ProcId(1));
        st.pages.install(
            PageId(4),
            Frame::from_data(vec![7; st.cfg.geometry.page_words], Protection::Write),
        );
        st.pages.install_zeroed(PageId(7), Protection::Read);
        st.vc.set(ProcId(0), 3);
        st.vc.set(ProcId(1), 5);
        st.cur.index = 6;
        st.cur.stamp_vc = st.vc.clone();
        st.cur.stamp_vc.set(ProcId(1), 6);
        let stamp = IntervalStamp::new(IntervalId::new(ProcId(1), 5), st.vc.clone());
        let rec = Interval::new(stamp, vec![PageId(4)], vec![PageId(7)]);
        st.log.insert(rec.id(), Arc::new(rec));
        st.unsent_own.push(IntervalId::new(ProcId(1), 5));
        let mut bm = PageBitmaps::new(st.cfg.geometry.page_words);
        bm.write.set(3);
        st.bitmaps
            .insert(IntervalId::new(ProcId(1), 5), PageId(4), bm);
        st.home_owner.insert(PageId(4), ProcId(2));
        st.mw_home.insert(
            PageId(4),
            MwHome {
                applied: [(ProcId(0), 2)].into_iter().collect(),
                waiting: Vec::new(),
                local_waiter: None,
            },
        );
        st.mw_seen.insert(PageId(4), vec![(ProcId(0), 2)]);
        st.locks.insert(
            3,
            LockLocal {
                have_token: true,
                held: false,
                successor: None,
                waiter: None,
                release_vc: Some(st.vc.clone()),
            },
        );
        st.lock_mgr.insert(4, LockMgr { last: ProcId(2) });
        st.race_log.extend([RaceReport {
            addr: GAddr(cvm_page::SHARED_BASE + 8),
            kind: RaceKind::WriteWrite,
            a: IntervalId::new(ProcId(0), 2),
            b: IntervalId::new(ProcId(1), 3),
            epoch: 1,
        }]);
        st.det_stats.intervals_total = 11;
        st.det_stats.races_found = 1;
        st.sched_rec.record(3, ProcId(1));
        st.sched_rec.record(3, ProcId(0));
        st.stats.barriers = 2;
        st.stats.shared_writes = 40;
        st.epoch = 2;
        st.clock.add(OverheadCat::Base, 12_345);
        st.clock.add(OverheadCat::Bitmaps, 67);
        st
    }

    /// Deterministic digest of the restorable slice of a core.
    fn state_hash(st: &NodeCore) -> Vec<u8> {
        snapshot(st).to_bytes()
    }

    #[test]
    fn image_roundtrips_through_wire() {
        let st = hydrated_core();
        let img = snapshot(&st);
        let decoded = NodeImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(img, decoded);
    }

    // FNV-1a pins an image's bytes without spelling out its two resident
    // pages.
    use cvm_net::wire::fnv1a64 as fnv1a;

    #[test]
    fn image_bytes_are_pinned() {
        // The image format is a contract: the fixture's encoding, pinned by
        // length and digest.
        let bytes = snapshot(&hydrated_core()).to_bytes();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (8940, 9_821_873_163_553_668_852)
        );
    }

    #[test]
    fn counter_sets_keep_their_vec_encoding() {
        // A counter set encodes as its values in a `Vec<u64>`, in
        // declaration order.
        let det = DetectorStats {
            intervals_total: 1,
            intervals_used: 2,
            pair_comparisons: 3,
            pairs_concurrent: 4,
            pairs_overlapping: 5,
            bitmaps_requested: 6,
            bitmaps_total: 7,
            bitmap_comparisons: 8,
            races_found: 9,
        };
        assert_eq!(
            det.to_bytes(),
            vec![1u64, 2, 3, 4, 5, 6, 7, 8, 9].to_bytes()
        );
        let stats = NodeStats {
            intervals: 1,
            barriers: 2,
            consolidations: 3,
            locks_local: 4,
            locks_remote: 5,
            read_faults: 6,
            write_faults: 7,
            pages_sent: 8,
            diffs_made: 9,
            diff_words: 10,
            records_applied: 11,
            shared_reads: 12,
            shared_writes: 13,
            log_high_water: 14,
            bitmap_high_water: 15,
            retained_bytes_high_water: 16,
            soft_gcs: 17,
            pipelined_epochs: 18,
            pipeline_stalls: 19,
        };
        let expected: Vec<u64> = vec![
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        ];
        assert_eq!(stats.to_bytes(), expected.to_bytes());
        // One value too few or too many is a decode error, not a panic.
        for n in [8, 10] {
            let body: Vec<u64> = (1..=n).collect();
            assert!(DetectorStats::from_bytes(&body.to_bytes()).is_err());
        }
        for n in [18, 20] {
            let body: Vec<u64> = (1..=n).collect();
            assert!(NodeStats::from_bytes(&body.to_bytes()).is_err());
        }
    }

    #[test]
    fn restore_reproduces_pre_kill_state_hash() {
        let st = hydrated_core();
        let img = snapshot(&st);
        let mut fresh = NodeCore::new(st.cfg.clone(), ProcId(1));
        restore(&mut fresh, &img);
        // The restore charge moves the clock; rewind it for the comparison
        // (recovery cost is real, state equality is what is asserted).
        fresh.clock = VirtualClock::from_parts(img.clock_now, {
            let mut cats = [0u64; NCATS];
            cats.copy_from_slice(&img.clock_cats);
            cats
        });
        assert_eq!(state_hash(&st), state_hash(&fresh));
        assert_eq!(fresh.epoch, 2);
        assert_eq!(fresh.resume_epoch, 2);
        assert_eq!(fresh.pages.protection(PageId(4)), Protection::Write);
        assert_eq!(fresh.pages.frame(PageId(4)).unwrap().data[0], 7);
        assert!(fresh.pages.frame(PageId(4)).unwrap().twin.is_none());
    }

    #[test]
    fn open_interval_survives_the_image_byte_for_byte() {
        // A cut normally finds the open interval empty; the image format
        // still carries its read notices and bitmaps, so they must come
        // back exactly: notices ascending, bitmaps word for word.
        let mut st = hydrated_core();
        let g = st.cfg.geometry;
        for (page, word, write) in [(9, 5, false), (2, 7, true), (9, 64, true), (4, 0, false)] {
            st.track_run(
                g.addr_of(PageId(page), word),
                PageId(page),
                word,
                1,
                write,
                0,
            );
        }
        let img = snapshot(&st);
        assert_eq!(img.cur_read, vec![PageId(4), PageId(9)]);
        let pages: Vec<PageId> = img.cur_bitmaps.iter().map(|(p, _)| *p).collect();
        assert_eq!(pages, vec![PageId(2), PageId(4), PageId(9)]);
        assert!(img.cur_bitmaps[2].1.read.get(5) && img.cur_bitmaps[2].1.write.get(64));

        let bytes = img.to_bytes();
        let decoded = NodeImage::from_bytes(&bytes).unwrap();
        let mut fresh = NodeCore::new(st.cfg.clone(), ProcId(1));
        restore(&mut fresh, &decoded);
        fresh.clock = VirtualClock::from_parts(img.clock_now, {
            let mut cats = [0u64; NCATS];
            cats.copy_from_slice(&img.clock_cats);
            cats
        });
        assert_eq!(snapshot(&fresh).to_bytes(), bytes);
        // The restored interval closes into the record the original would.
        let (eps, _) = cvm_net::Network::new(3, cvm_net::NetConfig::default());
        st.close_interval(&eps[1].sender()).unwrap();
        fresh.close_interval(&eps[1].sender()).unwrap();
        let id = IntervalId::new(ProcId(1), 6);
        assert_eq!(st.log[&id], fresh.log[&id]);
        assert_eq!(st.log[&id].read_notices, vec![PageId(4), PageId(9)]);
    }

    #[test]
    fn restore_positions_replay_cursor() {
        let mut st = hydrated_core();
        let schedule = st.sched_rec.clone();
        st.replay = Some(ReplayCursor::new(schedule.clone()));
        st.replay.as_mut().unwrap().advance(3);
        let img = snapshot(&st);
        assert_eq!(img.replay_pos, vec![(3, 1)]);
        let mut fresh = NodeCore::new(st.cfg.clone(), ProcId(1));
        fresh.replay = Some(ReplayCursor::new(schedule));
        restore(&mut fresh, &img);
        assert_eq!(fresh.replay.as_ref().unwrap().positions(), vec![(3, 1)]);
    }

    #[test]
    fn store_tracks_complete_epochs_and_prunes() {
        let store = CheckpointStore::new();
        assert_eq!(store.last_complete_epoch(2), None);
        store.put(1, 0, vec![1, 2]);
        store.put(1, 1, vec![3]);
        store.put(2, 0, vec![4]);
        assert_eq!(store.last_complete_epoch(2), Some(1));
        assert_eq!(store.max_epoch(), Some(2));
        assert_eq!(store.checkpoints_taken(), 3);
        assert_eq!(store.bytes_snapshotted(), 4);
        store.prune_above(1);
        assert_eq!(store.max_epoch(), Some(1));
        store.put(2, 0, vec![5]);
        store.put(2, 1, vec![6]);
        assert_eq!(store.last_complete_epoch(2), Some(2));
    }

    #[test]
    fn retention_keeps_newest_complete_cuts() {
        let store = CheckpointStore::with_retention(2, 2);
        for epoch in 1..=4u64 {
            store.put(epoch, 0, vec![0; 8]);
            store.put(epoch, 1, vec![0; 8]);
        }
        // Epochs 3 and 4 survive; 1 and 2 were evicted as newer complete
        // cuts arrived.
        assert_eq!(store.last_complete_epoch(2), Some(4));
        assert!(!store.inner.lock().unwrap().contains_key(&(2, 0)));
        assert!(store.inner.lock().unwrap().contains_key(&(3, 0)));
        assert_eq!(store.cuts_evicted(), 2);
        // Two retained epochs, two images each, 8 bytes apiece.
        assert_eq!(store.checkpoint_bytes_live(), 32);
        // Lifetime counters ignore eviction.
        assert_eq!(store.checkpoints_taken(), 8);
        assert_eq!(store.bytes_snapshotted(), 8 * 8);
    }

    #[test]
    fn retention_never_evicts_inflight_partial_cuts() {
        let store = CheckpointStore::with_retention(1, 2);
        store.put(1, 0, vec![1]);
        store.put(1, 1, vec![2]);
        store.put(2, 0, vec![3]);
        store.put(2, 1, vec![4]);
        // Epoch 3 is partial (in flight): it must survive even though only
        // one complete cut is retained.
        store.put(3, 0, vec![5]);
        assert_eq!(store.last_complete_epoch(2), Some(2));
        let present = |e, p| store.inner.lock().unwrap().contains_key(&(e, p));
        assert!(!present(1, 0));
        assert!(present(2, 0));
        assert!(present(3, 0));
        assert_eq!(store.bytes_live_for(ProcId(0)), 2);
        assert_eq!(store.bytes_live_for(ProcId(1)), 1);
    }

    #[test]
    fn pressure_eviction_shrinks_to_one_complete_cut() {
        let store = CheckpointStore::with_retention(3, 2);
        for epoch in 1..=3u64 {
            store.put(epoch, 0, vec![0; 4]);
            store.put(epoch, 1, vec![0; 4]);
        }
        let present = |s: &CheckpointStore, e, p| s.inner.lock().unwrap().contains_key(&(e, p));
        assert!(present(&store, 1, 0));
        store.evict_under_pressure();
        assert!(!present(&store, 1, 0));
        assert!(!present(&store, 2, 0));
        assert_eq!(store.last_complete_epoch(2), Some(3));
        // An unbounded store ignores pressure entirely.
        let unbounded = CheckpointStore::new();
        unbounded.put(1, 0, vec![1]);
        unbounded.evict_under_pressure();
        assert!(present(&unbounded, 1, 0));
    }

    #[test]
    fn mw_settled_gates_on_watermarks() {
        let mut st = hydrated_core();
        // PageId(4) % 3 == 1 == st.proc: homed here.  seen (0,2) vs
        // applied (0,2): settled.
        assert!(mw_settled(&st));
        st.mw_seen.insert(PageId(4), vec![(ProcId(0), 3)]);
        assert!(!mw_settled(&st));
        st.mw_home
            .get_mut(&PageId(4))
            .unwrap()
            .applied
            .insert(ProcId(0), 3);
        assert!(mw_settled(&st));
        // Pages homed elsewhere never gate.
        st.mw_seen.insert(PageId(5), vec![(ProcId(0), 99)]);
        assert!(mw_settled(&st));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn encode_restore_encode_is_identity(
            page_words in prop_oneof![Just(64usize), Just(128usize)],
            frames in proptest::collection::vec(
                (0u32..16, 0u8..3, 0u64..u64::MAX), 0..6),
            vc_raw in proptest::collection::vec(0u32..50, 3),
            locks in proptest::collection::vec((0u32..8, any::<bool>()), 0..5),
            epoch in 0u64..40,
            notices in proptest::collection::vec((0u32..16, 0u32..16), 0..5),
        ) {
            let mut vc_data = VClock::new(3);
            for (i, x) in vc_raw.into_iter().enumerate() {
                vc_data.set(ProcId(i as u16), x);
            }
            let mut cfg = DsmConfig::new(3);
            cfg.geometry.page_words = page_words;
            cfg.recovery = RecoveryPolicy::Recover { max_attempts: 1 };
            let mut st = NodeCore::new(cfg.clone(), ProcId(2));
            for (page, prot, word) in &frames {
                let prot = prot_from_u8(*prot).unwrap();
                let mut data = vec![0u64; page_words];
                data[0] = *word;
                st.pages.install(PageId(*page), Frame::from_data(data, prot));
            }
            st.vc = vc_data.clone();
            st.cur.stamp_vc = vc_data;
            for (lock, tok) in &locks {
                st.locks.insert(*lock, LockLocal {
                    have_token: *tok,
                    held: false,
                    successor: None,
                    waiter: None,
                    release_vc: None,
                });
            }
            for (k, (w, r)) in notices.iter().enumerate() {
                let index = k as u32 + 1;
                let id = IntervalId::new(ProcId(2), index);
                let mut vc = st.vc.clone();
                vc.set(ProcId(2), index);
                let stamp = IntervalStamp::new(id, vc);
                let rec = Interval::new(stamp, vec![PageId(*w)], vec![PageId(*r)]);
                st.log.insert(id, Arc::new(rec));
            }
            st.epoch = epoch;

            let img = snapshot(&st);
            let bytes = img.to_bytes();
            let decoded = NodeImage::from_bytes(&bytes).unwrap();
            let mut fresh = NodeCore::new(cfg, ProcId(2));
            restore(&mut fresh, &decoded);
            // The restore charge moves the clock; rewind it so the bytes
            // compare state, not recovery cost.
            fresh.clock = VirtualClock::from_parts(decoded.clock_now, {
                let mut cats = [0u64; NCATS];
                cats.copy_from_slice(&decoded.clock_cats);
                cats
            });
            // encode(restore(encode(img))) == encode(img): the image is a
            // fixed point of the snapshot/restore pair.
            let reimg = snapshot(&fresh);
            prop_assert_eq!(&img.to_bytes()[..], &reimg.to_bytes()[..]);
            // And the wire codec itself roundtrips.
            prop_assert_eq!(img, decoded);
        }
    }
}
