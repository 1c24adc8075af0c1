//! Per-node protocol state and the shared-memory access path.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::Sender;
use cvm_instrument::AnalysisRuntime;
use cvm_net::wire::Wire;
use cvm_net::{NetSender, Packet, ProtocolPhase, TrafficClass};
use cvm_page::{Diff, GAddr, PageBitmaps, PageId, PageStore, Protection, WORD_BYTES};
use cvm_race::{BitmapStore, Interval, RaceLog};
use cvm_vclock::{IntervalId, IntervalStamp, ProcId, VClock};

use crate::config::{DsmConfig, Protocol, WriteDetection};
use crate::msg::Msg;
use crate::replay::{ReplayCursor, SyncSchedule};
use crate::report::WatchHit;
use crate::simtime::{OverheadCat, VirtualClock};

/// What the open interval knows about one page.
#[derive(Clone, Copy, Debug, Default)]
struct PageSlot {
    /// Interval stamp this slot was last claimed under.
    stamp: u32,
    /// Read this interval (a read notice at close; detection only).
    read: bool,
    /// Written this interval (a write notice at close).
    dirty: bool,
    /// Index into `OpenInterval::bitmaps`, `NO_BITMAP` until the first bit.
    bm: u32,
}

const NO_BITMAP: u32 = u32::MAX;

/// The interval currently being accumulated by a process.
///
/// Per-page state lives in one table indexed by page id.  A slot is live
/// iff its stamp equals the interval's; closing bumps the stamp, which
/// empties every slot at once.  Stamp 0 is never live, so a zeroed table is
/// an empty one.
#[derive(Debug)]
pub(crate) struct OpenInterval {
    /// Interval index (own clock entry at close).
    pub index: u32,
    /// Vector timestamp snapshotted at interval begin.
    pub stamp_vc: VClock,
    slots: Vec<PageSlot>,
    stamp: u32,
    /// Pages with a live slot, in first-touch order.
    touched: Vec<PageId>,
    /// Word-granularity access bitmaps (detection only), addressed by
    /// `PageSlot::bm`.
    bitmaps: Vec<(PageId, PageBitmaps)>,
}

impl OpenInterval {
    pub(crate) fn new(index: u32, stamp_vc: VClock) -> Self {
        OpenInterval {
            index,
            stamp_vc,
            slots: Vec::new(),
            stamp: 1,
            touched: Vec::new(),
            bitmaps: Vec::new(),
        }
    }

    /// The live slot of `page`, claimed for this interval on first touch.
    #[inline]
    fn slot(&mut self, page: PageId) -> &mut PageSlot {
        let i = page.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, PageSlot::default());
        }
        let slot = &mut self.slots[i];
        if slot.stamp != self.stamp {
            *slot = PageSlot {
                stamp: self.stamp,
                bm: NO_BITMAP,
                ..PageSlot::default()
            };
            self.touched.push(page);
        }
        slot
    }

    /// Whether `page` was written this interval.
    #[inline]
    pub(crate) fn is_dirty(&self, page: PageId) -> bool {
        self.slots
            .get(page.index())
            .is_some_and(|s| s.stamp == self.stamp && s.dirty)
    }

    /// Marks `page` written this interval (a write notice at close).
    #[inline]
    pub(crate) fn note_dirty(&mut self, page: PageId) {
        self.slot(page).dirty = true;
    }

    /// Marks `page` read this interval (a read notice at close).
    #[inline]
    pub(crate) fn note_read(&mut self, page: PageId) {
        self.slot(page).read = true;
    }

    /// The interval's bitmaps for `page`, created empty on first use.
    #[inline]
    pub(crate) fn bitmap_mut(&mut self, page: PageId, page_words: usize) -> &mut PageBitmaps {
        let next = u32::try_from(self.bitmaps.len()).expect("more bitmaps than pages");
        let slot = self.slot(page);
        let first = slot.bm == NO_BITMAP;
        if first {
            slot.bm = next;
        }
        let at = slot.bm as usize;
        if first {
            self.bitmaps.push((page, PageBitmaps::new(page_words)));
        }
        &mut self.bitmaps[at].1
    }

    fn pages_where(&self, keep: impl Fn(&PageSlot) -> bool) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .touched
            .iter()
            .copied()
            .filter(|p| keep(&self.slots[p.index()]))
            .collect();
        pages.sort_unstable();
        pages
    }

    /// Pages written this interval, ascending.
    pub(crate) fn dirty_pages(&self) -> Vec<PageId> {
        self.pages_where(|s| s.dirty)
    }

    /// Pages read this interval, ascending.
    pub(crate) fn read_pages(&self) -> Vec<PageId> {
        self.pages_where(|s| s.read)
    }

    /// The interval's bitmaps, ascending by page.
    pub(crate) fn sorted_bitmaps(&self) -> Vec<(PageId, PageBitmaps)> {
        let mut pages = self.bitmaps.clone();
        pages.sort_unstable_by_key(|(p, _)| *p);
        pages
    }

    /// Forgets every page and hands back the bitmaps: the stamp moves on,
    /// so no slot is live.  When the stamp wraps, slots claimed 2³² closes
    /// ago would read live again; zero the table instead.
    fn forget(&mut self) -> std::vec::Drain<'_, (PageId, PageBitmaps)> {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(PageSlot::default());
            self.stamp = 1;
        }
        self.touched.clear();
        self.bitmaps.drain(..)
    }
}

/// Local state of one lock.
#[derive(Debug, Default)]
pub(crate) struct LockLocal {
    /// This node holds the token (may grant without the manager).
    pub have_token: bool,
    /// The application currently holds the lock.
    pub held: bool,
    /// The next process in the distributed queue, waiting for our release.
    pub successor: Option<(ProcId, VClock)>,
    /// Application thread blocked in `lock()`.
    pub waiter: Option<Sender<()>>,
    /// The releaser's clock at its most recent `unlock()` of this lock.
    ///
    /// Happens-before-1 orders the acquirer after the *release*, not after
    /// the grant: a grant sent later (when the forwarded request arrives)
    /// must carry only the knowledge the releaser had at the unlock.
    /// Shipping the granter's current clock would impose extra ordering
    /// and hide races that follow the unlock — e.g. Water's unlocked
    /// virial update, which sits between the last unlock and the barrier.
    pub release_vc: Option<VClock>,
}

/// Manager-side state of one lock (only at `lock % nprocs`).
#[derive(Debug)]
pub(crate) struct LockMgr {
    /// Last process the token was forwarded towards (tail of the queue).
    pub last: ProcId,
}

/// A queued remote page request that cannot be serviced yet (single-writer
/// ownership is in flight).
#[derive(Debug)]
pub(crate) enum QueuedPageReq {
    /// A forwarded read-copy request.
    Read(ProcId),
    /// A forwarded ownership request (always last in the queue).
    Own(ProcId),
}

/// Diff watermarks a fetch is gated on: `(writer, interval index)` pairs.
pub(crate) type DiffNeeds = Vec<(ProcId, u32)>;

/// Multi-writer master-copy bookkeeping at the page home.
#[derive(Debug, Default)]
pub(crate) struct MwHome {
    /// Highest interval index applied per writer.
    pub applied: HashMap<ProcId, u32>,
    /// Fetches waiting for diffs to arrive: `(requester, needed)`.
    pub waiting: Vec<(ProcId, DiffNeeds)>,
    /// Local application thread waiting for diffs (home's own fault).
    pub local_waiter: Option<(Sender<()>, DiffNeeds)>,
}

/// Plain counters of protocol activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Intervals closed.
    pub intervals: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Consolidations (barrier machinery run for lock-only programs, §6.3).
    pub consolidations: u64,
    /// Lock acquisitions satisfied locally (token cached).
    pub locks_local: u64,
    /// Lock acquisitions requiring messages.
    pub locks_remote: u64,
    /// Read faults taken.
    pub read_faults: u64,
    /// Write faults taken.
    pub write_faults: u64,
    /// Pages sent to other nodes (copies or ownership transfers).
    pub pages_sent: u64,
    /// Diffs created (multi-writer).
    pub diffs_made: u64,
    /// Total words across created diffs.
    pub diff_words: u64,
    /// Remote interval records applied.
    pub records_applied: u64,
    /// Shared reads performed.
    pub shared_reads: u64,
    /// Shared writes performed.
    pub shared_writes: u64,
    /// High-water mark of retained interval records (GC boundedness).
    pub log_high_water: u64,
    /// High-water mark of retained access bitmaps (GC boundedness).
    pub bitmap_high_water: u64,
    /// High-water mark of estimated retained bytes across all metered
    /// classes (records, bitmaps, twins, checkpoint images).
    pub retained_bytes_high_water: u64,
    /// Soft-budget crossings that triggered proactive GC.
    pub soft_gcs: u64,
    /// Barrier epochs whose detection ran overlapped on the pipeline stage
    /// (master only; zero in synchronous mode).
    pub pipelined_epochs: u64,
    /// Barriers that stalled waiting for the previous epoch's detection to
    /// drain (master only; the depth-1 pipeline was full).
    pub pipeline_stalls: u64,
}

/// Mutable state of one node, shared between its application thread and its
/// service thread.
pub(crate) struct NodeCore {
    pub cfg: DsmConfig,
    pub proc: ProcId,
    pub clock: VirtualClock,
    pub pages: PageStore,
    /// Last *closed* interval index per process (own entry included).
    pub vc: VClock,
    pub cur: OpenInterval,
    /// Known interval records (own and received), for lock grants.
    /// `Arc`-shared: grants and barrier fan-out reference these records
    /// instead of deep-cloning them per receiver.
    pub log: BTreeMap<IntervalId, Arc<Interval>>,
    /// Own records not yet shipped at a barrier.
    pub unsent_own: Vec<IntervalId>,
    /// Retained access bitmaps for own intervals (until checked).
    pub bitmaps: BitmapStore,
    pub analysis: AnalysisRuntime,
    /// Single-writer: current owner of pages homed here.
    pub home_owner: HashMap<PageId, ProcId>,
    /// Pages with a local fault in flight (waiting app thread).
    pub page_wait: HashMap<PageId, Sender<()>>,
    /// Pages whose ownership just arrived for a local write that has not
    /// executed yet; remote requests stay deferred until it does (closes
    /// the steal window between reply processing and the app's retry).
    pub pending_local_write: std::collections::HashSet<PageId>,
    /// Remote requests deferred until local ownership arrives.
    pub page_queue: HashMap<PageId, VecDeque<QueuedPageReq>>,
    /// Multi-writer home state for pages homed here.
    pub mw_home: HashMap<PageId, MwHome>,
    /// Multi-writer: highest write-notice interval seen per page/writer.
    pub mw_seen: HashMap<PageId, Vec<(ProcId, u32)>>,
    pub locks: HashMap<u32, LockLocal>,
    pub lock_mgr: HashMap<u32, LockMgr>,
    /// Barrier master state (present only on the node currently seated as
    /// master — proc 0 on a fresh start, a survivor after failover).
    pub barrier: Option<crate::barrier::BarrierMaster>,
    /// The barrier master's seat: every arrival, checkpoint ack, and
    /// bitmap reply is addressed here.  `ProcId(0)` on a fresh start;
    /// re-seated on the lowest-numbered survivor when the master dies.
    pub master: ProcId,
    /// Monotone master-seat term this node has adopted: 0 for the initial
    /// seating, bumped by every accepted `MasterHandoff`.  Master-originated
    /// messages carry the issuing term; anything below this value is a
    /// stale master talking across a healed partition and is fenced.
    pub seat_term: u64,
    /// Stale-term master messages fenced (dropped, never applied) by this
    /// node.  Not part of the checkpoint image — it is diagnostic
    /// telemetry, summed into `RunReport.recovery.stale_msgs_fenced`.
    pub stale_msgs_fenced: u64,
    /// Master only: `MasterHandoffAck`s collected while announcing a
    /// failover seat change.
    pub handoff_acks: usize,
    /// Scripted protocol-window strikes armed for this node: `(phase,
    /// hit)` pairs from the fault plan's `KillAtPhase` events.
    pub phase_kills: Vec<(ProtocolPhase, u64)>,
    /// Times this node has entered each protocol window (indexed by
    /// [`ProtocolPhase::index`]); drives the `hit` ordinals above.
    pub phase_counts: [u64; ProtocolPhase::COUNT],
    /// Application thread blocked in `barrier()`.
    pub barrier_wait: Option<Sender<()>>,
    /// Barrier epochs completed.
    pub epoch: u64,
    /// Races detected (authoritative at the master; workers keep the copies
    /// delivered in release messages).
    pub race_log: RaceLog,
    /// Detector statistics (master only).
    pub det_stats: cvm_race::DetectorStats,
    /// Recorded lock-grant order (when recording).
    pub sched_rec: SyncSchedule,
    /// Replay cursor (when replaying).
    pub replay: Option<ReplayCursor>,
    /// Lock requests held back by replay ordering.
    pub replay_pending: HashMap<u32, Vec<(ProcId, VClock)>>,
    pub stats: NodeStats,
    /// §6.1 watchpoint hits.
    pub watch_hits: Vec<WatchHit>,
    /// Post-mortem trace log (when `cfg.trace` is on).
    pub trace: Vec<cvm_race::trace::TraceEvent>,
    /// Trace index of the last `Release` event per lock (for grant
    /// pairing).
    pub trace_last_release: HashMap<u32, u32>,
    /// First barrier epoch the application must actually execute.  Zero on
    /// a fresh start; set by a checkpoint restore so apps using the
    /// epoch-entry API skip already-completed phases.
    pub resume_epoch: u64,
    /// Barrier epoch whose checkpoint is taken but not yet acknowledged:
    /// the app thread stays blocked in `barrier()` until the master's
    /// commit so the snapshot set forms a consistent cut.
    pub pending_ckpt: Option<u64>,
    /// Master only: checkpoint acknowledgements collected per epoch.
    pub ckpt_acks: HashMap<u64, usize>,
    /// Destination for recovery images (present only under
    /// [`RecoveryPolicy::Recover`](crate::RecoveryPolicy)).
    pub ckpt: Option<Arc<crate::checkpoint::CheckpointStore>>,
    /// The merged release clock of the last barrier: every peer's knowledge
    /// is at least this.  Remote consistency state at or below the floor is
    /// redundant (each peer already applied it), so soft-budget GC may drop
    /// it without weakening LRC.  Barrier GC normally leaves nothing below
    /// the floor; the sweep matters after a checkpoint restore.
    pub barrier_floor: VClock,
    /// The *previous* release's GC boundary.  Pipelined detection reads an
    /// epoch's bitmaps after its release has been applied, so release GC
    /// lags bitmap pruning by one boundary (see `apply_release`).
    pub prev_gc_boundary: u32,
}

impl NodeCore {
    pub(crate) fn new(cfg: DsmConfig, proc: ProcId) -> Self {
        let nprocs = cfg.nprocs;
        let mut vc = VClock::new(nprocs);
        let index = 1;
        let mut stamp_vc = vc.clone();
        stamp_vc.set(proc, index);
        let _ = &mut vc;
        NodeCore {
            pages: PageStore::new(cfg.geometry, cfg.segment_pages()),
            cfg,
            proc,
            clock: VirtualClock::new(),
            vc,
            cur: OpenInterval::new(index, stamp_vc),
            log: BTreeMap::new(),
            unsent_own: Vec::new(),
            bitmaps: BitmapStore::new(),
            analysis: AnalysisRuntime::new(),
            home_owner: HashMap::new(),
            page_wait: HashMap::new(),
            pending_local_write: std::collections::HashSet::new(),
            page_queue: HashMap::new(),
            mw_home: HashMap::new(),
            mw_seen: HashMap::new(),
            locks: HashMap::new(),
            lock_mgr: HashMap::new(),
            barrier: None,
            master: ProcId(0),
            seat_term: 0,
            stale_msgs_fenced: 0,
            handoff_acks: 0,
            phase_kills: Vec::new(),
            phase_counts: [0; ProtocolPhase::COUNT],
            barrier_wait: None,
            epoch: 0,
            race_log: RaceLog::new(),
            det_stats: cvm_race::DetectorStats::default(),
            sched_rec: SyncSchedule::new(),
            replay: None,
            replay_pending: HashMap::new(),
            stats: NodeStats::default(),
            watch_hits: Vec::new(),
            trace: Vec::new(),
            trace_last_release: HashMap::new(),
            resume_epoch: 0,
            pending_ckpt: None,
            ckpt_acks: HashMap::new(),
            ckpt: None,
            barrier_floor: VClock::new(nprocs),
            prev_gc_boundary: 0,
        }
    }

    /// Fences a master-originated message issued under seat term `term`:
    /// returns `true` (and counts the drop) when the term is older than
    /// the seat this node has adopted.  The sender is a stale master
    /// talking across a healed partition; its message must be ignored,
    /// never applied and never a panic.
    pub(crate) fn fence_stale(&mut self, term: u64) -> bool {
        if term < self.seat_term {
            self.stale_msgs_fenced += 1;
            true
        } else {
            false
        }
    }

    /// Counts an entry into protocol window `phase` and fires any armed
    /// `KillAtPhase` strike whose `hit` ordinal matches: the node
    /// self-inflicts [`DsmError::NodeFailed`](crate::DsmError) for itself,
    /// which unwinds through the first-error path exactly like a
    /// wire-detected death.  A no-op when no strikes are armed.
    pub(crate) fn phase_strike(&mut self, phase: ProtocolPhase) -> Result<(), crate::DsmError> {
        let n = self.phase_counts[phase.index()];
        self.phase_counts[phase.index()] = n + 1;
        if self
            .phase_kills
            .iter()
            .any(|&(p, hit)| p == phase && hit == n)
        {
            return Err(crate::DsmError::NodeFailed { proc: self.proc.0 });
        }
        Ok(())
    }

    /// Whether this run defers detection to the master's pipeline stage
    /// (gates the lagged bitmap GC on every node).
    pub(crate) fn detection_pipelined(&self) -> bool {
        self.cfg.detect.pipelined
            && self.cfg.detect.enabled
            && !self.cfg.detect.instrumentation_only
    }

    /// Returns `true` if shared accesses must be tracked at word
    /// granularity (online detection or baseline tracing).
    #[inline]
    pub fn tracking(&self) -> bool {
        self.cfg.detect.enabled || self.cfg.trace
    }

    /// Home node of a page (static distribution).
    #[inline]
    pub fn home_of(&self, page: PageId) -> ProcId {
        ProcId::from_index(page.index() % self.cfg.nprocs)
    }

    /// Manager node of a lock (static distribution).
    #[inline]
    pub fn manager_of(&self, lock: u32) -> ProcId {
        ProcId::from_index(lock as usize % self.cfg.nprocs)
    }

    /// Single-writer: current owner of a page homed *here*.
    pub fn owner_of(&mut self, page: PageId) -> ProcId {
        let home = self.home_of(page);
        debug_assert_eq!(home, self.proc, "owner_of() called off the home node");
        *self.home_owner.entry(page).or_insert(home)
    }

    /// Encodes and transmits a message, charging sender-side costs.
    ///
    /// # Errors
    ///
    /// [`DsmError::Net`] when the wire refuses the message: over the
    /// system maximum (the hard limit that capped the paper's input sizes,
    /// §5.3), or the destination's wiring is gone (a dead or killed node).
    /// Callers propagate instead of panicking so the cluster can drain.
    pub fn send_msg(
        &mut self,
        sender: &NetSender,
        dst: ProcId,
        msg: &Msg,
    ) -> Result<(), crate::error::DsmError> {
        // `wire_size` is arithmetic, so the buffer is allocated exactly
        // once at the right size and never grows during encoding.
        let predicted = msg.wire_size();
        let mut payload = Vec::with_capacity(predicted as usize);
        msg.encode(&mut payload);
        debug_assert_eq!(
            payload.len() as u64,
            predicted,
            "wire_size out of sync with encode for {:?}",
            msg_kind(msg)
        );
        let breakdown = msg.breakdown();
        // Sender-side packetization cost, attributed per class: read-notice
        // bytes are detection overhead ("CVM Mods"), bitmap bytes belong to
        // the extra barrier round, the rest is base protocol cost.
        let c = self.cfg.costs;
        let rn = breakdown.get(TrafficClass::ReadNotice);
        let bm = breakdown.get(TrafficClass::Bitmap);
        let base = breakdown.total() - rn - bm;
        self.clock.add(OverheadCat::Base, base * c.send_per_byte);
        if rn > 0 {
            self.clock.add(OverheadCat::CvmMods, rn * c.send_per_byte);
        }
        if bm > 0 {
            self.clock.add(OverheadCat::Bitmaps, bm * c.send_per_byte);
        }
        sender
            .send(dst, self.clock.now(), breakdown, payload)
            .map_err(crate::error::DsmError::Net)
    }

    /// Synchronizes the clock with an incoming packet.
    pub fn clock_recv(&mut self, pkt: &Packet) {
        let transit = self.cfg.costs.transit(pkt.breakdown.total());
        self.clock.recv(pkt.sent_at, transit);
    }

    /// Closes the current interval: builds its record (write notices from
    /// the dirty pages, read notices from the read pages, both ascending),
    /// stores its bitmaps, flushes multi-writer diffs, and advances the
    /// closed clock.
    ///
    /// The caller opens the next interval (after any acquire-side merge).
    ///
    /// # Errors
    ///
    /// Propagates send failures from the multi-writer diff flush.
    pub fn close_interval(&mut self, sender: &NetSender) -> Result<(), crate::error::DsmError> {
        let c = self.cfg.costs;
        self.clock.add(OverheadCat::Base, c.interval_setup);
        let detect = self.cfg.detect.enabled && !self.cfg.detect.instrumentation_only;
        if detect {
            self.clock
                .add(OverheadCat::CvmMods, c.interval_detect_extra);
        }

        let id = IntervalId::new(self.proc, self.cur.index);
        let write_notices = self.cur.dirty_pages();

        // Multi-writer: summarize writes as diffs and flush them home.
        if self.cfg.protocol == Protocol::MultiWriter && !write_notices.is_empty() {
            self.flush_diffs(sender, id, &write_notices)?;
        }

        // Read notices ride on messages only for the online detector; a
        // pure tracing run leaves CVM's messages unmodified.
        let read_notices = if detect {
            self.cur.read_pages()
        } else {
            Vec::new()
        };
        let stamp = IntervalStamp::new(id, self.cur.stamp_vc.clone());
        let record = Interval::new(stamp, write_notices, read_notices);

        if self.cfg.trace && !self.cur.bitmaps.is_empty() {
            let pages = self.cur.sorted_bitmaps();
            self.trace
                .push(cvm_race::trace::TraceEvent::Computation { pages });
        }
        for (page, bm) in self.cur.forget() {
            if detect {
                self.bitmaps.insert(id, page, bm);
            }
        }

        self.log.insert(id, Arc::new(record));
        self.unsent_own.push(id);
        self.vc.set(self.proc, self.cur.index);
        self.stats.intervals += 1;
        self.note_high_water();
        self.check_budget()
    }

    /// Updates the retained-state high-water marks (used to verify that
    /// epoch-boundary garbage collection keeps memory bounded — the system
    /// "only discards trace information when it has been checked for
    /// races", §6.4, and discards it then).
    pub fn note_high_water(&mut self) {
        self.stats.log_high_water = self.stats.log_high_water.max(self.log.len() as u64);
        self.stats.bitmap_high_water = self.stats.bitmap_high_water.max(self.bitmaps.len() as u64);
    }

    /// Estimated bytes retained per metered resource class.
    ///
    /// Records are costed at their wire size (an exact arithmetic figure)
    /// plus a fixed in-memory overhead; bitmaps at two bits per page word;
    /// twins at one page of words; checkpoints at this node's live images
    /// in the shared store.  Estimates only steer the budget — they never
    /// charge virtual time, so the simulated timeline is identical with
    /// and without a budget configured.
    pub(crate) fn retained_breakdown(&self) -> [(crate::error::ResourceKind, u64); 4] {
        use crate::error::ResourceKind;
        const RECORD_OVERHEAD: u64 = 48;
        let record_bytes: u64 = self
            .log
            .values()
            .map(|rec| rec.wire_size() + RECORD_OVERHEAD)
            .sum();
        let page_words = self.cfg.geometry.page_words as u64;
        let bitmap_bytes = self.bitmaps.len() as u64 * (page_words / 4).max(1);
        let twin_bytes = self
            .pages
            .pages()
            .filter(|&p| self.pages.frame(p).is_some_and(|f| f.twin.is_some()))
            .count() as u64
            * page_words
            * 8;
        let ckpt_bytes = self
            .ckpt
            .as_ref()
            .map_or(0, |store| store.bytes_live_for(self.proc));
        [
            (ResourceKind::Records, record_bytes),
            (ResourceKind::Bitmaps, bitmap_bytes),
            (ResourceKind::Twins, twin_bytes),
            (ResourceKind::Checkpoints, ckpt_bytes),
        ]
    }

    /// Re-measures retained state against the configured
    /// [`MemBudget`](crate::MemBudget) and updates the byte high-water
    /// mark.
    ///
    /// Crossing the soft limit triggers one proactive GC pass (see
    /// [`soft_gc`](Self::soft_gc)); still exceeding the hard limit after
    /// GC fails the operation with
    /// [`DsmError::ResourceExhausted`](crate::error::DsmError), which
    /// unwinds through the cluster's first-error path — never a panic.
    ///
    /// # Errors
    ///
    /// [`DsmError::ResourceExhausted`](crate::error::DsmError) when
    /// retained bytes exceed the hard limit even after the soft-GC pass.
    pub fn check_budget(&mut self) -> Result<(), crate::error::DsmError> {
        let total: u64 = self.retained_breakdown().iter().map(|(_, b)| b).sum();
        self.stats.retained_bytes_high_water = self.stats.retained_bytes_high_water.max(total);
        let budget = self.cfg.budget;
        if budget.is_unlimited() || total <= budget.soft_bytes {
            return Ok(());
        }
        self.soft_gc();
        let breakdown = self.retained_breakdown();
        let total: u64 = breakdown.iter().map(|(_, b)| b).sum();
        if total > budget.hard_bytes {
            let (kind, _) = breakdown
                .iter()
                .max_by_key(|(_, b)| *b)
                .copied()
                .expect("breakdown is non-empty");
            return Err(crate::error::DsmError::ResourceExhausted {
                node: self.proc.0,
                kind,
                bytes: total,
            });
        }
        Ok(())
    }

    /// One soft-budget GC pass.
    ///
    /// Barrier-boundary GC already reclaims every remote record at each
    /// release (§6.3), so between barriers the only droppable consistency
    /// state is remote records/bitmaps at or below the barrier floor —
    /// knowledge every peer already holds (normally none; non-empty after
    /// a restore).  The substantive lever is the checkpoint store: evict
    /// down to the newest complete cut.  Own records and bitmaps are never
    /// dropped here — they are unsent or awaiting the master's bitmap
    /// request.
    fn soft_gc(&mut self) {
        self.stats.soft_gcs += 1;
        let me = self.proc;
        let floor = self.barrier_floor.clone();
        self.log
            .retain(|id, _| id.proc == me || id.index > floor.get(id.proc));
        self.bitmaps
            .retain(|(id, _)| id.proc == me || id.index > floor.get(id.proc));
        if let Some(store) = &self.ckpt {
            store.evict_under_pressure();
        }
    }

    /// Opens the next interval with a fresh stamp snapshot.
    pub fn open_interval(&mut self) {
        let index = self.vc.get(self.proc) + 1;
        let mut stamp_vc = self.vc.clone();
        stamp_vc.set(self.proc, index);
        self.cur.index = index;
        self.cur.stamp_vc = stamp_vc;
        debug_assert!(
            self.cur.touched.is_empty(),
            "interval opened over live slots"
        );
    }

    fn flush_diffs(
        &mut self,
        sender: &NetSender,
        id: IntervalId,
        dirty: &[PageId],
    ) -> Result<(), crate::error::DsmError> {
        let c = self.cfg.costs;
        let mut by_home: HashMap<ProcId, Vec<Diff>> = HashMap::new();
        for &page in dirty {
            let frame = self
                .pages
                .frame_mut(page)
                .expect("dirty page must be resident");
            let twin = frame.twin.take().expect("dirty page must have a twin");
            let diff = Diff::make(page, &twin, &frame.data);
            self.stats.diffs_made += 1;
            self.stats.diff_words += diff.len() as u64;
            self.clock
                .add(OverheadCat::Base, diff.len() as u64 * c.diff_per_word);
            // Diff-derived write detection (§6.5): the write bitmap is the
            // set of words whose value changed; same-value overwrites are
            // invisible, the documented weaker guarantee.
            if self.cfg.detect.enabled && self.cfg.detect.write_detection == WriteDetection::Diffs {
                let bm = self.cur.bitmap_mut(page, self.cfg.geometry.page_words);
                for w in diff.words() {
                    bm.write.set(w);
                }
            }
            let home = self.home_of(page);
            if home == self.proc {
                // Our frame is the master copy: the writes are already in
                // place; just advance the applied watermark.
                let entry = self.mw_home.entry(page).or_default();
                entry.applied.insert(self.proc, id.index);
            } else {
                by_home.entry(home).or_default().push(diff);
            }
        }
        for (home, diffs) in by_home {
            let msg = Msg::DiffFlush {
                writer: self.proc,
                interval: id.index,
                diffs,
            };
            self.send_msg(sender, home, &msg)?;
        }
        // Home-local watermark changes may unblock queued fetches.
        self.service_mw_waiters(sender)
    }

    /// Applies received interval records: logs them, invalidates pages named
    /// by write notices, and merges the sender's clock.
    pub fn apply_records(&mut self, records: Vec<Arc<Interval>>, sender_vc: &VClock) {
        for rec in records {
            let id = rec.id();
            if id.proc == self.proc || id.index <= self.vc.get(id.proc) {
                continue; // Already known.
            }
            for &page in &rec.write_notices {
                // Single-writer: if we currently hold the page writable we
                // are its owner, and ownership transfers carry the full
                // page contents — the noticed write already reached us
                // through the transfer chain (writers stop writing before
                // transferring away).  Invalidating here would discard the
                // authoritative copy and deadlock the refetch on ourselves.
                let keep = self.cfg.protocol == Protocol::SingleWriter
                    && self.pages.protection(page).writable();
                if !keep {
                    self.pages.invalidate(page);
                }
                if self.cfg.protocol == Protocol::MultiWriter {
                    let seen = self.mw_seen.entry(page).or_default();
                    match seen.iter_mut().find(|(p, _)| *p == id.proc) {
                        Some((_, idx)) => *idx = (*idx).max(id.index),
                        None => seen.push((id.proc, id.index)),
                    }
                }
            }
            self.stats.records_applied += 1;
            self.log.insert(id, rec);
        }
        self.note_high_water();
        // The clock update: everything the sender had closed, we have now
        // (transitively) seen.
        self.vc.merge(sender_vc);
    }

    /// Records above `requester_vc` but within `upper` — the consistency
    /// information a lock grant carries: what the releaser knew *at the
    /// release*, minus what the requester already has.
    pub fn records_between(&self, requester_vc: &VClock, upper: &VClock) -> Vec<Arc<Interval>> {
        self.log
            .values()
            .filter(|rec| {
                let p = rec.id().proc;
                rec.id().index > requester_vc.get(p) && rec.id().index <= upper.get(p)
            })
            .cloned()
            .collect()
    }

    /// Tracks `k` consecutive shared accesses starting at `addr` — word
    /// `word` of `page`, all inside that page — in the detection structures:
    /// the analysis calls and their cycles, the notices, the per-page bitmap
    /// bits, and the §6.1 watchpoint.  Everything is counted per word; only
    /// the bookkeeping is done once.
    #[inline]
    pub fn track_run(
        &mut self,
        addr: GAddr,
        page: PageId,
        word: usize,
        k: usize,
        write: bool,
        site: u32,
    ) {
        if !self.tracking() {
            return;
        }
        let detect = &self.cfg.detect;
        let instrument_stores = detect.write_detection == WriteDetection::Instrumentation;
        if write && !instrument_stores {
            // §6.5: stores are not instrumented; writes surface via diffs.
        } else {
            let c = &self.cfg.costs;
            let calls = k as u64;
            self.clock.add(OverheadCat::ProcCall, calls * c.proc_call);
            self.clock
                .add(OverheadCat::AccessCheck, calls * c.access_check);
            debug_assert!(addr.is_shared());
            self.analysis.count_shared(calls);
            if detect.instrumentation_only && !self.cfg.trace {
                // Instrumented binary on unmodified CVM: the analysis call
                // happens, but there is nowhere to record the bit.
                return;
            }
            let bm = self.cur.bitmap_mut(page, self.cfg.geometry.page_words);
            if write {
                // Notice-list upkeep: the dirty mark is maintained by the
                // protocol itself.
                bm.write.set_range(word, k);
            } else {
                bm.read.set_range(word, k);
                self.cur.note_read(page);
            }
        }
        if let Some(watch) = detect.watch {
            // Word addresses are aligned, so the watched one is among them
            // iff it sits a whole number of words into the run.
            let into = watch.addr.0.wrapping_sub(addr.0);
            if into < k as u64 * WORD_BYTES && into % WORD_BYTES == 0 && watch.epoch == self.epoch {
                self.watch_hits.push(WatchHit {
                    proc: self.proc,
                    site,
                    write,
                    interval: self.cur.index,
                });
            }
        }
    }

    /// Services deferred multi-writer fetches whose needed diffs arrived.
    ///
    /// # Errors
    ///
    /// [`DsmError::Protocol`](crate::error::DsmError::Protocol) if a
    /// waiter-bearing entry vanished mid-scan; send failures propagate.
    pub fn service_mw_waiters(&mut self, sender: &NetSender) -> Result<(), crate::error::DsmError> {
        let pages: Vec<PageId> = self
            .mw_home
            .iter()
            .filter(|(_, h)| !h.waiting.is_empty() || h.local_waiter.is_some())
            .map(|(&p, _)| p)
            .collect();
        for page in pages {
            let satisfied = |applied: &HashMap<ProcId, u32>, needed: &[(ProcId, u32)]| {
                needed
                    .iter()
                    .all(|(p, idx)| applied.get(p).copied().unwrap_or(0) >= *idx)
            };
            // One lookup serves both the remote fetchers and the local
            // waiter; a missing entry is a protocol error, not a panic.
            let (ready, local) = {
                let Some(h) = self.mw_home.get_mut(&page) else {
                    return Err(crate::error::DsmError::Protocol {
                        context: "mw_home entry vanished while servicing waiters",
                    });
                };
                let mut ready = Vec::new();
                h.waiting.retain(|(req, needed)| {
                    if satisfied(&h.applied, needed) {
                        ready.push(*req);
                        false
                    } else {
                        true
                    }
                });
                let local = match &h.local_waiter {
                    Some((_, needed)) if satisfied(&h.applied, needed) => {
                        h.local_waiter.take().map(|(tx, _)| tx)
                    }
                    _ => None,
                };
                (ready, local)
            };
            for req in ready {
                self.reply_mw_fetch(sender, page, req)?;
            }
            // Local waiter (the home's own application thread).
            if let Some(tx) = local {
                // Re-validate the master copy for local use.
                if self.pages.frame(page).is_none() {
                    self.pages.install_zeroed(page, Protection::Read);
                } else {
                    self.pages.protect(page, Protection::Read);
                }
                let _ = tx.send(());
            }
        }
        Ok(())
    }

    /// Sends the master copy of `page` to `req` (multi-writer fetch reply).
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn reply_mw_fetch(
        &mut self,
        sender: &NetSender,
        page: PageId,
        req: ProcId,
    ) -> Result<(), crate::error::DsmError> {
        if self.pages.frame(page).is_none() {
            self.pages.install_zeroed(page, Protection::Read);
        }
        let data = self.pages.frame(page).expect("just ensured").data.to_vec();
        let words = data.len() as u64;
        self.clock
            .add(OverheadCat::Base, words * self.cfg.costs.copy_per_word);
        self.stats.pages_sent += 1;
        self.send_msg(sender, req, &Msg::PageFetchReply { page, data })
    }
}

fn msg_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::LockReq { .. } => "LockReq",
        Msg::LockFwd { .. } => "LockFwd",
        Msg::LockGrant { .. } => "LockGrant",
        Msg::PageReadReq { .. } => "PageReadReq",
        Msg::PageReadFwd { .. } => "PageReadFwd",
        Msg::PageReadReply { .. } => "PageReadReply",
        Msg::PageOwnReq { .. } => "PageOwnReq",
        Msg::PageOwnFwd { .. } => "PageOwnFwd",
        Msg::PageOwnReply { .. } => "PageOwnReply",
        Msg::PageFetchReq { .. } => "PageFetchReq",
        Msg::PageFetchReply { .. } => "PageFetchReply",
        Msg::DiffFlush { .. } => "DiffFlush",
        Msg::BarrierArrive { .. } => "BarrierArrive",
        Msg::BitmapReq { .. } => "BitmapReq",
        Msg::BitmapReply { .. } => "BitmapReply",
        Msg::BarrierRelease { .. } => "BarrierRelease",
        Msg::CkptAck { .. } => "CkptAck",
        Msg::CkptGo { .. } => "CkptGo",
        Msg::MasterHandoff { .. } => "MasterHandoff",
        Msg::MasterHandoffAck { .. } => "MasterHandoffAck",
        Msg::Shutdown => "Shutdown",
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use cvm_net::{NetConfig, Network};

    fn core_pair() -> (NodeCore, NetSender) {
        let cfg = DsmConfig::new(2);
        let (eps, _) = Network::new(2, NetConfig::default());
        (NodeCore::new(cfg, ProcId(0)), eps[0].sender())
    }

    #[test]
    fn initial_interval_is_one_with_self_stamp() {
        let (core, _) = core_pair();
        assert_eq!(core.cur.index, 1);
        assert_eq!(core.cur.stamp_vc.get(ProcId(0)), 1);
        assert_eq!(core.vc.get(ProcId(0)), 0);
    }

    #[test]
    fn close_and_open_advance_indices() {
        let (mut core, tx) = core_pair();
        core.cur.note_dirty(PageId(3));
        core.close_interval(&tx).unwrap();
        assert_eq!(core.vc.get(ProcId(0)), 1);
        assert_eq!(core.stats.intervals, 1);
        let rec = core.log.get(&IntervalId::new(ProcId(0), 1)).unwrap();
        assert_eq!(rec.write_notices, vec![PageId(3)]);
        core.open_interval();
        assert_eq!(core.cur.index, 2);
        assert_eq!(core.cur.stamp_vc.get(ProcId(0)), 2);
        assert!(core.cur.dirty_pages().is_empty());
    }

    #[test]
    fn apply_records_invalidates_and_merges() {
        let (mut core, _) = core_pair();
        core.pages.install_zeroed(PageId(7), Protection::Read);
        let rec = cvm_race::make_interval(1, 1, vec![0, 1], &[7], &[]);
        let sender_vc = VClock::from(vec![0, 1]);
        core.apply_records(vec![Arc::new(rec)], &sender_vc);
        assert_eq!(core.pages.protection(PageId(7)), Protection::Invalid);
        assert_eq!(core.vc.get(ProcId(1)), 1);
        assert_eq!(core.stats.records_applied, 1);
        // Re-applying is a no-op.
        let rec2 = cvm_race::make_interval(1, 1, vec![0, 1], &[7], &[]);
        core.apply_records(vec![Arc::new(rec2)], &sender_vc);
        assert_eq!(core.stats.records_applied, 1);
    }

    #[test]
    fn records_between_filters_by_both_clocks() {
        let (mut core, tx) = core_pair();
        core.cur.note_dirty(PageId(0));
        core.close_interval(&tx).unwrap();
        core.open_interval();
        core.cur.note_dirty(PageId(1));
        core.close_interval(&tx).unwrap();
        core.open_interval();
        // Requester has seen interval 1 of P0 but not 2; the release knew
        // both.
        let missing = core.records_between(&VClock::from(vec![1, 0]), &VClock::from(vec![2, 0]));
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].id().index, 2);
        // A release older than the requester's knowledge ships nothing.
        assert!(core
            .records_between(&VClock::from(vec![2, 0]), &VClock::from(vec![1, 0]))
            .is_empty());
        // A fully caught-up requester gets nothing either.
        assert!(core
            .records_between(&VClock::from(vec![2, 0]), &VClock::from(vec![2, 0]))
            .is_empty());
    }

    #[test]
    fn home_and_manager_distribution() {
        let (mut core, _) = core_pair();
        assert_eq!(core.home_of(PageId(0)), ProcId(0));
        assert_eq!(core.home_of(PageId(1)), ProcId(1));
        assert_eq!(core.home_of(PageId(2)), ProcId(0));
        assert_eq!(core.manager_of(5), ProcId(1));
        assert_eq!(core.owner_of(PageId(0)), ProcId(0));
    }

    #[test]
    fn track_access_sets_bitmaps_and_notices() {
        let (mut core, _) = core_pair();
        let g = core.cfg.geometry;
        let addr = g.addr_of(PageId(2), 5);
        core.track_run(addr, PageId(2), 5, 1, false, 0);
        assert_eq!(core.cur.read_pages(), vec![PageId(2)]);
        assert!(core.cur.bitmap_mut(PageId(2), g.page_words).read.get(5));
        core.track_run(addr, PageId(2), 5, 1, true, 0);
        assert!(core.cur.bitmap_mut(PageId(2), g.page_words).write.get(5));
        assert_eq!(core.analysis.total_calls(), 2);
    }

    #[test]
    fn track_access_disabled_when_detection_off() {
        let mut cfg = DsmConfig::new(2);
        cfg.detect = crate::config::DetectConfig::off();
        let mut core = NodeCore::new(cfg, ProcId(0));
        let g = core.cfg.geometry;
        core.track_run(g.addr_of(PageId(0), 0), PageId(0), 0, 1, false, 0);
        assert!(core.cur.bitmaps.is_empty());
        assert_eq!(core.analysis.total_calls(), 0);
        assert_eq!(core.clock.now(), 0);
    }

    #[test]
    fn hard_budget_exhaustion_surfaces_resource_error() {
        let mut cfg = DsmConfig::new(2);
        cfg.budget = crate::config::MemBudget::exact(1);
        let (eps, _) = Network::new(2, NetConfig::default());
        let mut core = NodeCore::new(cfg, ProcId(0));
        core.cur.note_dirty(PageId(3));
        let err = core.close_interval(&eps[0].sender()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::DsmError::ResourceExhausted { node: 0, .. }
        ));
        // The soft pass ran (and found nothing droppable) before failing.
        assert_eq!(core.stats.soft_gcs, 1);
        // Own record survives: it is unsent consistency information.
        assert!(core.log.contains_key(&IntervalId::new(ProcId(0), 1)));
    }

    #[test]
    fn soft_gc_drops_only_remote_state_below_floor() {
        let mut cfg = DsmConfig::new(2);
        cfg.budget = crate::config::MemBudget {
            soft_bytes: 1,
            hard_bytes: u64::MAX,
        };
        let (eps, _) = Network::new(2, NetConfig::default());
        let mut core = NodeCore::new(cfg, ProcId(0));
        // A remote record below the floor (as after a restore) and one
        // above it.
        let old = cvm_race::make_interval(1, 2, vec![0, 2], &[7], &[]);
        let new = cvm_race::make_interval(1, 9, vec![0, 9], &[8], &[]);
        core.apply_records(
            vec![Arc::new(old), Arc::new(new)],
            &VClock::from(vec![0, 9]),
        );
        core.barrier_floor = VClock::from(vec![0, 5]);
        core.cur.note_dirty(PageId(0));
        core.close_interval(&eps[0].sender()).unwrap();
        assert_eq!(core.stats.soft_gcs, 1);
        assert!(!core.log.contains_key(&IntervalId::new(ProcId(1), 2)));
        assert!(core.log.contains_key(&IntervalId::new(ProcId(1), 9)));
        assert!(core.log.contains_key(&IntervalId::new(ProcId(0), 1)));
        assert!(core.stats.retained_bytes_high_water > 0);
    }

    #[test]
    fn unlimited_budget_takes_no_action() {
        let (mut core, tx) = core_pair();
        core.cur.note_dirty(PageId(1));
        core.close_interval(&tx).unwrap();
        assert_eq!(core.stats.soft_gcs, 0);
        assert!(core.stats.retained_bytes_high_water > 0);
    }

    #[test]
    fn watch_records_hits_in_matching_epoch() {
        let mut cfg = DsmConfig::new(2);
        let g = cfg.geometry;
        let addr = g.addr_of(PageId(0), 3);
        cfg.detect.watch = Some(crate::config::Watch { addr, epoch: 0 });
        let mut core = NodeCore::new(cfg, ProcId(0));
        core.track_run(addr, PageId(0), 3, 1, true, 42);
        core.epoch = 1;
        core.track_run(addr, PageId(0), 3, 1, true, 43);
        assert_eq!(core.watch_hits.len(), 1);
        assert_eq!(core.watch_hits[0].site, 42);
        assert!(core.watch_hits[0].write);
    }

    /// What the access path must have recorded, kept in ordered sets: the
    /// containers `OpenInterval` used to be made of.
    #[derive(Default)]
    struct Model {
        dirty: BTreeSet<PageId>,
        read: BTreeSet<PageId>,
        /// Per page: (read words, write words).
        bits: BTreeMap<PageId, (BTreeSet<usize>, BTreeSet<usize>)>,
        mem: BTreeMap<(PageId, usize), u64>,
        /// `mem` as it stood when the open interval began (the twins).
        mem_at_open: BTreeMap<(PageId, usize), u64>,
        faulted: BTreeSet<PageId>,
        reads: u64,
        writes: u64,
        calls: u64,
        cats: [u64; crate::simtime::NCATS],
    }

    impl Model {
        fn charge(&mut self, cat: OverheadCat, cycles: u64) {
            self.cats[cat as usize] += cycles;
        }

        fn bitmaps(&self, page_words: usize) -> Vec<(PageId, PageBitmaps)> {
            self.bits
                .iter()
                .map(|(page, (r, w))| {
                    let mut bm = PageBitmaps::new(page_words);
                    r.iter().for_each(|&i| bm.read.set(i));
                    w.iter().for_each(|&i| bm.write.set(i));
                    (*page, bm)
                })
                .collect()
        }
    }

    proptest::proptest! {
        /// Drives `shared_access` and `shared_run` → `close_interval` →
        /// `open_interval` on a one-node cluster (every page homed locally)
        /// and compares everything the path leaves behind with the model:
        /// returned values, notices, stored bitmaps, trace events, counters
        /// and every cycle category.  The model knows no runs: it takes each
        /// op one word at a time.
        #[test]
        fn access_path_matches_set_model(
            multi_writer in proptest::prelude::any::<bool>(),
            diffs in proptest::prelude::any::<bool>(),
            mode in 0u8..3,
            trace in proptest::prelude::any::<bool>(),
            near_wrap in proptest::prelude::any::<bool>(),
            intervals in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::prelude::any::<bool>(), 0usize..6, 0usize..8, 0u64..3, 0usize..10),
                    0..40,
                ),
                2..4,
            ),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            use crate::pages::{shared_access, shared_run, Words};
            // Neighbours included, so a run that leaves its page lands on
            // one that is resident, or not yet.
            const PAGES: [u32; 6] = [0, 1, 4, 10, 64, 300];
            const WORDS: [usize; 8] = [0, 1, 63, 64, 65, 200, 510, 511];
            // `None` is a word access; the longest run is two pages and a
            // word, so from word 511 it crosses two page boundaries.
            const RUNS: [Option<usize>; 10] = [
                None, None, None, None, None,
                Some(0), Some(1), Some(7), Some(513), Some(1025),
            ];

            let mut cfg = DsmConfig::new(1);
            cfg.protocol = if multi_writer { Protocol::MultiWriter } else { Protocol::SingleWriter };
            cfg.detect = match mode {
                0 => crate::config::DetectConfig::off(),
                1 => crate::config::DetectConfig::instrumentation_only(),
                _ => crate::config::DetectConfig::on(),
            };
            if multi_writer && diffs {
                cfg.detect.write_detection = WriteDetection::Diffs;
            }
            cfg.trace = trace;
            let c = cfg.costs;
            let g = cfg.geometry;
            let detect = cfg.detect;
            let stores_hidden = detect.write_detection == WriteDetection::Diffs;
            let detecting = detect.enabled && !detect.instrumentation_only;

            let (eps, _) = Network::new(1, NetConfig::default());
            let node = crate::pages::Node {
                state: parking_lot::Mutex::new(NodeCore::new(cfg, ProcId(0))),
                sender: eps[0].sender(),
                ctl: Arc::new(crate::fault::ClusterCtl::new()),
            };
            let mut intervals = intervals;
            while near_wrap && intervals.len() < 4 {
                intervals.push(intervals[0].clone());
            }

            let mut m = Model::default();
            for (k, ops) in intervals.iter().enumerate() {
                for &(write, page, word, value, run) in ops {
                    let addr = g.addr_of(PageId(PAGES[page]), WORDS[word]);
                    let value_at = |i: usize| (value + i as u64) % 3;
                    let got = match RUNS[run] {
                        None => vec![shared_access(&node, addr, write, value, 0)],
                        Some(n) => {
                            let mut buf: Vec<u64> = (0..n).map(value_at).collect();
                            let words =
                                if write { Words::Write(&buf) } else { Words::Read(&mut buf) };
                            shared_run(&node, addr, words);
                            buf
                        }
                    };

                    for (i, got) in got.into_iter().enumerate() {
                        let (page, word) = g.locate(addr.word(i as u64));
                        let value = value_at(i);
                        m.charge(OverheadCat::Base, c.access);
                        if (detect.enabled || trace) && !(write && stores_hidden) {
                            m.charge(OverheadCat::ProcCall, c.proc_call);
                            m.charge(OverheadCat::AccessCheck, c.access_check);
                            m.calls += 1;
                            if !detect.instrumentation_only || trace {
                                let (r, w) = m.bits.entry(page).or_default();
                                if write {
                                    w.insert(word);
                                } else {
                                    r.insert(word);
                                    m.read.insert(page);
                                }
                            }
                        }
                        if m.faulted.insert(page) {
                            m.charge(OverheadCat::Base, c.fault);
                        }
                        if write {
                            m.dirty.insert(page);
                            m.writes += 1;
                            m.mem.insert((page, word), value);
                            prop_assert_eq!(got, value);
                        } else {
                            m.reads += 1;
                            prop_assert_eq!(got, m.mem.get(&(page, word)).copied().unwrap_or(0));
                        }
                    }
                }

                let mut st = node.state.lock();
                let id = IntervalId::new(ProcId(0), st.cur.index);
                let traced_before = st.trace.len();
                st.close_interval(&node.sender).unwrap();

                m.charge(OverheadCat::Base, c.interval_setup);
                if detecting {
                    m.charge(OverheadCat::CvmMods, c.interval_detect_extra);
                }
                if multi_writer {
                    for &page in &m.dirty {
                        let at = |mem: &BTreeMap<(PageId, usize), u64>, w| {
                            mem.get(&(page, w)).copied().unwrap_or(0)
                        };
                        let changed: Vec<usize> = (0..g.page_words)
                            .filter(|&w| at(&m.mem, w) != at(&m.mem_at_open, w))
                            .collect();
                        m.cats[OverheadCat::Base as usize] += changed.len() as u64 * c.diff_per_word;
                        if detect.enabled && stores_hidden {
                            m.bits.entry(page).or_default().1.extend(changed);
                        }
                    }
                }

                let rec = st.log.get(&id).expect("closed interval is logged");
                prop_assert_eq!(&rec.write_notices, &m.dirty.iter().copied().collect::<Vec<_>>());
                let reads: Vec<PageId> =
                    if detecting { m.read.iter().copied().collect() } else { Vec::new() };
                prop_assert_eq!(&rec.read_notices, &reads);

                let expect = m.bitmaps(g.page_words);
                let mut stored: Vec<(PageId, PageBitmaps)> = st
                    .bitmaps
                    .iter()
                    .filter(|((i, _), _)| *i == id)
                    .map(|((_, page), bm)| (*page, bm.clone()))
                    .collect();
                stored.sort_unstable_by_key(|(page, _)| *page);
                prop_assert_eq!(&stored, if detecting { &expect[..] } else { &[][..] }, "interval {}", k);
                if trace && !expect.is_empty() {
                    prop_assert_eq!(st.trace.len(), traced_before + 1);
                    prop_assert_eq!(
                        st.trace.last(),
                        Some(&cvm_race::trace::TraceEvent::Computation { pages: expect })
                    );
                } else {
                    prop_assert_eq!(st.trace.len(), traced_before);
                }

                prop_assert_eq!(st.stats.shared_reads, m.reads);
                prop_assert_eq!(st.stats.shared_writes, m.writes);
                prop_assert_eq!(st.stats.read_faults + st.stats.write_faults, m.faulted.len() as u64);
                prop_assert_eq!(st.analysis.shared_calls(), m.calls);
                prop_assert_eq!(st.analysis.private_calls(), 0);
                prop_assert_eq!(st.clock.cats(), m.cats);

                // The next interval starts with nothing carried over.
                prop_assert!(st.cur.touched.is_empty() && st.cur.bitmaps.is_empty());
                // ... on the drawn pages and on those runs spilled into.
                for page in PAGES.iter().map(|&p| PageId(p)).chain(m.faulted.iter().copied()) {
                    prop_assert!(!st.cur.is_dirty(page));
                }
                if near_wrap && k == 0 {
                    // The next three closes cross the wrap — MAX, 1, 2 — so
                    // the fourth interval reuses the first one's stamp.
                    st.cur.stamp = u32::MAX - 1;
                }
                st.open_interval();
                m.dirty.clear();
                m.read.clear();
                m.bits.clear();
                m.mem_at_open = m.mem.clone();
            }
        }
    }
}
