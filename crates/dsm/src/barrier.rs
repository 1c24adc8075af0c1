//! The central barrier, where detection happens.
//!
//! Arrival messages carry each worker's interval records since the last
//! barrier, so the master has "complete and current information on all
//! intervals in the entire system" (paper §4, step 2).  One detection epoch
//! then runs over them:
//!
//! 1. enumerate concurrent interval pairs (constant-time vector checks),
//! 2. build the check list from page-notice overlaps,
//! 3. run the *extra message round* retrieving word bitmaps (mod iii,
//!    [`start_round`] and [`on_bitmap_reply`]),
//! 4. compare bitmaps, separating false sharing from true races
//!    ([`Inflight::compare`], [`complete`]),
//! 5. piggyback race reports and missing consistency records on the
//!    release messages.
//!
//! The epoch has two schedules.  The synchronous master (the paper's) runs
//! it inline on its service thread and releases after step 5.  The
//! pipelined master ([`crate::pipeline`]) releases first and runs the same
//! steps on a stage thread, delivering the reports one release later.
//!
//! The barrier implementation creates two interval structures per barrier
//! (as the paper notes of CVM's): arrival closes the epoch's working
//! interval, and the release receipt closes the (empty) interval opened at
//! arrival — which is why barrier-only applications show two intervals per
//! barrier in Table 1.

use std::collections::HashMap;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver};
use cvm_page::PageId;
use cvm_race::{
    filter_first_races, BitmapStore, DetectionPlan, EpochArena, EpochDetector, Interval, RaceReport,
};
use cvm_vclock::{IntervalId, ProcId, VClock};

use crate::error::DsmError;
use crate::fault;
use crate::msg::Msg;
use crate::node::NodeCore;
use crate::pages::Node;
use crate::simtime::OverheadCat;

/// Master-side barrier state machine.  Lives on whichever node currently
/// holds the master seat (`NodeCore::master`): proc 0 on a fresh start, the
/// lowest-numbered survivor after a failover.
#[derive(Debug)]
pub(crate) struct BarrierMaster {
    nprocs: usize,
    /// `(worker, clock-at-arrival)` of the barrier being collected.  A
    /// synchronous master keeps the full vector through its bitmap round,
    /// until the release goes out.
    arrived: Vec<(ProcId, VClock)>,
    /// All interval records of the barrier being collected (shared with
    /// senders' logs).
    records: Vec<Arc<Interval>>,
    /// The epoch whose bitmap round is outstanding, if any.
    round: Option<Inflight>,
    /// Reports of completed epochs not yet delivered, in epoch order.
    /// Always empty on a synchronous master, which delivers on the release.
    pub(crate) deferred: Vec<RaceReport>,
    /// Planning and comparison scratch, kept across epochs so steady-state
    /// detection does no mid-epoch heap allocation (the pipelined stage
    /// thread owns its own).
    arena: EpochArena,
    /// Present when detection runs pipelined (see [`crate::pipeline`]):
    /// the barrier releases on settlement and detection is deferred to the
    /// stage thread this state feeds.
    pub(crate) pipe: Option<crate::pipeline::PipelineState>,
}

impl BarrierMaster {
    pub(crate) fn new(nprocs: usize) -> Self {
        BarrierMaster {
            nprocs,
            arrived: Vec::new(),
            records: Vec::new(),
            round: None,
            deferred: Vec::new(),
            arena: EpochArena::new(),
            pipe: None,
        }
    }
}

/// One detection epoch from its plan to its completion: the check list,
/// the bitmaps retrieved so far, and how many replies are outstanding.
#[derive(Debug)]
pub(crate) struct Inflight {
    epoch: u64,
    records: Vec<Arc<Interval>>,
    plan: DetectionPlan,
    store: BitmapStore,
    pending: usize,
}

impl Inflight {
    /// Step 4's word-level comparison.  A check-listed bitmap the round did
    /// not retrieve (a malformed reply) is a protocol error.
    pub(crate) fn compare(
        &mut self,
        detector: &EpochDetector,
        geometry: cvm_page::Geometry,
        arena: &mut EpochArena,
    ) -> Result<Vec<RaceReport>, DsmError> {
        detector
            .compare_with(&mut self.plan, &self.store, geometry, self.epoch, arena)
            .map_err(|_| DsmError::Protocol {
                context: "check-listed bitmap missing at compare",
            })
    }
}

/// Application-thread `barrier()`.
pub(crate) fn app_barrier(node: &Node, consolidation: bool) {
    fault::halt_if_stopped(&node.ctl);
    let mut st = node.state.lock();
    if consolidation {
        st.stats.consolidations += 1;
    } else {
        st.stats.barriers += 1;
    }
    let me = st.proc;
    let master = st.master;
    let deadline = st.cfg.op_deadline;
    let r = st.phase_strike(cvm_net::ProtocolPhase::BarrierCollect);
    fault::check(node, me, r);
    // Arrival is a release: close the working interval.
    let r = st.close_interval(&node.sender);
    fault::check(node, me, r);
    if st.cfg.trace {
        let epoch = st.epoch;
        st.trace
            .push(cvm_race::trace::TraceEvent::BarrierArrive { epoch });
    }
    let records = take_unsent(&mut st);
    // Open the between-arrival-and-release interval (closed, empty, at
    // release receipt).
    st.open_interval();
    let (tx, rx) = bounded(1);
    assert!(st.barrier_wait.is_none(), "nested barrier()");
    st.barrier_wait = Some(tx);
    let vc = st.vc.clone();
    let r = if me == master {
        on_arrive(&mut st, node, me, vc, records)
    } else {
        let msg = Msg::BarrierArrive {
            from: me,
            vc,
            records,
        };
        st.send_msg(&node.sender, master, &msg)
    };
    fault::check(node, me, r);
    drop(st);
    await_release(node, &rx, deadline, me, master);
}

/// Blocks an arrived application thread until the release, the cluster
/// failure cell, or the deadline.  The master waits the base deadline and,
/// on expiry, inspects its own collection state to name the process that
/// never arrived; workers wait half again as long so the master — the only
/// node that can identify the missing peer — classifies the failure first.
fn await_release(node: &Node, rx: &Receiver<()>, wait: Duration, me: ProcId, master: ProcId) {
    let wait = if me == master { wait } else { wait + wait / 2 };
    let limit = Instant::now() + wait;
    loop {
        match rx.recv_timeout(fault::APP_POLL) {
            Ok(()) => return,
            Err(RecvTimeoutError::Timeout) => {
                if node.ctl.failed() {
                    fault::unwind();
                }
                if Instant::now() >= limit {
                    if me == master {
                        if let Some(missing) = missing_arrival(node) {
                            fault::die(&node.ctl, DsmError::NodeFailed { proc: missing.0 });
                        }
                        fault::die(
                            &node.ctl,
                            DsmError::Timeout {
                                op: "barrier release",
                            },
                        );
                    }
                    // Only the master can release a worker.  It was given
                    // half again the deadline to classify the failure
                    // itself; silence past that means the master is the
                    // one that died, not some anonymous timeout.
                    fault::die(&node.ctl, DsmError::NodeFailed { proc: master.0 });
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                fault::die(&node.ctl, DsmError::NodeFailed { proc: me.0 });
            }
        }
    }
}

/// Master-side diagnosis: the lowest-numbered process that has not arrived
/// at the currently collecting barrier, if any.
fn missing_arrival(node: &Node) -> Option<ProcId> {
    let st = node.state.lock();
    let master = st.barrier.as_ref()?;
    (0..master.nprocs as u16)
        .map(ProcId)
        .find(|p| !master.arrived.iter().any(|(a, _)| a == p))
}

fn take_unsent(st: &mut NodeCore) -> Vec<Arc<Interval>> {
    let ids = std::mem::take(&mut st.unsent_own);
    ids.iter()
        .map(|id| Arc::clone(st.log.get(id).expect("unsent record must be logged")))
        .collect()
}

/// Master: one arrival (from the network or from its own app thread).
pub(crate) fn on_arrive(
    st: &mut NodeCore,
    node: &Node,
    from: ProcId,
    vc: VClock,
    records: Vec<Arc<Interval>>,
) -> Result<(), DsmError> {
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, c.barrier_arrival);
    let Some(master) = st.barrier.as_mut() else {
        return Err(DsmError::Protocol {
            context: "barrier arrival at non-master",
        });
    };
    // A synchronous master holds the full arrival vector until it releases.
    if master.arrived.len() == master.nprocs {
        return Err(DsmError::Protocol {
            context: "barrier arrival during bitmap round",
        });
    }
    master.arrived.push((from, vc));
    master.records.extend(records);
    if master.arrived.len() == master.nprocs {
        run_detection(st, node)?;
    }
    Ok(())
}

/// Every arrival is in: release now (detection off or pipelined), or run
/// the epoch inline and release after it.
fn run_detection(st: &mut NodeCore, node: &Node) -> Result<(), DsmError> {
    let detect = st.cfg.detect;
    let pipelined = st.detection_pipelined();
    let epoch = st.epoch;
    let master = st.barrier.as_mut().expect("master only");
    let mut records = std::mem::take(&mut master.records);
    if !detect.enabled || detect.instrumentation_only {
        let arrived = std::mem::take(&mut master.arrived);
        return do_release(st, node, arrived, records, Vec::new());
    }

    // Canonicalize the epoch's record order: arrivals land in wall-clock
    // order, but pair enumeration orients each reported pair by record
    // position, so detection must see a deterministic order for reports to
    // be reproducible run-to-run (and byte-identical between the
    // synchronous and pipelined masters).
    records.sort_unstable_by_key(|r| r.id());

    if pipelined {
        let arrived = std::mem::take(&mut master.arrived);
        return crate::pipeline::pipelined_epoch(st, node, arrived, records);
    }
    let plan = EpochDetector::from(detect).plan_with(&records, &mut master.arena);
    match start_round(st, node, epoch, records, plan)? {
        Some(inflight) => finish_detection(st, node, inflight),
        None => Ok(()),
    }
}

/// The bitmap round of a planned epoch: charge the pair comparisons, gather
/// the master's own bitmaps and send one `BitmapReq` per owning worker.
/// Returns the epoch when no reply is outstanding; otherwise parks it for
/// [`on_bitmap_reply`].
pub(crate) fn start_round(
    st: &mut NodeCore,
    node: &Node,
    epoch: u64,
    records: Vec<Arc<Interval>>,
    plan: DetectionPlan,
) -> Result<Option<Inflight>, DsmError> {
    st.phase_strike(cvm_net::ProtocolPhase::BitmapRound)?;
    // "Intervals" overhead: the comparison algorithm, serialized at the
    // master (the effect behind Figure 4's scaling).
    let c = st.cfg.costs;
    st.clock.add(
        OverheadCat::Intervals,
        plan.stats.pair_comparisons * c.vv_compare,
    );
    let mut per_proc: HashMap<ProcId, Vec<(IntervalId, PageId)>> = HashMap::new();
    for (id, page) in plan.bitmap_requests() {
        per_proc.entry(id.proc).or_default().push((id, page));
    }
    let mut store = BitmapStore::new();
    // The master's own bitmaps are local (a pipelined master reads them a
    // release late; the lagged GC in `apply_release` keeps them).
    if let Some(own) = per_proc.remove(&st.proc) {
        for (id, page) in own {
            let bm = st
                .bitmaps
                .get(id, page)
                .expect("own bitmap requested but not retained")
                .clone();
            store.insert(id, page, bm);
        }
    }
    let inflight = Inflight {
        epoch,
        records,
        plan,
        store,
        pending: per_proc.len(),
    };
    if inflight.pending == 0 {
        return Ok(Some(inflight));
    }
    st.barrier.as_mut().expect("master only").round = Some(inflight);
    for (p, items) in per_proc {
        st.send_msg(&node.sender, p, &Msg::BitmapReq { items })?;
    }
    Ok(None)
}

/// Master: a bitmap reply from one worker.  The last one completes the
/// round: inline on a synchronous master, on the stage thread when
/// pipelined.
pub(crate) fn on_bitmap_reply(
    st: &mut NodeCore,
    node: &Node,
    items: Vec<(IntervalId, (PageId, cvm_page::PageBitmaps))>,
) -> Result<(), DsmError> {
    let Some(master) = st.barrier.as_mut() else {
        return Err(DsmError::Protocol {
            context: "bitmap reply at non-master",
        });
    };
    let Some(round) = master.round.as_mut() else {
        return Err(DsmError::Protocol {
            context: "bitmap reply outside bitmap round",
        });
    };
    for (id, (page, bm)) in items {
        round.store.insert(id, page, bm);
    }
    round.pending -= 1;
    if round.pending > 0 {
        return Ok(());
    }
    let inflight = master.round.take().expect("checked above");
    if st.detection_pipelined() {
        crate::pipeline::post(st, crate::pipeline::Job::Compare(Box::new(inflight)))
    } else {
        finish_detection(st, node, inflight)
    }
}

/// Synchronous master: compare on the service thread with the master's
/// arena, then release with the epoch's reports.
fn finish_detection(
    st: &mut NodeCore,
    node: &Node,
    mut inflight: Inflight,
) -> Result<(), DsmError> {
    let detector = EpochDetector::from(st.cfg.detect);
    let master = st.barrier.as_mut().expect("master only");
    let reports = inflight.compare(&detector, st.cfg.geometry, &mut master.arena)?;
    let reports = complete(st, &inflight, reports);
    let arrived = std::mem::take(&mut st.barrier.as_mut().expect("master only").arrived);
    do_release(st, node, arrived, inflight.records, reports)
}

/// An epoch's comparison is done: charge it, fold its statistics, and
/// apply the §6.4 first-race filter.  Returns the reports to deliver.
pub(crate) fn complete(
    st: &mut NodeCore,
    inflight: &Inflight,
    reports: Vec<RaceReport>,
) -> Vec<RaceReport> {
    let stats = &inflight.plan.stats;
    let c = st.cfg.costs;
    let blocks = st.cfg.geometry.page_words.div_ceil(64) as u64;
    st.clock.add(
        OverheadCat::Bitmaps,
        stats.bitmap_comparisons * blocks * c.bitmap_block_cmp,
    );
    st.det_stats.add(stats);
    if !st.cfg.detect.first_races_only {
        return reports;
    }
    // All first races live in the earliest racy epoch (§6.4): once the log
    // holds a report, later epochs report nothing.  A pipelined master's
    // log is as complete here: the release that started this epoch
    // delivered every report deferred before it.
    if !st.race_log.is_empty() {
        return Vec::new();
    }
    let stamps: HashMap<IntervalId, cvm_vclock::IntervalStamp> = inflight
        .records
        .iter()
        .map(|r| (r.id(), r.stamp.clone()))
        .collect();
    filter_first_races(&reports, &stamps)
}

/// Sends releases and completes the barrier at the master itself.
pub(crate) fn do_release(
    st: &mut NodeCore,
    node: &Node,
    arrived: Vec<(ProcId, VClock)>,
    records: Vec<Arc<Interval>>,
    races: Vec<cvm_race::RaceReport>,
) -> Result<(), DsmError> {
    // Merged knowledge: every arrival clock joined with the master's.
    let mut merged = st.vc.clone();
    for (_, vc) in &arrived {
        merged.merge(vc);
    }
    let epoch = st.epoch;
    // One shared copy of the epoch's reports; each release clones `Arc`s
    // (records and races both), not the underlying data.
    let races = Arc::new(races);
    for (worker, wvc) in &arrived {
        if *worker == st.proc {
            continue;
        }
        let missing: Vec<Arc<Interval>> = records
            .iter()
            .filter(|r| r.id().index > wvc.get(r.id().proc))
            .cloned()
            .collect();
        let msg = Msg::BarrierRelease {
            vc: merged.clone(),
            records: missing,
            races: Arc::clone(&races),
            epoch,
            term: st.seat_term,
        };
        st.send_msg(&node.sender, *worker, &msg)?;
    }
    // The master releases itself.
    let own_missing: Vec<Arc<Interval>> = records
        .iter()
        .filter(|r| r.id().index > st.vc.get(r.id().proc))
        .cloned()
        .collect();
    apply_release(st, node, own_missing, merged, races, epoch)
}

/// Worker (and master) release application: merge, close the empty
/// arrival interval, open the next epoch's working interval, GC.
pub(crate) fn apply_release(
    st: &mut NodeCore,
    node: &Node,
    records: Vec<Arc<Interval>>,
    vc: VClock,
    races: Arc<Vec<cvm_race::RaceReport>>,
    epoch: u64,
) -> Result<(), DsmError> {
    if epoch != st.epoch {
        return Err(DsmError::Protocol {
            context: "barrier epoch mismatch",
        });
    }
    // Close the empty between interval (second structure per barrier).
    // Note: it has no accesses, so no sender interaction is needed; use a
    // direct close without diff flushing.
    debug_assert!(st.cur.dirty_pages().is_empty());
    let boundary = st.cur.index; // The quiet interval's index.
    close_quiet(st);
    if st.cfg.trace {
        st.trace
            .push(cvm_race::trace::TraceEvent::BarrierResume { epoch });
    }
    st.apply_records(records, &vc);
    // The merged release clock is now every process's knowledge floor:
    // soft-budget GC may drop remote state at or below it.
    st.barrier_floor = vc.clone();
    st.open_interval();
    st.race_log.extend(races.iter().cloned());
    st.epoch += 1;
    // GC (§6.3): everything checked this epoch is ordered with respect to
    // all future intervals; drop the records and bitmaps.  Keep only our
    // just-closed quiet interval (still unshipped).
    let me = st.proc;
    st.log.retain(|id, _| id.proc == me && id.index >= boundary);
    // Pipelined detection reads this epoch's bitmaps *after* the release
    // (the master's own locally, the workers' via a bitmap round that
    // arrives next epoch), so every node lags bitmap GC by one boundary.
    // The depth-1 stall gate guarantees that by the time the next release
    // applies, the in-between epoch's detection has drained.
    let bitmap_floor = if st.detection_pipelined() {
        std::mem::replace(&mut st.prev_gc_boundary, boundary)
    } else {
        boundary
    };
    st.bitmaps
        .retain(|(id, _)| id.proc != me || id.index >= bitmap_floor);
    if st.cfg.checkpointing() {
        // Withhold the app-thread release: the node snapshots (now, or
        // when its multi-writer diffs settle) and acks the master, which
        // broadcasts the commit once every image of this cut is stored.
        // Holding all app threads here keeps next-epoch traffic out of
        // slower nodes' snapshots.
        st.pending_ckpt = Some(st.epoch);
        return crate::checkpoint::maybe_complete(st, node);
    }
    let Some(tx) = st.barrier_wait.take() else {
        return Err(DsmError::Protocol {
            context: "barrier release without a waiting arrival",
        });
    };
    let _ = tx.send(());
    // Re-measure after the release merge: the grant records just applied
    // are the epoch's last retained-state growth.
    st.check_budget()
}

/// Closes the current (empty) interval without network interaction.
fn close_quiet(st: &mut NodeCore) {
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, c.interval_setup);
    if st.cfg.detect.enabled && !st.cfg.detect.instrumentation_only {
        st.clock.add(OverheadCat::CvmMods, c.interval_detect_extra);
    }
    let id = IntervalId::new(st.proc, st.cur.index);
    let stamp = cvm_vclock::IntervalStamp::new(id, st.cur.stamp_vc.clone());
    let record = Interval::new(stamp, Vec::new(), Vec::new());
    st.log.insert(id, Arc::new(record));
    st.unsent_own.push(id);
    st.vc.set(st.proc, st.cur.index);
    st.stats.intervals += 1;
}

/// Worker: answer the master's bitmap request from retained bitmaps.
pub(crate) fn on_bitmap_req(
    st: &mut NodeCore,
    node: &Node,
    items: Vec<(IntervalId, PageId)>,
) -> Result<(), DsmError> {
    st.phase_strike(cvm_net::ProtocolPhase::BitmapRound)?;
    let mut replies: Vec<(IntervalId, (PageId, cvm_page::PageBitmaps))> =
        Vec::with_capacity(items.len());
    for (id, page) in items {
        let Some(bm) = st.bitmaps.get(id, page) else {
            return Err(DsmError::Protocol {
                context: "bitmap requested but absent",
            });
        };
        replies.push((id, (page, bm.clone())));
    }
    let msg = Msg::BitmapReply { items: replies };
    let master = st.master;
    st.send_msg(&node.sender, master, &msg)
}

/// Worker: a failover successor announced its master seat and resume
/// epoch.  A stale-term announcement (an old master re-asserting a seat
/// across a healed partition) is fenced — counted and dropped, never
/// acknowledged.  Otherwise validate the epoch against our own restored
/// resume point, adopt the seat and its term, and acknowledge.
pub(crate) fn on_master_handoff(
    st: &mut NodeCore,
    node: &Node,
    master: ProcId,
    epoch: u64,
    term: u64,
) -> Result<(), DsmError> {
    if st.fence_stale(term) {
        return Ok(());
    }
    if epoch != st.resume_epoch {
        return Err(DsmError::Protocol {
            context: "master handoff epoch disagrees with restored cut",
        });
    }
    st.master = master;
    st.seat_term = term;
    // Adopting a newer seat demotes any master role this node restored
    // from its image: exactly one node drives detection per term.
    if master != st.proc {
        st.barrier = None;
    }
    let msg = Msg::MasterHandoffAck {
        from: st.proc,
        epoch,
    };
    st.send_msg(&node.sender, master, &msg)
}

/// Successor master: one survivor agreed to the new seat.  The cluster
/// loop holds the epoch loop until every survivor has acknowledged.
pub(crate) fn on_master_handoff_ack(st: &mut NodeCore, epoch: u64) -> Result<(), DsmError> {
    if st.barrier.is_none() {
        return Err(DsmError::Protocol {
            context: "handoff ack at non-master",
        });
    }
    if epoch != st.resume_epoch {
        return Err(DsmError::Protocol {
            context: "handoff ack for a different resume epoch",
        });
    }
    st.handoff_acks += 1;
    Ok(())
}
