//! Pipelined detection epochs: overlap comparison with computation.
//!
//! In the synchronous design the barrier master runs all of detection —
//! pair enumeration, the bitmap round, and word-level comparison — between
//! the last arrival and the release, so every node idles at the barrier for
//! the full detection epoch.  With [`DetectConfig::pipelined`] the master
//! instead releases the barrier as soon as epoch *N*'s consistency
//! information has settled (clocks merged, missing records fanned out) and
//! hands the epoch's interval records to a dedicated **stage thread**,
//! which runs the `cvm-race` comparison for epoch *N* while the nodes are
//! already computing epoch *N+1*.
//!
//! ```text
//!            barrier N          barrier N+1         barrier N+2
//! app     ───┤compute N├──────┤compute N+1├───────┤compute N+2├──
//! release     ▲ immediately    ▲ + races(N)        ▲ + races(N+1)
//! stage        └─[plan N]─[bitmap round N]─[compare N]┐
//!                                └─[plan N+1]─ ... ───┘
//! ```
//!
//! **Deferred-delivery ordering rule.**  Epoch *N*'s reports ride the
//! *N+1* release (or, for the final epoch, the run-end flush), so the
//! master's race log is the concatenation of per-epoch report chunks in
//! epoch order — byte-identical content and ordering to the synchronous
//! run, one epoch late.  The pipeline is depth-1: if barrier *N+1*'s last
//! arrival lands while epoch *N* is still being detected, the release
//! *stalls* until the stage drains ([`NodeStats::pipeline_stalls`] counts
//! these).  That bound is what lets every node retain its access bitmaps
//! for exactly one extra epoch (see `apply_release`'s lagged GC) instead
//! of indefinitely.
//!
//! **Checkpoint gating.**  Under [`RecoveryPolicy::Recover`] the commit
//! broadcast for a cut at epoch *N+1* must not outrun epoch *N*'s
//! detection, or the images would lack its races and a recovery would
//! silently drop them.  When every ack is in but the stage is still busy,
//! the master parks the cut in `ckpt_gate`; when detection drains, the
//! deferred reports are drained into the [`Msg::CkptGo`] broadcast itself,
//! so every image carries exactly the race log a synchronous run would
//! have at that cut.
//!
//! [`DetectConfig::pipelined`]: crate::DetectConfig::pipelined
//! [`NodeStats::pipeline_stalls`]: crate::NodeStats::pipeline_stalls
//! [`RecoveryPolicy::Recover`]: crate::RecoveryPolicy::Recover
//! [`Msg::CkptGo`]: crate::msg::Msg::CkptGo

use std::collections::HashMap;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use cvm_page::{Geometry, PageBitmaps, PageId};
use cvm_race::{
    filter_first_races, BitmapStore, DetectionPlan, EpochArena, EpochDetector, Interval, RaceReport,
};
use cvm_vclock::{IntervalId, ProcId, VClock};

use crate::config::DetectConfig;
use crate::error::DsmError;
use crate::fault::{name_own_death, SERVICE_POLL};
use crate::msg::Msg;
use crate::node::NodeCore;
use crate::pages::Node;
use crate::simtime::OverheadCat;

/// Work orders handed from the master's service/arrival path to the stage
/// thread.
pub(crate) enum Job {
    /// A settled epoch: plan (unlocked), then start the bitmap round.
    Detect {
        /// The epoch the records belong to (captured before the release
        /// advanced `NodeCore::epoch`).
        epoch: u64,
        /// Every interval record of the epoch (shared with senders' logs).
        records: Vec<Arc<Interval>>,
    },
    /// Every bitmap reply is in: run the word-level comparison.
    Compare(Box<Inflight>),
}

/// An epoch whose plan is built and whose bitmap round is in flight.
pub(crate) struct Inflight {
    epoch: u64,
    records: Vec<Arc<Interval>>,
    plan: DetectionPlan,
    store: BitmapStore,
    pending_replies: usize,
}

/// A settled barrier held back by the depth-1 stage: the arrival vector
/// and the epoch's records, replayed the moment the stage drains.
type StalledBarrier = (Vec<(ProcId, VClock)>, Vec<Arc<Interval>>);

/// Master-side pipeline bookkeeping (lives inside `BarrierMaster`; present
/// only when the run is pipelined).
pub(crate) struct PipelineState {
    /// Hands jobs to the stage thread.
    tx: Sender<Job>,
    /// Epochs handed to the stage but not yet completed (0 or 1).
    pending: usize,
    /// Completed `(epoch, reports)` chunks awaiting delivery.
    deferred: Vec<(u64, Vec<RaceReport>)>,
    /// A barrier whose last arrival landed while the stage was busy.
    stalled: Option<StalledBarrier>,
    /// A fully-acked checkpoint cut waiting for detection to drain.
    ckpt_gate: Option<u64>,
    /// Whether any completed epoch reported races (first-races-only gate:
    /// deferred reports are not yet in `race_log`, so emptiness of the log
    /// alone would re-admit later epochs' races).
    any_races: bool,
    /// The epoch whose bitmap round is outstanding, if any.
    inflight: Option<Inflight>,
}

impl PipelineState {
    pub(crate) fn new(tx: Sender<Job>) -> Self {
        PipelineState {
            tx,
            pending: 0,
            deferred: Vec::new(),
            stalled: None,
            ckpt_gate: None,
            any_races: false,
            inflight: None,
        }
    }
}

impl std::fmt::Debug for PipelineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineState")
            .field("pending", &self.pending)
            .field("deferred_epochs", &self.deferred.len())
            .field("stalled", &self.stalled.is_some())
            .field("ckpt_gate", &self.ckpt_gate)
            .field("any_races", &self.any_races)
            .field("inflight", &self.inflight.is_some())
            .finish()
    }
}

fn pipe_mut(st: &mut NodeCore) -> Result<&mut PipelineState, DsmError> {
    st.barrier
        .as_mut()
        .and_then(|m| m.pipe.as_mut())
        .ok_or(DsmError::Protocol {
            context: "pipeline operation without a pipeline",
        })
}

/// Drains the deferred chunks in epoch order into one flat report list.
/// Single completion point + depth-1 pipeline means the chunks are already
/// ordered; the sort documents (and enforces) the delivery rule.
fn take_deferred(pipe: &mut PipelineState) -> Vec<RaceReport> {
    let mut chunks = std::mem::take(&mut pipe.deferred);
    chunks.sort_by_key(|(epoch, _)| *epoch);
    chunks.into_iter().flat_map(|(_, r)| r).collect()
}

/// All arrivals are in on a pipelined master: release now if the stage is
/// idle, otherwise stall the barrier until the previous epoch drains.
pub(crate) fn pipelined_epoch(
    st: &mut NodeCore,
    node: &Node,
    arrived: Vec<(ProcId, VClock)>,
    records: Vec<Arc<Interval>>,
) -> Result<(), DsmError> {
    let pipe = pipe_mut(st)?;
    if pipe.pending > 0 {
        // Depth-1 pipeline: epoch N+1 cannot release until epoch N's
        // detection drains.  This bounds bitmap retention to one extra
        // epoch and keeps detections completing in epoch order.
        pipe.stalled = Some((arrived, records));
        st.stats.pipeline_stalls += 1;
        return Ok(());
    }
    start_epoch(st, node, arrived, records)
}

/// Releases the barrier immediately (delivering the *previous* epoch's
/// reports) and posts this epoch's records to the stage thread.
fn start_epoch(
    st: &mut NodeCore,
    node: &Node,
    arrived: Vec<(ProcId, VClock)>,
    records: Vec<Arc<Interval>>,
) -> Result<(), DsmError> {
    // Captured before `apply_release` advances it inside `do_release`.
    let epoch = st.epoch;
    let pipe = pipe_mut(st)?;
    let races = take_deferred(pipe);
    // Mark this epoch in flight *before* releasing: with one process the
    // release path completes the checkpoint ack round synchronously, and
    // the cut must see the detection as pending and gate on it.
    pipe.pending += 1;
    let tx = pipe.tx.clone();
    st.stats.pipelined_epochs += 1;
    crate::barrier::do_release(st, node, arrived, records.clone(), races)?;
    tx.send(Job::Detect { epoch, records })
        .map_err(|_| DsmError::Protocol {
            context: "detection stage thread is gone",
        })
}

/// Master: a bitmap reply for the in-flight pipelined epoch.
pub(crate) fn on_bitmap_reply(
    st: &mut NodeCore,
    items: Vec<(IntervalId, (PageId, PageBitmaps))>,
) -> Result<(), DsmError> {
    let pipe = pipe_mut(st)?;
    let Some(inflight) = pipe.inflight.as_mut() else {
        return Err(DsmError::Protocol {
            context: "bitmap reply with no detection in flight",
        });
    };
    for (id, (page, bm)) in items {
        inflight.store.insert(id, page, bm);
    }
    inflight.pending_replies -= 1;
    if inflight.pending_replies == 0 {
        let inflight = pipe.inflight.take().expect("checked above");
        pipe.tx
            .send(Job::Compare(Box::new(inflight)))
            .map_err(|_| DsmError::Protocol {
                context: "detection stage thread is gone",
            })?;
    }
    Ok(())
}

/// Master: every checkpoint ack is in.  Commit the cut now if detection
/// has drained, otherwise park it until `complete_detection` drains.
pub(crate) fn commit_or_gate(st: &mut NodeCore, node: &Node, epoch: u64) -> Result<(), DsmError> {
    let pipe = pipe_mut(st)?;
    if pipe.pending > 0 {
        pipe.ckpt_gate = Some(epoch);
        return Ok(());
    }
    commit_cut(st, node, epoch)
}

/// Commits a gated (or immediately committable) cut: any reports that
/// completed after the releases went out ride the commit broadcast, so
/// every image carries the race log a synchronous run would have here.
fn commit_cut(st: &mut NodeCore, node: &Node, epoch: u64) -> Result<(), DsmError> {
    let races = {
        let pipe = pipe_mut(st)?;
        take_deferred(pipe)
    };
    let nprocs = st.cfg.nprocs;
    let me = st.proc;
    for p in (0..nprocs as u16).map(ProcId).filter(|p| *p != me) {
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
    crate::checkpoint::on_ckpt_go(st, epoch, races)
}

/// How many epochs the stage still owes.  The run-end flush polls this.
pub(crate) fn pending_epochs(st: &NodeCore) -> usize {
    st.barrier
        .as_ref()
        .and_then(|m| m.pipe.as_ref())
        .map_or(0, |p| p.pending)
}

/// Run-end flush: deliver any still-deferred reports into the master's
/// race log (epoch-ascending), completing the deferred-delivery rule for
/// the final epoch.
pub(crate) fn flush_deferred(st: &mut NodeCore) {
    let races = match st.barrier.as_mut().and_then(|m| m.pipe.as_mut()) {
        Some(pipe) => take_deferred(pipe),
        None => return,
    };
    st.race_log.extend(races);
}

/// The stage thread: runs on the master alongside its service thread,
/// consuming [`Job`]s until teardown.  Owns a persistent [`EpochArena`] so
/// steady-state epochs plan and compare without mid-epoch heap allocation.
pub(crate) fn detection_stage(
    node: &Node,
    rx: &Receiver<Job>,
    detect: DetectConfig,
    geometry: Geometry,
) {
    let detector = EpochDetector::from(detect);
    let mut arena = EpochArena::new();
    let me = node.state.lock().proc;
    loop {
        match rx.recv_timeout(SERVICE_POLL) {
            Ok(job) => {
                let r = match job {
                    Job::Detect { epoch, records } => {
                        if detect.stage_panic_epoch == Some(epoch) {
                            // Scripted fault: a raw panic (not a DsmError)
                            // exercising the stage's catch_unwind
                            // containment in `cluster.rs`.
                            panic!("injected detection-stage panic at epoch {epoch}");
                        }
                        run_detect(node, &detector, epoch, records, &mut arena)
                    }
                    Job::Compare(inflight) => {
                        run_compare(node, &detector, *inflight, &mut arena, geometry)
                    }
                };
                if let Err(err) = r {
                    if node.ctl.tearing_down() {
                        return;
                    }
                    node.ctl.fail(name_own_death(err, me));
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if node.ctl.tearing_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Stage: steps 2–4 for one epoch.  The expensive pair enumeration runs
/// with the node unlocked — concurrent with the next epoch's computation
/// and message handling — and only the cheap bookkeeping (cost charges,
/// local bitmap gathering, request sends) takes the lock.
fn run_detect(
    node: &Node,
    detector: &EpochDetector,
    epoch: u64,
    records: Vec<Arc<Interval>>,
    arena: &mut EpochArena,
) -> Result<(), DsmError> {
    let plan = detector.plan_with(&records, arena);

    let mut st = node.state.lock();
    st.phase_strike(cvm_net::ProtocolPhase::BitmapRound)?;
    let c = st.cfg.costs;
    let geometry = st.cfg.geometry;
    st.clock.add(
        OverheadCat::Intervals,
        plan.stats.pair_comparisons * c.vv_compare,
    );
    let mut per_proc: HashMap<ProcId, Vec<(IntervalId, PageId)>> = HashMap::new();
    for (id, page) in plan.bitmap_requests() {
        per_proc.entry(id.proc).or_default().push((id, page));
    }
    let mut store = BitmapStore::new();
    // The master's own bitmaps are local; the lagged release GC retained
    // them one extra epoch exactly for this read.
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
    let pending = per_proc.len();
    let inflight = Inflight {
        epoch,
        records,
        plan,
        store,
        pending_replies: pending,
    };
    if pending == 0 {
        drop(st);
        return run_compare(node, detector, inflight, arena, geometry);
    }
    // Register before sending: replies land on the service thread, which
    // cannot run while this thread holds the node lock.
    pipe_mut(&mut st)?.inflight = Some(inflight);
    let reqs: Vec<(ProcId, Msg)> = per_proc
        .into_iter()
        .map(|(p, items)| (p, Msg::BitmapReq { items }))
        .collect();
    for (p, msg) in reqs {
        st.send_msg(&node.sender, p, &msg)?;
    }
    Ok(())
}

/// Stage: step 5 for one epoch — word-level comparison (unlocked), then
/// completion bookkeeping under the lock.
fn run_compare(
    node: &Node,
    detector: &EpochDetector,
    mut inflight: Inflight,
    arena: &mut EpochArena,
    geometry: Geometry,
) -> Result<(), DsmError> {
    {
        // Scripted-strike window: "mid-compare" on the stage thread.
        let mut st = node.state.lock();
        st.phase_strike(cvm_net::ProtocolPhase::PipelinedCompare)?;
    }
    let reports = detector
        .compare_with(
            &mut inflight.plan,
            &inflight.store,
            geometry,
            inflight.epoch,
            arena,
        )
        .map_err(|_| DsmError::Protocol {
            context: "check-listed bitmap missing in pipelined compare",
        })?;
    let mut st = node.state.lock();
    complete_detection(&mut st, node, inflight, reports)
}

/// An epoch's detection finished: filter, defer the reports, and run
/// whatever was waiting on the stage (a gated cut or a stalled barrier).
fn complete_detection(
    st: &mut NodeCore,
    node: &Node,
    inflight: Inflight,
    reports: Vec<RaceReport>,
) -> Result<(), DsmError> {
    let Inflight {
        epoch,
        records,
        plan,
        ..
    } = inflight;
    let c = st.cfg.costs;
    let blocks = st.cfg.geometry.page_words.div_ceil(64) as u64;
    st.clock.add(
        OverheadCat::Bitmaps,
        plan.stats.bitmap_comparisons * blocks * c.bitmap_block_cmp,
    );

    let already_raced = st
        .barrier
        .as_ref()
        .and_then(|m| m.pipe.as_ref())
        .is_some_and(|p| p.any_races)
        || !st.race_log.is_empty();
    let reports = if st.cfg.detect.first_races_only {
        if already_raced {
            Vec::new()
        } else {
            // All first races live in the earliest racy epoch (§6.4).
            let stamps: HashMap<IntervalId, cvm_vclock::IntervalStamp> =
                records.iter().map(|r| (r.id(), r.stamp.clone())).collect();
            filter_first_races(&reports, &stamps)
        }
    } else {
        reports
    };
    st.det_stats.add(&plan.stats);

    let pipe = pipe_mut(st)?;
    pipe.any_races |= !reports.is_empty();
    pipe.deferred.push((epoch, reports));
    pipe.pending -= 1;
    if pipe.pending > 0 {
        return Ok(());
    }
    // A gated cut and a stalled barrier cannot coexist: the gate means
    // every app thread is held at the commit, so no further arrival could
    // have formed a stall.
    let gate = pipe.ckpt_gate.take();
    let stalled = if gate.is_none() {
        pipe.stalled.take()
    } else {
        None
    };
    if let Some(cut) = gate {
        return commit_cut(st, node, cut);
    }
    if let Some((arrived, records)) = stalled {
        return start_epoch(st, node, arrived, records);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use cvm_net::{NetConfig, Network};
    use parking_lot::Mutex;

    use super::*;
    use crate::barrier::BarrierMaster;
    use crate::config::DsmConfig;
    use crate::fault::ClusterCtl;

    #[test]
    fn stage_names_its_own_death_when_a_send_fails() {
        // The master's first bitmap request finds no wire behind it, as
        // when a kill lands on the master mid-round.  The stage must record
        // the master's death, which recovery retries, not the raw
        // `Net(Disconnected)`, which it does not.
        let (mut eps, _) = Network::new(3, NetConfig::default());
        let ep0 = eps.remove(0);
        drop(eps);
        let cfg = DsmConfig::new(3);
        let mut core = NodeCore::new(cfg.clone(), ProcId(0));
        let (pipe_tx, _pipe_rx) = crossbeam::channel::unbounded();
        let mut bm = BarrierMaster::new(3);
        bm.pipe = Some(PipelineState::new(pipe_tx));
        core.barrier = Some(bm);
        let node = Node {
            state: Mutex::new(core),
            sender: ep0.sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        // Two concurrent writes of page 0 by the workers: both bitmaps are
        // remote, so the round must send before it can compare.
        let records = vec![
            Arc::new(cvm_race::make_interval(1, 1, vec![0, 1, 0], &[0], &[])),
            Arc::new(cvm_race::make_interval(2, 1, vec![0, 0, 1], &[0], &[])),
        ];
        let (tx, rx) = crossbeam::channel::unbounded();
        tx.send(Job::Detect { epoch: 0, records }).unwrap();
        drop(tx);
        detection_stage(&node, &rx, DetectConfig::on(), cfg.geometry);
        assert_eq!(node.ctl.failure(), Some(DsmError::NodeFailed { proc: 0 }));
    }
}
