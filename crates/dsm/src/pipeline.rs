//! The pipelined schedule of the detection epoch: overlap comparison with
//! computation.
//!
//! The epoch itself — bitmap round, comparison, first-race filter, charges
//! — is the one in [`crate::barrier`].  The synchronous master runs it
//! between the last arrival and the release, so every node idles at the
//! barrier for the whole epoch.  With [`DetectConfig::pipelined`] the
//! master releases as soon as epoch *N*'s consistency information has
//! settled (clocks merged, missing records fanned out) and hands the
//! epoch's records to a **stage thread**, which plans and compares epoch
//! *N* with the node unlocked while the nodes compute epoch *N+1*.  The
//! stage takes the node lock only for the round's bookkeeping; the last
//! bitmap reply lands on the service thread, which hands the epoch back.
//!
//! ```text
//!            barrier N          barrier N+1         barrier N+2
//! app     ───┤compute N├──────┤compute N+1├───────┤compute N+2├──
//! release     ▲ immediately    ▲ + races(N)        ▲ + races(N+1)
//! stage        └─[plan N]─[bitmap round N]─[compare N]┐
//!                                └─[plan N+1]─ ... ───┘
//! ```
//!
//! **Deferred delivery.**  Epoch *N*'s reports ride the *N+1* release (or,
//! for the final epoch, the run-end flush), so the master's race log is the
//! concatenation of per-epoch report chunks in epoch order — byte-identical
//! content and ordering to the synchronous run, one epoch late.
//!
//! **Stall gate.**  The pipeline is depth-1: if barrier *N+1*'s last
//! arrival lands while epoch *N* is still being detected, the release
//! *stalls* until the stage drains ([`NodeStats::pipeline_stalls`] counts
//! these).  That bound keeps detections completing in epoch order and lets
//! every node retain its access bitmaps for exactly one extra epoch (see
//! `apply_release`'s lagged GC) instead of indefinitely.
//!
//! **Checkpoint gate.**  Under [`RecoveryPolicy::Recover`] the commit for a
//! cut at epoch *N+1* must not outrun epoch *N*'s detection, or the images
//! would lack its races and a recovery would silently drop them.  When
//! every ack is in but the stage is still busy, the master parks the cut in
//! `ckpt_gate`; when detection drains, the cut commits and its
//! [`Msg::CkptGo`] carries the deferred reports, so every image holds
//! exactly the race log a synchronous run would have at that cut.
//!
//! [`DetectConfig::pipelined`]: crate::DetectConfig::pipelined
//! [`NodeStats::pipeline_stalls`]: crate::NodeStats::pipeline_stalls
//! [`RecoveryPolicy::Recover`]: crate::RecoveryPolicy::Recover
//! [`Msg::CkptGo`]: crate::msg::Msg::CkptGo

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use cvm_page::Geometry;
use cvm_race::{EpochArena, EpochDetector, Interval};
use cvm_vclock::{ProcId, VClock};

use crate::barrier::{complete, start_round, Inflight};
use crate::config::DetectConfig;
use crate::error::DsmError;
use crate::fault::{name_own_death, SERVICE_POLL};
use crate::node::NodeCore;
use crate::pages::Node;

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

/// A settled barrier held back by the depth-1 stage: the arrival vector
/// and the epoch's records, replayed the moment the stage drains.
type StalledBarrier = (Vec<(ProcId, VClock)>, Vec<Arc<Interval>>);

/// Master-side pipeline bookkeeping (lives inside `BarrierMaster`; present
/// only when the run is pipelined).
#[derive(Debug)]
pub(crate) struct PipelineState {
    /// Hands jobs to the stage thread.
    tx: Sender<Job>,
    /// Epochs handed to the stage but not yet completed (0 or 1).
    pending: usize,
    /// A barrier whose last arrival landed while the stage was busy.
    stalled: Option<StalledBarrier>,
    /// A fully-acked checkpoint cut waiting for detection to drain.
    ckpt_gate: Option<u64>,
}

impl PipelineState {
    pub(crate) fn new(tx: Sender<Job>) -> Self {
        PipelineState {
            tx,
            pending: 0,
            stalled: None,
            ckpt_gate: None,
        }
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

/// Hands `job` to the stage thread.
pub(crate) fn post(st: &mut NodeCore, job: Job) -> Result<(), DsmError> {
    pipe_mut(st)?.tx.send(job).map_err(|_| DsmError::Protocol {
        context: "detection stage thread is gone",
    })
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
    // Mark this epoch in flight *before* releasing: with one process the
    // release path completes the checkpoint ack round synchronously, and
    // the cut must see the detection as pending and gate on it.
    pipe_mut(st)?.pending += 1;
    st.stats.pipelined_epochs += 1;
    let races = std::mem::take(&mut st.barrier.as_mut().expect("master only").deferred);
    crate::barrier::do_release(st, node, arrived, records.clone(), races)?;
    post(st, Job::Detect { epoch, records })
}

/// Master: every checkpoint ack is in.  Parks the cut while the stage
/// still owes an epoch; `true` when parked.
pub(crate) fn gate_cut(st: &mut NodeCore, epoch: u64) -> Result<bool, DsmError> {
    let pipe = pipe_mut(st)?;
    if pipe.pending > 0 {
        pipe.ckpt_gate = Some(epoch);
    }
    Ok(pipe.pending > 0)
}

/// How many epochs the stage still owes.  The run-end flush polls this.
pub(crate) fn pending_epochs(st: &NodeCore) -> usize {
    st.barrier
        .as_ref()
        .and_then(|m| m.pipe.as_ref())
        .map_or(0, |p| p.pending)
}

/// Run-end flush: deliver any still-deferred reports into the master's
/// race log, completing the deferred-delivery rule for the final epoch.
pub(crate) fn flush_deferred(st: &mut NodeCore) {
    if let Some(master) = st.barrier.as_mut() {
        st.race_log.extend(std::mem::take(&mut master.deferred));
    }
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
                        run_detect(node, &detector, epoch, records, &mut arena, geometry)
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

/// Stage: plan one epoch with the node unlocked — concurrent with the next
/// epoch's computation and message handling — then start its bitmap round
/// under the lock.
fn run_detect(
    node: &Node,
    detector: &EpochDetector,
    epoch: u64,
    records: Vec<Arc<Interval>>,
    arena: &mut EpochArena,
    geometry: Geometry,
) -> Result<(), DsmError> {
    let plan = detector.plan_with(&records, arena);
    let mut st = node.state.lock();
    match start_round(&mut st, node, epoch, records, plan)? {
        Some(inflight) => {
            drop(st);
            run_compare(node, detector, inflight, arena, geometry)
        }
        None => Ok(()),
    }
}

/// Stage: compare one epoch with the node unlocked, then complete it under
/// the lock: defer its reports and run whatever waited on the stage (a
/// gated cut or a stalled barrier).
fn run_compare(
    node: &Node,
    detector: &EpochDetector,
    mut inflight: Inflight,
    arena: &mut EpochArena,
    geometry: Geometry,
) -> Result<(), DsmError> {
    // Scripted-strike window: "mid-compare" on the stage thread.
    node.state
        .lock()
        .phase_strike(cvm_net::ProtocolPhase::PipelinedCompare)?;
    let reports = inflight.compare(detector, geometry, arena)?;
    let mut st = node.state.lock();
    let reports = complete(&mut st, &inflight, reports);
    st.barrier
        .as_mut()
        .expect("master only")
        .deferred
        .extend(reports);
    let pipe = pipe_mut(&mut st)?;
    pipe.pending -= 1;
    // A gated cut and a stalled barrier cannot coexist: the gate means
    // every app thread is held at the commit, so no further arrival could
    // have formed a stall.
    if let Some(cut) = pipe.ckpt_gate.take() {
        return crate::checkpoint::commit_cut(&mut st, node, cut);
    }
    if let Some((arrived, records)) = pipe.stalled.take() {
        return start_epoch(&mut st, node, arrived, records);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use cvm_net::{NetConfig, Network};
    use cvm_vclock::IntervalId;
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

    #[test]
    fn a_round_missing_a_check_listed_bitmap_is_a_protocol_error_in_both_modes() {
        // Workers 1 and 2 each wrote page 0 concurrently, so both bitmaps
        // are check-listed and remote.  Worker 1's reply carries its bitmap;
        // worker 2's omits it, as a malformed reply off the wire would.
        for detect in [DetectConfig::on(), DetectConfig::pipelined()] {
            let (eps, _) = Network::new(3, NetConfig::default());
            let mut cfg = DsmConfig::new(3);
            cfg.detect = detect;
            let mut core = NodeCore::new(cfg.clone(), ProcId(0));
            let (stage_tx, stage_rx) = crossbeam::channel::unbounded();
            let mut bm = BarrierMaster::new(3);
            if detect.pipelined {
                bm.pipe = Some(PipelineState::new(stage_tx));
            }
            core.barrier = Some(bm);
            // The master's own application thread, released first when
            // pipelined.
            let (app_tx, _app_rx) = crossbeam::channel::bounded(1);
            core.barrier_wait = Some(app_tx);
            let node = Node {
                state: Mutex::new(core),
                sender: eps[0].sender(),
                ctl: Arc::new(ClusterCtl::new()),
            };
            let mut st = node.state.lock();
            crate::barrier::on_arrive(&mut st, &node, ProcId(0), VClock::new(3), Vec::new())
                .unwrap();
            for (p, vc) in [(1, vec![0, 1, 0]), (2, vec![0, 0, 1])] {
                let record = cvm_race::make_interval(p, 1, vc, &[0], &[]);
                let r = crate::barrier::on_arrive(
                    &mut st,
                    &node,
                    ProcId(p),
                    VClock::new(3),
                    vec![Arc::new(record)],
                );
                r.unwrap();
            }
            drop(st);
            let detector = EpochDetector::from(detect);
            let mut arena = EpochArena::new();
            if let Ok(Job::Detect { epoch, records }) = stage_rx.try_recv() {
                run_detect(&node, &detector, epoch, records, &mut arena, cfg.geometry).unwrap();
            }
            let mut st = node.state.lock();
            let id = IntervalId::new(ProcId(1), 1);
            let bitmap = cvm_page::PageBitmaps::new(cfg.geometry.page_words);
            let full = vec![(id, (cvm_page::PageId(0), bitmap))];
            crate::barrier::on_bitmap_reply(&mut st, &node, full).unwrap();
            let mut r = crate::barrier::on_bitmap_reply(&mut st, &node, Vec::new());
            drop(st);
            if let Ok(Job::Compare(inflight)) = stage_rx.try_recv() {
                r = run_compare(&node, &detector, *inflight, &mut arena, cfg.geometry);
            }
            assert_eq!(
                r,
                Err(DsmError::Protocol {
                    context: "check-listed bitmap missing at compare"
                }),
                "pipelined: {}",
                detect.pipelined
            );
        }
    }
}
