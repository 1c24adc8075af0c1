//! The central barrier, where detection happens.
//!
//! Arrival messages carry each worker's interval records since the last
//! barrier, so the master has "complete and current information on all
//! intervals in the entire system" (paper §4, step 2).  The master then:
//!
//! 1. enumerates concurrent interval pairs (constant-time vector checks),
//! 2. builds the check list from page-notice overlaps,
//! 3. runs the *extra message round* retrieving word bitmaps (mod iii),
//! 4. compares bitmaps, separating false sharing from true races,
//! 5. piggybacks race reports and missing consistency records on the
//!    release messages.
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
    filter_first_races, BitmapStore, DetectionPlan, EpochArena, EpochDetector, Interval,
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
    phase: Phase,
    /// Planning and comparison scratch, kept across epochs so steady-state
    /// detection does no mid-epoch heap allocation (the pipelined stage
    /// thread owns its own).
    arena: EpochArena,
    /// Present when detection runs pipelined (see [`crate::pipeline`]):
    /// the barrier releases on settlement and detection is deferred to the
    /// stage thread this state feeds.
    pub(crate) pipe: Option<crate::pipeline::PipelineState>,
}

#[derive(Debug)]
enum Phase {
    /// Waiting for arrivals.
    Collecting {
        /// `(worker, clock-at-arrival)`.
        arrived: Vec<(ProcId, VClock)>,
        /// All interval records of the epoch (shared with senders' logs).
        records: Vec<Arc<Interval>>,
    },
    /// Check list built; waiting for bitmap replies.
    AwaitingBitmaps {
        arrived: Vec<(ProcId, VClock)>,
        records: Vec<Arc<Interval>>,
        plan: DetectionPlan,
        store: BitmapStore,
        pending: usize,
    },
}

impl BarrierMaster {
    pub(crate) fn new(nprocs: usize) -> Self {
        BarrierMaster {
            nprocs,
            phase: Phase::Collecting {
                arrived: Vec::new(),
                records: Vec::new(),
            },
            arena: EpochArena::new(),
            pipe: None,
        }
    }
}

/// Application-thread `barrier()`.
pub(crate) fn app_barrier(node: &Node, consolidation: bool) {
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
    let Phase::Collecting { arrived, .. } = &master.phase else {
        return None;
    };
    (0..master.nprocs as u16)
        .map(ProcId)
        .find(|p| !arrived.iter().any(|(a, _)| a == p))
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
    let all_arrived = {
        let Phase::Collecting {
            arrived,
            records: all,
        } = &mut master.phase
        else {
            return Err(DsmError::Protocol {
                context: "barrier arrival during bitmap round",
            });
        };
        arrived.push((from, vc));
        all.extend(records);
        arrived.len() == master.nprocs
    };
    if all_arrived {
        run_detection(st, node)?;
    }
    Ok(())
}

/// Steps 2–4: plan, then fetch bitmaps (or release immediately).
fn run_detection(st: &mut NodeCore, node: &Node) -> Result<(), DsmError> {
    let master = st.barrier.as_mut().expect("master only");
    let Phase::Collecting { arrived, records } = std::mem::replace(
        &mut master.phase,
        Phase::Collecting {
            arrived: Vec::new(),
            records: Vec::new(),
        },
    ) else {
        unreachable!("run_detection outside Collecting");
    };

    if !st.cfg.detect.enabled || st.cfg.detect.instrumentation_only {
        return do_release(st, node, arrived, records, Vec::new());
    }

    // Canonicalize the epoch's record order: arrivals land in wall-clock
    // order, but pair enumeration orients each reported pair by record
    // position, so detection must see a deterministic order for reports to
    // be reproducible run-to-run (and byte-identical between the
    // synchronous and pipelined masters).
    let mut records = records;
    records.sort_unstable_by_key(|r| r.id());

    // Pipelined mode: release immediately, detect off the critical path.
    if st
        .barrier
        .as_ref()
        .is_some_and(|master| master.pipe.is_some())
    {
        return crate::pipeline::pipelined_epoch(st, node, arrived, records);
    }

    st.phase_strike(cvm_net::ProtocolPhase::BitmapRound)?;
    let master = st.barrier.as_mut().expect("master only");
    let plan = EpochDetector::from(st.cfg.detect).plan_with(&records, &mut master.arena);
    // "Intervals" overhead: the comparison algorithm, serialized at the
    // master (the effect behind Figure 4's scaling).
    let c = st.cfg.costs;
    st.clock.add(
        OverheadCat::Intervals,
        plan.stats.pair_comparisons * c.vv_compare,
    );

    // Gather bitmap requests per owning process (step 4).
    let mut per_proc: HashMap<ProcId, Vec<(IntervalId, PageId)>> = HashMap::new();
    for (id, page) in plan.bitmap_requests() {
        per_proc.entry(id.proc).or_default().push((id, page));
    }
    let mut store = BitmapStore::new();
    // The master's own bitmaps are local.
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
    if pending == 0 {
        return finish_detection(st, node, arrived, records, plan, store);
    }
    let reqs: Vec<(ProcId, Msg)> = per_proc
        .into_iter()
        .map(|(p, items)| (p, Msg::BitmapReq { items }))
        .collect();
    for (p, msg) in reqs {
        st.send_msg(&node.sender, p, &msg)?;
    }
    let master = st.barrier.as_mut().expect("master only");
    master.phase = Phase::AwaitingBitmaps {
        arrived,
        records,
        plan,
        store,
        pending,
    };
    Ok(())
}

/// Master: a bitmap reply from one worker.
pub(crate) fn on_bitmap_reply(
    st: &mut NodeCore,
    node: &Node,
    items: Vec<(IntervalId, (PageId, cvm_page::PageBitmaps))>,
) -> Result<(), DsmError> {
    if st
        .barrier
        .as_ref()
        .is_some_and(|master| master.pipe.is_some())
    {
        return crate::pipeline::on_bitmap_reply(st, items);
    }
    let finished = {
        let Some(master) = st.barrier.as_mut() else {
            return Err(DsmError::Protocol {
                context: "bitmap reply at non-master",
            });
        };
        let Phase::AwaitingBitmaps { store, pending, .. } = &mut master.phase else {
            return Err(DsmError::Protocol {
                context: "bitmap reply outside bitmap round",
            });
        };
        for (id, (page, bm)) in items {
            store.insert(id, page, bm);
        }
        *pending -= 1;
        *pending == 0
    };
    if finished {
        let master = st.barrier.as_mut().expect("master only");
        let Phase::AwaitingBitmaps {
            arrived,
            records,
            plan,
            store,
            ..
        } = std::mem::replace(
            &mut master.phase,
            Phase::Collecting {
                arrived: Vec::new(),
                records: Vec::new(),
            },
        )
        else {
            unreachable!();
        };
        finish_detection(st, node, arrived, records, plan, store)?;
    }
    Ok(())
}

/// Step 5: word-level comparison, reporting, release.
fn finish_detection(
    st: &mut NodeCore,
    node: &Node,
    arrived: Vec<(ProcId, VClock)>,
    records: Vec<Arc<Interval>>,
    mut plan: DetectionPlan,
    store: BitmapStore,
) -> Result<(), DsmError> {
    let geometry = st.cfg.geometry;
    let epoch = st.epoch;
    let master = st.barrier.as_mut().expect("master only");
    let reports = EpochDetector::from(st.cfg.detect)
        .compare_with(&mut plan, &store, geometry, epoch, &mut master.arena)
        .expect("check-listed bitmaps must have been retrieved");
    let c = st.cfg.costs;
    let blocks = geometry.page_words.div_ceil(64) as u64;
    st.clock.add(
        OverheadCat::Bitmaps,
        plan.stats.bitmap_comparisons * blocks * c.bitmap_block_cmp,
    );

    let reports = if st.cfg.detect.first_races_only {
        if st.race_log.is_empty() {
            // All first races live in the earliest racy epoch (§6.4).
            let stamps: HashMap<IntervalId, cvm_vclock::IntervalStamp> =
                records.iter().map(|r| (r.id(), r.stamp.clone())).collect();
            filter_first_races(&reports, &stamps)
        } else {
            Vec::new()
        }
    } else {
        reports
    };

    st.det_stats.add(&plan.stats);
    do_release(st, node, arrived, records, reports)
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
