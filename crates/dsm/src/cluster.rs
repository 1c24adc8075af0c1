//! Cluster construction, the service loop, and run orchestration.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

use cvm_net::wire::Wire;
use cvm_net::{Endpoint, NetError, Network, ReliabilityStats};
use cvm_page::SharedAlloc;
use cvm_vclock::ProcId;
use parking_lot::Mutex;

use crate::barrier::BarrierMaster;
use crate::checkpoint::CheckpointStore;
use crate::config::{DsmConfig, FailoverPolicy, RecoveryPolicy};
use crate::error::{DsmError, RunError};
use crate::fault::{ClusterCtl, DsmUnwind, SERVICE_POLL};
use crate::handle::ProcHandle;
use crate::msg::Msg;
use crate::node::NodeCore;
use crate::pages::Node;
use crate::replay::ReplayCursor;
use crate::report::{NodeReport, RecoveryStats, ResourceStats, RunReport};

/// Builder/runner for simulated CVM clusters.
///
/// A run proceeds in three phases, mirroring how the original programs were
/// structured:
///
/// 1. **setup** — a closure allocates named shared segments (every process
///    sees the same deterministic addresses) and returns the application's
///    address bundle;
/// 2. **parallel execution** — one application thread per process runs the
///    body against its [`ProcHandle`], while one service thread per node
///    handles protocol messages;
/// 3. **teardown** — service threads stop, per-node state is collected into
///    a [`RunReport`].
pub struct Cluster;

impl Cluster {
    /// Runs `body` on `cfg.nprocs` simulated processes.
    ///
    /// `setup` allocates shared data; its return value is passed (shared)
    /// to every process body.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] when any node fails mid-run — a scripted kill
    /// or partition, a peer declared dead by the reliability layer, an
    /// operation deadline expiry, or a protocol invariant violation.  The
    /// surviving nodes drain first, so the error carries partial statistics.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, if allocation exceeds the
    /// shared segment, or if an application thread panics with a genuine
    /// application panic (assertion failures propagate).
    pub fn run<S, F>(
        cfg: DsmConfig,
        setup: impl FnOnce(&mut SharedAlloc) -> S,
        body: F,
    ) -> Result<RunReport, RunError>
    where
        S: Sync,
        F: Fn(&ProcHandle, &S) + Sync,
    {
        cfg.validate();
        let started = Instant::now();
        let nprocs = cfg.nprocs;

        // Shared allocation happens exactly once: addresses are a pure
        // function of the allocation sequence, so restarted attempts reuse
        // the same address bundle (page *contents* come from the images).
        let mut alloc = SharedAlloc::new(cfg.geometry, cfg.shared_capacity);
        let app_state = setup(&mut alloc);
        let segments = alloc.into_map();

        let store: Option<Arc<CheckpointStore>> = cfg
            .checkpointing()
            .then(|| Arc::new(CheckpointStore::with_retention(cfg.ckpt_retain, nprocs)));
        let retries = match cfg.recovery {
            RecoveryPolicy::Abort => 0,
            RecoveryPolicy::Recover { max_attempts } => u64::from(max_attempts),
        };
        let mut plan = cfg.net_loss.clone();
        let backoff_seed = plan.as_ref().map_or(0, |p| p.seed);
        let mut recoveries = 0u64;
        let mut epochs_replayed = 0u64;
        let mut failovers = 0u64;
        let mut backoff_waits = 0u64;
        let mut partitions_healed = 0u64;
        let mut stale_msgs_fenced = 0u64;
        let mut quorum_losses = 0u64;
        let mut rejoin_restores = 0u64;
        // The barrier-master seat, carried across attempts: proc 0 until a
        // failover moves it to the lowest-numbered survivor.
        let mut master = ProcId(0);
        // The seat's monotone term: bumped on every re-seating, stamped
        // into every master-originated message, and fenced by receivers —
        // an old master reappearing across a healed partition speaks with
        // a stale term and cannot drive detection.
        let mut seat_term = 0u64;
        loop {
            let mut attempt_cfg = cfg.clone();
            attempt_cfg.net_loss = plan.clone();
            // Every recovery attempt starts with a handoff round: the
            // (possibly re-seated) master announces the seat and the resume
            // epoch, and holds the epoch loop until every survivor agrees.
            let announce = recoveries > 0 && nprocs > 1;
            let result = run_attempt(
                &attempt_cfg,
                &app_state,
                &body,
                segments.clone(),
                store.as_ref(),
                started,
                master,
                seat_term,
                announce,
            );
            // Partition/fencing telemetry accumulates across attempts: a
            // failed attempt's fences and heals are part of the run's
            // story even though its report is discarded.  (Heals are
            // accounted per attempt outcome below — in-engine for an
            // attempt that ran to its end, at the strip for a retried
            // one — so a window is never counted twice.)
            {
                let rec = match &result {
                    Ok(r) => &r.recovery,
                    Err(e) => &e.partial.recovery,
                };
                stale_msgs_fenced += rec.stale_msgs_fenced;
                rejoin_restores += rec.rejoin_restores;
                let will_retry = match &result {
                    Ok(_) => false,
                    Err(e) => {
                        store.is_some()
                            && recoveries < retries
                            && matches!(e.error, DsmError::NodeFailed { .. })
                    }
                };
                if !will_retry {
                    let rel = match &result {
                        Ok(r) => r.reliability.as_ref(),
                        Err(e) => e.partial.reliability.as_ref(),
                    };
                    partitions_healed += rel.map_or(0, |r| r.partitions_healed);
                }
            }
            if let Err(e) = &result {
                if matches!(e.error, DsmError::QuorumLost { .. }) {
                    quorum_losses += 1;
                }
            }
            let fill = |stats: &mut RecoveryStats| {
                if let Some(s) = &store {
                    stats.checkpoints_taken = s.checkpoints_taken();
                    stats.bytes_snapshotted = s.bytes_snapshotted();
                }
                stats.recoveries = recoveries;
                stats.epochs_replayed = epochs_replayed;
                stats.failovers = failovers;
                stats.backoff_waits = backoff_waits;
                stats.partitions_healed = partitions_healed;
                stats.stale_msgs_fenced = stale_msgs_fenced;
                stats.quorum_losses = quorum_losses;
                stats.rejoin_restores = rejoin_restores;
            };
            match result {
                Ok(mut report) => {
                    fill(&mut report.recovery);
                    return Ok(report);
                }
                Err(mut err) => {
                    let retryable = store.is_some()
                        && recoveries < retries
                        && matches!(err.error, DsmError::NodeFailed { .. });
                    if !retryable {
                        fill(&mut err.partial.recovery);
                        return Err(err);
                    }
                    recoveries += 1;
                    let s = store.as_ref().expect("retryable requires a store");
                    // Drop any partial (inconsistent) cut the failed
                    // attempt deposited before rolling back.
                    let resume = s.last_complete_epoch(nprocs).unwrap_or(0);
                    s.prune_above(resume);
                    epochs_replayed += err.partial.barriers().saturating_sub(resume);
                    if let DsmError::NodeFailed { proc } = err.error {
                        // The master itself died — or the failed attempt's
                        // plan scripted a partition against the master's
                        // interface.  In the latter case *which* side's
                        // retransmits exhaust first (and hence which
                        // `NodeFailed` wins the failure cell) is a
                        // wall-clock race, while the master's connectivity
                        // is equally suspect either way; succession must
                        // not depend on that race, so any master-side cut
                        // re-seats deterministically.
                        let master_cut = attempt_cfg.net_loss.as_ref().is_some_and(|p| {
                            p.events.iter().any(|e| {
                                matches!(e, cvm_net::FaultEvent::Partition { node, .. }
                                    if *node == master)
                            })
                        });
                        if (ProcId(proc) == master || master_cut)
                            && nprocs > 1
                            && cfg.failover == FailoverPolicy::Succession
                        {
                            // Deterministic succession: the seat moves to
                            // the lowest-numbered node that is not the
                            // deposed master (it is still resurrected from
                            // its image, as a worker).
                            let deposed = master;
                            master = (0..nprocs as u16)
                                .map(ProcId)
                                .find(|p| *p != deposed)
                                .expect("nprocs > 1 has a survivor");
                            failovers += 1;
                            // Re-seating opens a new term; the old seat's
                            // messages are fenced from here on.
                            seat_term += 1;
                        }
                    }
                    // The scripted kill fired; its replacement node must
                    // not be killed again.  Transient partition windows
                    // are healed by the time the next attempt starts (the
                    // backoff pause outlasts the scripted glitch), so they
                    // come out of the plan too — counted as heals.
                    // Permanent faults (heal-less partitions, loss) stay.
                    if let Some(p) = plan.as_mut() {
                        partitions_healed += p
                            .events
                            .iter()
                            .filter(|e| {
                                matches!(
                                    e,
                                    cvm_net::FaultEvent::Partition {
                                        heal_at: Some(_),
                                        ..
                                    }
                                )
                            })
                            .count() as u64;
                        p.events.retain(|e| {
                            !matches!(
                                e,
                                cvm_net::FaultEvent::Kill { .. }
                                    | cvm_net::FaultEvent::KillAtPhase { .. }
                                    | cvm_net::FaultEvent::Partition {
                                        heal_at: Some(_),
                                        ..
                                    }
                            )
                        });
                    }
                    // Exponential backoff with seeded jitter before the
                    // next attempt, so a persistent fault cannot spin the
                    // loop into a recovery storm.
                    backoff_waits += 1;
                    std::thread::sleep(cvm_net::backoff_delay(recoveries, backoff_seed));
                }
            }
        }
    }
}

/// One execution attempt: build the network and nodes (restoring from the
/// newest complete checkpoint cut, if any), run the application, collect.
#[allow(clippy::too_many_arguments)]
fn run_attempt<S, F>(
    cfg: &DsmConfig,
    app_state: &S,
    body: &F,
    segments: cvm_page::SegmentMap,
    store: Option<&Arc<CheckpointStore>>,
    started: Instant,
    master: ProcId,
    term: u64,
    announce: bool,
) -> Result<RunReport, RunError>
where
    S: Sync,
    F: Fn(&ProcHandle, &S) + Sync,
{
    let nprocs = cfg.nprocs;
    let mi = master.0 as usize;
    {
        let (endpoints, net_stats, rstats): (_, _, Option<Arc<ReliabilityStats>>) =
            match &cfg.net_loss {
                None => {
                    let (eps, stats) = Network::new(nprocs, cfg.net);
                    (eps, stats, None)
                }
                Some(loss) => {
                    let (eps, stats, rstats) = Network::with_loss(nprocs, cfg.net, loss.clone());
                    (eps, stats, Some(rstats))
                }
            };
        let shutdown_txs: Vec<cvm_net::NetSender> =
            endpoints.iter().map(Endpoint::sender).collect();

        let resume = store.and_then(|s| s.last_complete_epoch(nprocs));
        let ctl = Arc::new(ClusterCtl::new());
        // Pipelined detection: the master's barrier feeds a dedicated
        // stage thread (spawned below) through this channel.
        let pipelined =
            cfg.detect.pipelined && cfg.detect.enabled && !cfg.detect.instrumentation_only;
        let mut stage_rx = None;
        // The cut-time master when a failover has moved the seat since
        // the restored cut was taken: `(node, its stale seat term)`.  Used
        // for the split-brain scrub after the announce round, and counted
        // as a rejoin-from-cut.
        let mut old_master: Option<(ProcId, u64)> = None;
        let mut rejoin_restores = 0u64;
        let nodes: Vec<Arc<Node>> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| {
                let proc = ProcId::from_index(i);
                let mut core = NodeCore::new(cfg.clone(), proc);
                if i == mi {
                    let mut bm = BarrierMaster::new(nprocs);
                    if pipelined {
                        let (tx, rx) = crossbeam::channel::unbounded();
                        bm.pipe = Some(crate::pipeline::PipelineState::new(tx));
                        stage_rx = Some(rx);
                    }
                    core.barrier = Some(bm);
                }
                if let Some(schedule) = &cfg.replay {
                    core.replay = Some(ReplayCursor::new(schedule.clone()));
                }
                if let Some(p) = &cfg.net_loss {
                    // Scripted protocol-window strikes aimed at this node:
                    // the transport carries them, this layer fires them.
                    core.phase_kills = p
                        .events
                        .iter()
                        .filter_map(|e| match e {
                            cvm_net::FaultEvent::KillAtPhase { node, phase, hit }
                                if *node == proc =>
                            {
                                Some((*phase, *hit))
                            }
                            _ => None,
                        })
                        .collect();
                }
                if let Some(s) = store {
                    core.ckpt = Some(Arc::clone(s));
                    if let Some(epoch) = resume {
                        let img = s
                            .image(epoch, proc.0)
                            .expect("complete epoch has every node's image");
                        crate::checkpoint::restore(&mut core, &img);
                        // The cut-time master lost the seat since this cut
                        // was taken: it was cut off from the re-seating
                        // (dead or partitioned) and now rejoins from the
                        // agreed cut at the current term, as a worker.
                        if core.master == proc && core.master != master {
                            rejoin_restores += 1;
                        }
                        // A failover moved the seat since this cut was
                        // taken: the detector's accumulated statistics live
                        // in the cut-time master's image (workers carry
                        // zeros), so the successor adopts them — together
                        // with its own restored race log, that is the full
                        // master state reconstructed from the cut.
                        if i == mi && core.master != master {
                            old_master = Some((core.master, img.seat_term));
                            if let Some(prev) = s.image(epoch, core.master.0) {
                                core.det_stats =
                                    crate::checkpoint::det_stats_from_vec(&prev.det_stats);
                            }
                        }
                    }
                }
                // The attempt's seat overrides whatever the image recorded
                // (workers keep their restored — possibly stale — term and
                // adopt the current one through the handoff round).
                core.master = master;
                if i == mi {
                    core.seat_term = term;
                }
                Arc::new(Node {
                    state: Mutex::new(core),
                    sender: ep.sender(),
                    ctl: Arc::clone(&ctl),
                })
            })
            .collect();

        let genuine_panic: Option<Box<dyn Any + Send>> = std::thread::scope(|scope| {
            // Service threads own their endpoints.
            for (i, (node, ep)) in nodes.iter().zip(endpoints).enumerate() {
                let node = Arc::clone(node);
                let ctl = Arc::clone(&ctl);
                let rs = rstats.clone();
                scope.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        service_loop(&node, ep, rs)
                    }));
                    if r.is_err() && !ctl.tearing_down() {
                        ctl.fail(DsmError::NodeFailed { proc: i as u16 });
                    }
                });
            }
            // The master's detection stage (pipelined mode only).
            if let Some(rx) = stage_rx.take() {
                let node = Arc::clone(&nodes[mi]);
                let ctl = Arc::clone(&ctl);
                let detect = cfg.detect;
                let geometry = cfg.geometry;
                scope.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        crate::pipeline::detection_stage(&node, &rx, detect, geometry)
                    }));
                    // A stage panic is a protocol failure, not a node
                    // death: naming it keeps the diagnosis honest (nothing
                    // crashed the *node*) and keeps it non-retryable — a
                    // panicking detector would panic identically on replay.
                    // Blocked peers observe the error cell within one poll
                    // interval, so the run ends well inside the op
                    // deadline instead of hanging on the stall gate.
                    if r.is_err() && !ctl.tearing_down() {
                        ctl.fail(DsmError::Protocol {
                            context: "detection stage thread panicked",
                        });
                    }
                });
            }
            // Seat-announcement round: on a recovery attempt the master
            // (re-seated or not) broadcasts `MasterHandoff` with its view
            // of the resume epoch and the seat's term, and holds the
            // epoch loop until a strict majority of the configured nodes
            // (its own seat included) agrees.  A would-be master that
            // cannot assemble that quorum is on the minority side of a
            // partition: it surfaces the named `QuorumLost`, never a raw
            // timeout, and never drives detection.
            if announce {
                let epoch = resume.unwrap_or(0);
                let r = {
                    let mut st = nodes[mi].state.lock();
                    (0..nprocs as u16)
                        .map(ProcId)
                        .filter(|p| *p != master)
                        .try_for_each(|p| {
                            st.send_msg(
                                &nodes[mi].sender,
                                p,
                                &Msg::MasterHandoff {
                                    master,
                                    epoch,
                                    term,
                                },
                            )
                        })
                };
                let needed = nprocs / 2 + 1;
                if let Err(err) = r {
                    ctl.fail(name_own_death(err, master));
                } else {
                    let limit = Instant::now() + cfg.op_deadline;
                    loop {
                        if nodes[mi].state.lock().handoff_acks + 1 >= needed {
                            break;
                        }
                        if ctl.failed() {
                            // A peer declared dead while the seat is still
                            // short of its majority is the quorum loss
                            // itself, observed through the transport.
                            let got = nodes[mi].state.lock().handoff_acks + 1;
                            if got < needed {
                                ctl.reclassify_as_quorum_loss(got, needed);
                            }
                            break;
                        }
                        if Instant::now() >= limit {
                            let got = nodes[mi].state.lock().handoff_acks + 1;
                            ctl.fail(DsmError::QuorumLost { got, needed });
                            break;
                        }
                        std::thread::sleep(crate::fault::APP_POLL);
                    }
                }
                // Split-brain scrub: the restored cut-time master still
                // holds a claim to the seat it lost while cut off.  It
                // re-asserts that claim — under the stale term its image
                // recorded — against the node now holding the seat, which
                // fences it.  Exercising the fence on every failover keeps
                // the guarantee hot: two masters can never both drive
                // detection, whatever a healed partition delivers late.
                if !ctl.failed() {
                    if let Some((o, stale_term)) = old_master {
                        let r = {
                            let mut st = nodes[o.index()].state.lock();
                            st.send_msg(
                                &nodes[o.index()].sender,
                                master,
                                &Msg::MasterHandoff {
                                    master: o,
                                    epoch,
                                    term: stale_term,
                                },
                            )
                        };
                        if let Err(err) = r {
                            ctl.fail(name_own_death(err, o));
                        }
                    }
                }
            }
            // Application threads.  A failing thread unwinds with the
            // `DsmUnwind` sentinel (the diagnosis is already in the control
            // block); a *genuine* application panic fails the run as the
            // node's death and is re-thrown after the drain.
            let mut apps = Vec::new();
            for (i, node) in nodes.iter().enumerate() {
                let handle = ProcHandle {
                    node: Arc::clone(node),
                    proc: i,
                    nprocs,
                };
                let ctl = Arc::clone(&ctl);
                apps.push(scope.spawn(move || {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        body(&handle, app_state)
                    })) {
                        Ok(()) => None,
                        Err(payload) => {
                            // Fail the run *before* this thread is joined so
                            // peers blocked mid-protocol unwind promptly
                            // instead of waiting out their deadlines.
                            ctl.fail(DsmError::NodeFailed { proc: i as u16 });
                            if payload.downcast_ref::<DsmUnwind>().is_none() {
                                Some(payload)
                            } else {
                                None
                            }
                        }
                    }
                }));
            }
            let mut genuine = None;
            for app in apps {
                if let Ok(Some(payload)) = app.join() {
                    genuine.get_or_insert(payload);
                }
            }
            // Reports are delivered one epoch deferred, so the final
            // epoch's detection may still be in flight; drain it while the
            // worker service threads (which answer the bitmap round) are
            // still up, then flush the deferred reports into the master's
            // race log.  A failed run gets a short bounded drain — dead
            // peers will never answer.
            if pipelined {
                let grace = if ctl.failed() {
                    std::time::Duration::from_millis(200)
                } else {
                    cfg.op_deadline
                };
                let limit = Instant::now() + grace;
                while crate::pipeline::pending_epochs(&nodes[mi].state.lock()) > 0 {
                    if Instant::now() >= limit {
                        break;
                    }
                    std::thread::sleep(crate::fault::APP_POLL);
                }
                crate::pipeline::flush_deferred(&mut nodes[mi].state.lock());
            }
            // Orderly shutdown: stop the service threads.  Send errors are
            // expected here (dead nodes have no wiring left).
            ctl.begin_teardown();
            let payload = Msg::Shutdown.to_bytes();
            for (i, tx) in shutdown_txs.iter().enumerate() {
                let b = Msg::Shutdown.breakdown();
                let _ = tx.send(ProcId::from_index(i), 0, b, payload.clone());
            }
            genuine
        });
        if let Some(payload) = genuine_panic {
            std::panic::resume_unwind(payload);
        }

        // Collect per-node state (partial when the run failed: every node
        // contributes whatever it accumulated before the drain).
        let mut reports = Vec::with_capacity(nprocs);
        let mut races = None;
        let mut det_stats = cvm_race::DetectorStats::default();
        let mut schedule = crate::replay::SyncSchedule::new();
        let mut watch_hits = Vec::new();
        let mut traces = Vec::with_capacity(nprocs);
        let mut resources = ResourceStats::default();
        let mut stale_fenced = 0u64;
        for node in nodes {
            let node = Arc::into_inner(node).expect("all threads joined");
            let core = node.state.into_inner();
            stale_fenced += core.stale_msgs_fenced;
            if core.proc == master {
                races = Some(core.race_log.clone());
                det_stats = core.det_stats;
            }
            schedule.merge(core.sched_rec.clone());
            watch_hits.extend(core.watch_hits.iter().copied());
            traces.push(core.trace.clone());
            resources.log_high_water = resources.log_high_water.max(core.stats.log_high_water);
            resources.bitmap_high_water = resources
                .bitmap_high_water
                .max(core.stats.bitmap_high_water);
            resources.retained_bytes_high_water = resources
                .retained_bytes_high_water
                .max(core.stats.retained_bytes_high_water);
            resources.soft_gcs += core.stats.soft_gcs;
            reports.push(NodeReport {
                proc: core.proc,
                stats: core.stats,
                cycles: core.clock.now(),
                cats: core.clock.cats(),
                shared_calls: core.analysis.shared_calls(),
                private_calls: core.analysis.private_calls(),
            });
        }

        // Transport- and store-side marks (read before `rstats` moves into
        // the report).  These counters are timing-dependent, which is why
        // they live here and not in the deterministic snapshots.
        resources.link_high_water = net_stats.link_high_water();
        if let Some(rs) = &rstats {
            use std::sync::atomic::Ordering;
            resources.queue_high_water = rs.queue_high_water.load(Ordering::Relaxed);
            resources.credit_stalls = rs.credit_stalls.load(Ordering::Relaxed);
            resources.link_high_water = resources.link_high_water.max(rs.link_high_water());
        }
        if let Some(s) = store {
            resources.cuts_evicted = s.cuts_evicted();
            resources.checkpoint_bytes_live = s.checkpoint_bytes_live();
        }

        let report = RunReport {
            nodes: reports,
            races: races.expect("master node present"),
            det_stats,
            net: net_stats.snapshot(),
            reliability: rstats.map(|r| r.full()),
            segments,
            schedule,
            watch_hits,
            traces,
            recovery: RecoveryStats {
                stale_msgs_fenced: stale_fenced,
                rejoin_restores,
                ..RecoveryStats::default()
            },
            resources,
            wall: started.elapsed(),
        };
        match ctl.failure() {
            Some(error) => Err(RunError {
                error,
                partial: Box::new(report),
            }),
            None => Ok(report),
        }
    }
}

/// The per-node message dispatch loop (CVM's SIGIO handler, as a thread).
///
/// Polls so it can observe teardown even when its own traffic is cut off (a
/// partitioned node never receives the shutdown message it sends itself).
/// Handler errors outside teardown fail the run; the loop keeps draining so
/// peers' in-flight requests do not back up behind the failure.
///
/// Idle polls also run the overload watchdog: a credit-stalled link with no
/// datagram delivery and no virtual-time progress for a full `op_deadline`
/// is a diagnosed credit deadlock, converted into a named
/// [`DsmError::Timeout`] instead of hanging until some blocked operation's
/// own deadline fires anonymously.
fn service_loop(node: &Node, ep: Endpoint, rstats: Option<Arc<ReliabilityStats>>) {
    let (op_deadline, cancel, segment_pages, page_words) = {
        let st = node.state.lock();
        (
            st.cfg.op_deadline,
            st.cfg.cancel.clone(),
            st.pages.segment_pages(),
            st.cfg.geometry.page_words,
        )
    };
    let mut watchdog = Watchdog::default();
    loop {
        // External cancellation: checked every dispatch iteration (not just
        // idle polls) so a busy node still drains within one message.
        if let Some(token) = &cancel {
            if token.is_cancelled() && !node.ctl.tearing_down() {
                node.ctl.fail(DsmError::Cancelled);
            }
        }
        let pkt = match ep.recv_timeout(SERVICE_POLL) {
            Ok(pkt) => pkt,
            Err(NetError::Empty) => {
                if node.ctl.tearing_down() {
                    return;
                }
                if let Some(rs) = &rstats {
                    watchdog.poll(node, rs, op_deadline);
                }
                continue;
            }
            Err(NetError::Disconnected) => {
                // Our own wiring is gone mid-run: a scripted kill.
                if !node.ctl.tearing_down() {
                    let me = node.state.lock().proc;
                    node.ctl.fail(DsmError::NodeFailed { proc: me.0 });
                }
                return;
            }
            Err(NetError::PeerDead { peer }) => {
                node.ctl.fail(DsmError::NodeFailed { proc: peer.0 });
                let mut st = node.state.lock();
                let me = st.proc;
                let r = crate::locks::handle_peer_death(&mut st, node, peer);
                drop(st);
                if let Err(err) = r {
                    node.ctl.fail(name_own_death(err, me));
                }
                continue;
            }
            Err(e) => {
                node.ctl.fail(DsmError::Net(e));
                return;
            }
        };
        let Ok(msg) = Msg::from_bytes(&pkt.payload) else {
            node.ctl.fail(DsmError::Protocol {
                context: "malformed protocol message",
            });
            continue;
        };
        // Decoded fine, but the ids inside still index our tables: reject
        // anything naming a process outside the cluster before dispatch.
        if msg.validate(ep.sender().fanout()).is_err() {
            node.ctl.fail(DsmError::Protocol {
                context: "protocol message failed structural validation",
            });
            continue;
        }
        // Page ids index dense per-node tables: one named outside the
        // segment is refused here, before any handler sees it.
        if msg
            .max_page()
            .is_some_and(|page| page.index() >= segment_pages)
        {
            node.ctl.fail(DsmError::Protocol {
                context: "page id outside the shared segment",
            });
            continue;
        }
        // Likewise the word indices of a diff, which index the page itself.
        if msg.max_diff_word().is_some_and(|word| word >= page_words) {
            node.ctl.fail(DsmError::Protocol {
                context: "diff word outside the page",
            });
            continue;
        }
        if matches!(msg, Msg::Shutdown) {
            return;
        }
        let mut st = node.state.lock();
        st.clock_recv(&pkt);
        let me = st.proc;
        let r = match msg {
            Msg::LockReq {
                lock,
                requester,
                vc,
            } => crate::locks::mgr_handle_req(&mut st, node, lock, requester, vc),
            Msg::LockFwd {
                lock,
                requester,
                vc,
            } => crate::locks::handle_fwd(&mut st, node, lock, requester, vc),
            Msg::LockGrant {
                lock,
                records,
                vc,
                trace_from,
            } => crate::locks::handle_grant(&mut st, lock, records, vc, trace_from),
            Msg::PageReadReq { page, requester } => {
                crate::pages::on_page_read_req(&mut st, node, page, requester)
            }
            Msg::PageReadFwd { page, requester } => {
                crate::pages::on_page_read_fwd(&mut st, node, page, requester)
            }
            Msg::PageReadReply { page, data } => {
                crate::pages::on_page_reply(&mut st, page, data, false)
            }
            Msg::PageOwnReq { page, requester } => {
                crate::pages::on_page_own_req(&mut st, node, page, requester)
            }
            Msg::PageOwnFwd { page, requester } => {
                crate::pages::on_page_own_fwd(&mut st, node, page, requester)
            }
            Msg::PageOwnReply { page, data } => {
                crate::pages::on_page_reply(&mut st, page, data, true)
            }
            Msg::PageFetchReq {
                page,
                requester,
                needed,
            } => crate::pages::on_page_fetch_req(&mut st, node, page, requester, needed),
            Msg::PageFetchReply { page, data } => {
                crate::pages::on_page_reply(&mut st, page, data, false)
            }
            Msg::DiffFlush {
                writer,
                interval,
                diffs,
            } => crate::pages::on_diff_flush(&mut st, node, writer, interval, diffs),
            Msg::BarrierArrive { from, vc, records } => {
                crate::barrier::on_arrive(&mut st, node, from, vc, records)
            }
            Msg::BitmapReq { items } => crate::barrier::on_bitmap_req(&mut st, node, items),
            Msg::BitmapReply { items } => crate::barrier::on_bitmap_reply(&mut st, node, items),
            Msg::BarrierRelease {
                vc,
                records,
                races,
                epoch,
                term,
            } => {
                if st.fence_stale(term) {
                    Ok(())
                } else {
                    crate::barrier::apply_release(&mut st, node, records, vc, races, epoch)
                }
            }
            Msg::CkptAck { from: _, epoch } => crate::checkpoint::on_ckpt_ack(&mut st, node, epoch),
            Msg::CkptGo { epoch, races, term } => {
                if st.fence_stale(term) {
                    Ok(())
                } else {
                    crate::checkpoint::on_ckpt_go(&mut st, epoch, races)
                }
            }
            Msg::MasterHandoff {
                master,
                epoch,
                term,
            } => crate::barrier::on_master_handoff(&mut st, node, master, epoch, term),
            Msg::MasterHandoffAck { from: _, epoch } => {
                crate::barrier::on_master_handoff_ack(&mut st, epoch)
            }
            Msg::Shutdown => unreachable!("handled above"),
        };
        drop(st);
        if let Err(err) = r {
            if !node.ctl.tearing_down() {
                node.ctl.fail(name_own_death(err, me));
            }
        }
    }
}

/// Overload-watchdog state for one service loop.
///
/// Progress is `(datagrams delivered fabric-wide, this node's virtual
/// clock)`; the timer arms only while some sender is credit-stalled and
/// resets whenever either measure moves or the stall clears, so ordinary
/// backpressure (slow but moving) never trips it.
#[derive(Default)]
struct Watchdog {
    last_progress: (u64, u64),
    stalled_since: Option<Instant>,
    diagnosed: bool,
}

impl Watchdog {
    fn poll(&mut self, node: &Node, rs: &ReliabilityStats, op_deadline: std::time::Duration) {
        use std::sync::atomic::Ordering;
        if self.diagnosed {
            return;
        }
        if rs.credit_stalled_now.load(Ordering::Relaxed) == 0 {
            self.stalled_since = None;
            return;
        }
        let progress = (
            rs.delivered.load(Ordering::Relaxed),
            node.state.lock().clock.now(),
        );
        match self.stalled_since {
            Some(since) if progress == self.last_progress => {
                if since.elapsed() >= op_deadline {
                    self.diagnosed = true;
                    node.ctl.fail(DsmError::Timeout {
                        op: "credit-window progress",
                    });
                }
            }
            _ => {
                self.last_progress = progress;
                self.stalled_since = Some(Instant::now());
            }
        }
    }
}

/// A `Disconnected` send from a protocol handler means *this* node's wire
/// endpoint is gone — a scripted kill landing mid-dispatch.  Name the node
/// so the failure is retryable under [`RecoveryPolicy::Recover`], matching
/// the receive-path and application-path diagnoses.
fn name_own_death(err: DsmError, me: ProcId) -> DsmError {
    match err {
        DsmError::Net(NetError::Disconnected) => DsmError::NodeFailed { proc: me.0 },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use cvm_net::NetConfig;

    use super::*;
    use crate::fault::ClusterCtl;

    fn idle_node() -> (Node, Vec<Endpoint>) {
        let (eps, _) = Network::new(2, NetConfig::default());
        let node = Node {
            state: Mutex::new(NodeCore::new(DsmConfig::new(2), ProcId(0))),
            sender: eps[0].sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        (node, eps)
    }

    #[test]
    fn watchdog_diagnoses_a_stuck_credit_stall() {
        let (node, _eps) = idle_node();
        let rs = ReliabilityStats::default();
        rs.credit_stalled_now.store(1, Ordering::Relaxed);
        let mut wd = Watchdog::default();
        // First observation only arms the timer.
        wd.poll(&node, &rs, Duration::ZERO);
        assert!(node.ctl.failure().is_none(), "one sample is not a deadlock");
        // Same (delivered, virtual clock) past the deadline: diagnosed.
        wd.poll(&node, &rs, Duration::ZERO);
        assert_eq!(
            node.ctl.failure(),
            Some(DsmError::Timeout {
                op: "credit-window progress"
            })
        );
        // Latched: one diagnosis per loop, even if polled again.
        wd.poll(&node, &rs, Duration::ZERO);
        assert!(wd.diagnosed);
    }

    #[test]
    fn watchdog_resets_on_progress_or_stall_clearing() {
        let (node, _eps) = idle_node();
        let rs = ReliabilityStats::default();
        let mut wd = Watchdog::default();
        rs.credit_stalled_now.store(1, Ordering::Relaxed);
        wd.poll(&node, &rs, Duration::ZERO);
        // Fabric delivery between polls is progress: re-arm, don't fire.
        rs.delivered.fetch_add(1, Ordering::Relaxed);
        wd.poll(&node, &rs, Duration::ZERO);
        assert!(
            node.ctl.failure().is_none(),
            "progress must reset the timer"
        );
        // The stall clearing disarms the timer entirely.
        rs.credit_stalled_now.store(0, Ordering::Relaxed);
        wd.poll(&node, &rs, Duration::ZERO);
        assert!(wd.stalled_since.is_none());
        assert!(node.ctl.failure().is_none());
        // A fresh stall with frozen progress still ends in a diagnosis.
        rs.credit_stalled_now.store(1, Ordering::Relaxed);
        wd.poll(&node, &rs, Duration::ZERO);
        wd.poll(&node, &rs, Duration::ZERO);
        assert!(matches!(node.ctl.failure(), Some(DsmError::Timeout { .. })));
    }

    #[test]
    fn watchdog_ignores_healthy_links() {
        let (node, _eps) = idle_node();
        let rs = ReliabilityStats::default();
        let mut wd = Watchdog::default();
        for _ in 0..3 {
            wd.poll(&node, &rs, Duration::ZERO);
        }
        assert!(node.ctl.failure().is_none());
        assert!(wd.stalled_since.is_none());
    }

    #[test]
    fn stale_term_master_messages_are_fenced_not_applied() {
        // A node whose seat term has advanced to 2 receives master-
        // originated traffic stamped with term 1 — exactly what a healed
        // partition delivers late.  Every such message must be dropped at
        // dispatch and counted, never applied: an applied `BarrierRelease`
        // for a bogus epoch (or an adopted stale `MasterHandoff`) would
        // fail the run, so "no failure recorded" is itself the proof.
        let (mut eps, _) = Network::new(2, NetConfig::default());
        let ep1 = eps.pop().expect("two endpoints");
        let ep0 = eps.pop().expect("two endpoints");
        let node = Node {
            state: Mutex::new(NodeCore::new(DsmConfig::new(2), ProcId(0))),
            sender: ep0.sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        node.state.lock().seat_term = 2;
        let mut peer = NodeCore::new(DsmConfig::new(2), ProcId(1));
        std::thread::scope(|s| {
            s.spawn(|| service_loop(&node, ep0, None));
            let stale_release = Msg::BarrierRelease {
                vc: cvm_vclock::VClock::from(vec![7, 7]),
                records: vec![],
                races: Arc::new(vec![]),
                epoch: 99,
                term: 1,
            };
            let stale_seat = Msg::MasterHandoff {
                master: ProcId(1),
                epoch: 0,
                term: 1,
            };
            peer.send_msg(&ep1.sender(), ProcId(0), &stale_release)
                .unwrap();
            peer.send_msg(&ep1.sender(), ProcId(0), &stale_seat)
                .unwrap();
            peer.send_msg(&ep1.sender(), ProcId(0), &Msg::Shutdown)
                .unwrap();
        });
        let st = node.state.lock();
        assert_eq!(st.stale_msgs_fenced, 2, "both stale messages counted");
        assert_eq!(st.master, ProcId(0), "stale seat claim must not adopt");
        assert_eq!(st.seat_term, 2, "the term never moves backward");
        assert!(
            node.ctl.failure().is_none(),
            "fenced traffic must not fail the run: {:?}",
            node.ctl.failure()
        );
        drop(st);

        // A *current*-term handoff is the legitimate succession path: it
        // must still adopt (the fence is term-keyed, not a blanket drop).
        let mut st = node.state.lock();
        crate::barrier::on_master_handoff(&mut st, &node, ProcId(1), 0, 3)
            .expect("current-term handoff applies");
        assert_eq!(st.master, ProcId(1));
        assert_eq!(st.seat_term, 3);
        assert_eq!(st.stale_msgs_fenced, 2, "adoption is not a fence event");
    }

    /// Node 0 of two, after its real `service_loop` was handed `msg` (as
    /// sent by node 1) and then told to shut down.
    fn node_served(cfg: DsmConfig, msg: &Msg) -> Node {
        let (mut eps, _) = Network::new(2, NetConfig::default());
        let ep1 = eps.pop().expect("two endpoints");
        let ep0 = eps.pop().expect("two endpoints");
        let node = Node {
            state: Mutex::new(NodeCore::new(cfg.clone(), ProcId(0))),
            sender: ep0.sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        let mut peer = NodeCore::new(cfg, ProcId(1));
        std::thread::scope(|s| {
            s.spawn(|| service_loop(&node, ep0, None));
            peer.send_msg(&ep1.sender(), ProcId(0), msg).unwrap();
            peer.send_msg(&ep1.sender(), ProcId(0), &Msg::Shutdown)
                .unwrap();
        });
        node
    }

    #[test]
    fn page_ids_outside_the_segment_are_refused_at_dispatch() {
        // A forged request naming the last page id there is must not reach
        // a handler: the page table is a vector indexed by page id.
        let forged = [
            Msg::PageReadReq {
                page: cvm_page::PageId(u32::MAX),
                requester: ProcId(1),
            },
            Msg::BarrierArrive {
                from: ProcId(1),
                vc: cvm_vclock::VClock::from(vec![0, 1]),
                records: vec![Arc::new(cvm_race::make_interval(
                    1,
                    1,
                    vec![0, 1],
                    &[u32::MAX],
                    &[],
                ))],
            },
        ];
        for msg in forged {
            let node = node_served(DsmConfig::new(2), &msg);
            assert_eq!(
                node.ctl.failure(),
                Some(DsmError::Protocol {
                    context: "page id outside the shared segment"
                }),
                "{msg:?}"
            );
            let st = node.state.lock();
            assert_eq!(st.pages.resident(), 0, "nothing faulted into existence");
            assert!(st.home_owner.is_empty() && st.log.is_empty());
        }
    }

    #[test]
    fn diff_words_outside_the_page_are_refused_at_dispatch() {
        // A forged flush naming the word one past the page must not reach
        // `Diff::apply`, which indexes the master copy with it.
        let mut cfg = DsmConfig::new(2);
        cfg.protocol = crate::config::Protocol::MultiWriter;
        let forged = Msg::DiffFlush {
            writer: ProcId(1),
            interval: 1,
            diffs: vec![cvm_page::Diff {
                page: cvm_page::PageId(0),
                entries: vec![(0, 7), (cfg.geometry.page_words as u32, 9)],
            }],
        };
        let node = node_served(cfg, &forged);
        assert_eq!(
            node.ctl.failure(),
            Some(DsmError::Protocol {
                context: "diff word outside the page"
            })
        );
        let st = node.state.lock();
        assert_eq!(st.pages.resident(), 0, "no master copy was created");
        assert!(st.mw_home.is_empty(), "no watermark moved");
    }
}
