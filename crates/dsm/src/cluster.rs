//! Cluster construction, the service loop, and run orchestration.

use std::any::Any;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cvm_net::wire::Wire;
use cvm_net::{Endpoint, FaultPlan, NetError, Network, ReliabilityStats};
use cvm_page::{SegmentMap, SharedAlloc};
use cvm_vclock::ProcId;
use parking_lot::Mutex;

use crate::barrier::BarrierMaster;
use crate::checkpoint::CheckpointStore;
use crate::config::{DsmConfig, RecoveryPolicy};
use crate::error::{DsmError, RunError};
use crate::fault::{await_state, name_own_death, ClusterCtl, DsmUnwind, SERVICE_POLL};
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
        // Shared allocation happens exactly once: addresses are a pure
        // function of the allocation sequence, so restarted attempts reuse
        // the same address bundle (page *contents* come from the images).
        let mut alloc = SharedAlloc::new(cfg.geometry, cfg.shared_capacity);
        let app_state = setup(&mut alloc);
        let store = cfg
            .checkpointing()
            .then(|| Arc::new(CheckpointStore::with_retention(cfg.ckpt_retain, cfg.nprocs)));
        let mut attempt = Attempt::new(&cfg);
        let backoff_seed = attempt.plan.as_ref().map_or(0, |p| p.seed);
        let run = Run {
            cfg,
            app_state,
            body,
            segments: alloc.into_map(),
            store,
            started,
        };
        loop {
            let result = run_attempt(&run, &attempt);
            match attempt.settle(result, run.store.as_deref(), run.cfg.nprocs) {
                ControlFlow::Break(result) => return result,
                // Exponential backoff with seeded jitter before the next
                // attempt, so a persistent fault cannot spin the loop into
                // a recovery storm.
                ControlFlow::Continue(()) => std::thread::sleep(cvm_net::backoff_delay(
                    attempt.stats.recoveries,
                    backoff_seed,
                )),
            }
        }
    }
}

/// What every attempt of one run shares, built once.
struct Run<S, F> {
    cfg: DsmConfig,
    app_state: S,
    body: F,
    segments: SegmentMap,
    store: Option<Arc<CheckpointStore>>,
    started: Instant,
}

/// What carries from one attempt to the next.  [`Attempt::settle`] is the
/// whole between-attempt policy (rollback, succession, fault-plan
/// stripping, accounting) as a fold over attempt outcomes that touches no
/// thread and no clock.
struct Attempt {
    /// The barrier-master seat: proc 0 until a failover moves it.
    master: ProcId,
    /// The seat's monotone term: bumped on every re-seating, stamped into
    /// every master-originated message, and fenced by receivers — an old
    /// master reappearing across a healed partition speaks with a stale
    /// term and cannot drive detection.
    term: u64,
    /// The fault plan still armed.
    plan: Option<FaultPlan>,
    /// Recovery attempts left in the budget.
    retries_left: u64,
    /// The run's recovery counters, accumulated across attempts.
    stats: RecoveryStats,
}

impl Attempt {
    fn new(cfg: &DsmConfig) -> Self {
        Attempt {
            master: ProcId(0),
            term: 0,
            plan: cfg.net_loss.clone(),
            retries_left: match cfg.recovery {
                RecoveryPolicy::Abort => 0,
                RecoveryPolicy::Recover { max_attempts } => u64::from(max_attempts),
            },
            stats: RecoveryStats::default(),
        }
    }

    /// Folds one attempt's outcome into the run.  `Break` carries the run's
    /// result with every counter filled in; `Continue` means the store has
    /// been rolled back to its newest complete cut and the next attempt
    /// should start.  Only a node death is retried, and only with a store
    /// and budget left.
    fn settle(
        &mut self,
        result: Result<RunReport, RunError>,
        store: Option<&CheckpointStore>,
        nprocs: usize,
    ) -> ControlFlow<Result<RunReport, RunError>> {
        let report = match &result {
            Ok(r) => r,
            Err(e) => &*e.partial,
        };
        // A failed attempt's fences and rejoins are part of the run's
        // story even though its report is discarded.
        self.stats.stale_msgs_fenced += report.recovery.stale_msgs_fenced;
        self.stats.rejoin_restores += report.recovery.rejoin_restores;
        let retry = match (&result, store) {
            (Err(e), Some(s)) if self.retries_left > 0 => match e.error {
                DsmError::NodeFailed { proc } => Some((s, ProcId(proc))),
                _ => None,
            },
            _ => None,
        };
        let Some((store, died)) = retry else {
            // The attempt that stands counts its heals in-engine; a retried
            // one counts them at the strip below, so no window counts twice.
            self.stats.partitions_healed += report.reliability.map_or(0, |r| r.partitions_healed);
            if matches!(&result, Err(e) if matches!(e.error, DsmError::QuorumLost { .. })) {
                self.stats.quorum_losses += 1;
            }
            if let Some(s) = store {
                self.stats.checkpoints_taken = s.checkpoints_taken();
                self.stats.bytes_snapshotted = s.bytes_snapshotted();
            }
            let stats = self.stats;
            return ControlFlow::Break(match result {
                Ok(mut r) => {
                    r.recovery = stats;
                    Ok(r)
                }
                Err(mut e) => {
                    e.partial.recovery = stats;
                    Err(e)
                }
            });
        };
        self.retries_left -= 1;
        self.stats.recoveries += 1;
        // Drop any partial (inconsistent) cut the failed attempt deposited
        // before rolling back.
        let resume = store.last_complete_epoch(nprocs).unwrap_or(0);
        store.prune_above(resume);
        self.stats.epochs_replayed += report.barriers().saturating_sub(resume);
        // The master died, or the plan cut the master's interface.  In the
        // latter case *which* side's retransmits exhaust first (and hence
        // whose `NodeFailed` wins the failure cell) is a wall-clock race,
        // so any master-side cut re-seats.  Succession is deterministic:
        // the lowest-numbered node that is not the deposed master (which is
        // still restored from its image, as a worker), under a new term.
        let cut = self.plan.as_ref().is_some_and(|p| p.cuts(self.master));
        if (died == self.master || cut) && nprocs > 1 {
            let deposed = self.master;
            self.master = (0..nprocs as u16)
                .map(ProcId)
                .find(|p| *p != deposed)
                .expect("nprocs > 1 has a survivor");
            self.term += 1;
            self.stats.failovers += 1;
        }
        if let Some(p) = self.plan.as_mut() {
            self.stats.partitions_healed += p.strip_fired();
        }
        self.stats.backoff_waits += 1;
        ControlFlow::Continue(())
    }
}

/// One execution attempt: build the network and nodes (restoring from the
/// newest complete checkpoint cut, if any), run the application, collect.
fn run_attempt<S, F>(run: &Run<S, F>, attempt: &Attempt) -> Result<RunReport, RunError>
where
    S: Sync,
    F: Fn(&ProcHandle, &S) + Sync,
{
    let Run {
        cfg,
        app_state,
        body,
        store,
        ..
    } = run;
    let store = store.as_ref();
    let Attempt { master, term, .. } = *attempt;
    let nprocs = cfg.nprocs;
    let mi = master.index();
    let (endpoints, net_stats, rstats): (_, _, Option<Arc<ReliabilityStats>>) = match &attempt.plan
    {
        None => {
            let (eps, stats) = Network::new(nprocs, cfg.net);
            (eps, stats, None)
        }
        Some(plan) => {
            let (eps, stats, rstats) = Network::with_loss(nprocs, cfg.net, plan.clone());
            (eps, stats, Some(rstats))
        }
    };
    let shutdown_txs: Vec<cvm_net::NetSender> = endpoints.iter().map(Endpoint::sender).collect();

    let resume = store.and_then(|s| s.last_complete_epoch(nprocs));
    let ctl = Arc::new(ClusterCtl::watching(cfg.cancel.clone()));
    // Pipelined detection: the master's barrier feeds a dedicated stage
    // thread (spawned below) through this channel.
    let mut stage_rx = None;
    let mut rejoin_restores = 0u64;
    let nodes: Vec<Arc<Node>> = endpoints
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let proc = ProcId::from_index(i);
            let mut core = NodeCore::new(cfg.clone(), proc);
            if i == mi {
                let mut bm = BarrierMaster::new(nprocs);
                if core.detection_pipelined() {
                    let (tx, rx) = crossbeam::channel::unbounded();
                    bm.pipe = Some(crate::pipeline::PipelineState::new(tx));
                    stage_rx = Some(rx);
                }
                core.barrier = Some(bm);
            }
            if let Some(schedule) = &cfg.replay {
                core.replay = Some(ReplayCursor::new(schedule.clone()));
            }
            if let Some(plan) = &attempt.plan {
                // Scripted protocol-window strikes aimed at this node: the
                // transport carries them, this layer fires them.
                core.phase_kills = plan.phase_strikes(proc);
            }
            if let Some(s) = store {
                core.ckpt = Some(Arc::clone(s));
                if let Some(epoch) = resume {
                    let img = s
                        .image(epoch, proc.0)
                        .expect("complete epoch has every node's image");
                    crate::checkpoint::restore(&mut core, &img);
                    // The cut-time master lost the seat since this cut was
                    // taken: it was cut off from the re-seating (dead or
                    // partitioned) and now rejoins from the agreed cut at
                    // the current term, as a worker.
                    if core.master == proc && core.master != master {
                        rejoin_restores += 1;
                    }
                    // A failover moved the seat since this cut was taken:
                    // the detector's accumulated statistics live in the
                    // cut-time master's image (workers carry zeros), so the
                    // successor adopts them — together with its own
                    // restored race log, that is the full master state
                    // reconstructed from the cut.
                    if i == mi && core.master != master {
                        if let Some(prev) = s.image(epoch, core.master.0) {
                            core.det_stats = prev.det_stats;
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
    let pipelined = stage_rx.is_some();

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
                // A stage panic is a protocol failure, not a node death:
                // naming it keeps the diagnosis honest (nothing crashed the
                // *node*) and keeps it non-retryable — a panicking detector
                // would panic identically on replay.  Blocked peers observe
                // the error cell within one poll interval, so the run ends
                // well inside the op deadline instead of hanging on the
                // stall gate.
                if r.is_err() && !ctl.tearing_down() {
                    ctl.fail(DsmError::Protocol {
                        context: "detection stage thread panicked",
                    });
                }
            });
        }
        // Seat-announcement round: on a recovery attempt the master
        // (re-seated or not) broadcasts `MasterHandoff` with its view of
        // the resume epoch and the seat's term, and holds the epoch loop
        // until a strict majority of the configured nodes (its own seat
        // included) agrees.  A would-be master that cannot assemble that
        // quorum is on the minority side of a partition: it surfaces the
        // named `QuorumLost`, never a raw timeout, and never drives
        // detection.
        if attempt.stats.recoveries > 0 && nprocs > 1 {
            let epoch = resume.unwrap_or(0);
            let sent = {
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
            match sent {
                Err(err) => ctl.fail(name_own_death(err, master)),
                Ok(()) => {
                    let needed = nprocs / 2 + 1;
                    let acked = |st: &NodeCore| st.handoff_acks + 1;
                    let limit = Instant::now() + cfg.op_deadline;
                    await_state(&nodes[mi], limit, |st| acked(st) >= needed || ctl.failed());
                    // Short of the majority at the deadline, or with a peer
                    // declared dead meanwhile: either way the quorum loss
                    // itself, which names the failure.
                    let got = acked(&nodes[mi].state.lock());
                    if got < needed {
                        ctl.reclassify_as_quorum_loss(got, needed);
                        ctl.fail(DsmError::QuorumLost { got, needed });
                    }
                }
            }
        }
        // Application threads.  A failing thread unwinds with the
        // `DsmUnwind` sentinel (the diagnosis is already in the control
        // block); a *genuine* application panic fails the run as the node's
        // death and is re-thrown after the drain.
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
        // Reports are delivered one epoch deferred, so the final epoch's
        // detection may still be in flight; drain it while the worker
        // service threads (which answer the bitmap round) are still up,
        // then flush the deferred reports into the master's race log.  A
        // failed run gets a short bounded drain — dead peers will never
        // answer.
        if pipelined {
            let grace = if ctl.failed() {
                Duration::from_millis(200)
            } else {
                cfg.op_deadline
            };
            await_state(&nodes[mi], Instant::now() + grace, |st| {
                crate::pipeline::pending_epochs(st) == 0
            });
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

    // Transport- and store-side marks (read before `rstats` moves into the
    // report).  Host scheduling moves them, so they go to `ResourceStats`,
    // which `RunReport::schedule_free` leaves out, and not to a counter set.
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
        reliability: rstats.map(|r| r.snapshot()),
        segments: run.segments.clone(),
        schedule,
        watch_hits,
        traces,
        recovery: RecoveryStats {
            stale_msgs_fenced: stale_fenced,
            rejoin_restores,
            ..RecoveryStats::default()
        },
        resources,
        wall: run.started.elapsed(),
    };
    match ctl.failure() {
        Some(error) => Err(RunError {
            error,
            partial: Box::new(report),
        }),
        None => Ok(report),
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
    let (op_deadline, segment_pages, page_words) = {
        let st = node.state.lock();
        (
            st.cfg.op_deadline,
            st.pages.segment_pages(),
            st.cfg.geometry.page_words,
        )
    };
    let mut watchdog = Watchdog::default();
    loop {
        // External cancellation: checked every dispatch iteration (not just
        // idle polls) so a busy node still drains within one message.
        node.ctl.observe_cancel();
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use cvm_net::NetConfig;

    use super::*;
    use crate::fault::ClusterCtl;

    /// One attempt's report as `settle` sees it: `barriers` epochs run,
    /// `healed` windows healed in-engine, one stale message fenced and one
    /// node rejoined.
    fn attempt_report(barriers: u64, healed: u64) -> RunReport {
        RunReport {
            nodes: vec![NodeReport {
                proc: ProcId(0),
                stats: crate::node::NodeStats {
                    barriers,
                    ..Default::default()
                },
                cycles: 0,
                cats: Default::default(),
                shared_calls: 0,
                private_calls: 0,
            }],
            races: cvm_race::RaceLog::new(),
            det_stats: cvm_race::DetectorStats::default(),
            net: cvm_net::StatsSnapshot::default(),
            reliability: Some(cvm_net::ReliabilitySnapshot {
                partitions_healed: healed,
                ..Default::default()
            }),
            segments: SegmentMap::default(),
            schedule: crate::replay::SyncSchedule::new(),
            watch_hits: Vec::new(),
            traces: Vec::new(),
            recovery: RecoveryStats {
                stale_msgs_fenced: 1,
                rejoin_restores: 1,
                ..RecoveryStats::default()
            },
            resources: ResourceStats::default(),
            wall: Duration::ZERO,
        }
    }

    fn failed(error: DsmError, barriers: u64) -> Result<RunReport, RunError> {
        Err(RunError {
            error,
            partial: Box::new(attempt_report(barriers, 0)),
        })
    }

    /// A fresh attempt of an `nprocs`-node run with `max_attempts`
    /// recoveries and `plan` armed.
    fn attempt(nprocs: usize, max_attempts: u32, plan: Option<FaultPlan>) -> Attempt {
        let mut cfg = DsmConfig::new(nprocs);
        cfg.recovery = RecoveryPolicy::Recover { max_attempts };
        cfg.net_loss = plan;
        Attempt::new(&cfg)
    }

    /// A store holding complete cuts `1..=complete` of `nprocs` nodes and a
    /// partial cut above them (proc 0's image only).
    fn cut_store(nprocs: usize, complete: u64) -> CheckpointStore {
        let store = CheckpointStore::new();
        for epoch in 1..=complete {
            for p in 0..nprocs as u16 {
                store.put(epoch, p, vec![0; 8]);
            }
        }
        store.put(complete + 1, 0, vec![0; 8]);
        store
    }

    fn done(flow: ControlFlow<Result<RunReport, RunError>>) -> Result<RunReport, RunError> {
        match flow {
            ControlFlow::Break(result) => result,
            ControlFlow::Continue(()) => panic!("expected the run to end"),
        }
    }

    #[test]
    fn master_death_moves_the_seat_and_worker_death_does_not() {
        let store = cut_store(3, 2);
        let mut a = attempt(3, 5, None);
        let seat = |a: &Attempt| (a.master, a.term, a.stats.failovers);
        let died = |proc| failed(DsmError::NodeFailed { proc }, 3);
        assert!(a.settle(died(0), Some(&store), 3).is_continue());
        assert_eq!(seat(&a), (ProcId(1), 1, 1), "lowest survivor, next term");
        assert!(a.settle(died(2), Some(&store), 3).is_continue());
        assert_eq!(seat(&a), (ProcId(1), 1, 1), "a worker death keeps the seat");
        // The successor dying hands the seat on to the lowest node that is
        // not it: the restored first master.
        assert!(a.settle(died(1), Some(&store), 3).is_continue());
        assert_eq!(seat(&a), (ProcId(0), 2, 2));
        assert_eq!(a.stats.recoveries, 3);
        // A single node has no one to hand the seat to.
        let mut solo = attempt(1, 1, None);
        assert!(solo
            .settle(died(0), Some(&cut_store(1, 1)), 1)
            .is_continue());
        assert_eq!(seat(&solo), (ProcId(0), 0, 0));
    }

    #[test]
    fn a_plan_cutting_the_master_reseats_it_when_a_worker_death_wins() {
        let store = cut_store(3, 2);
        let plan = FaultPlan::clean(7).with_partition_healed(ProcId(0), 80, 100_000);
        let mut a = attempt(3, 5, Some(plan));
        assert!(a
            .settle(failed(DsmError::NodeFailed { proc: 2 }, 3), Some(&store), 3)
            .is_continue());
        assert_eq!((a.master, a.term, a.stats.failovers), (ProcId(1), 1, 1));
        // The healed window was stripped: the next worker death is only that.
        assert!(a
            .settle(failed(DsmError::NodeFailed { proc: 2 }, 3), Some(&store), 3)
            .is_continue());
        assert_eq!((a.master, a.term, a.stats.failovers), (ProcId(1), 1, 1));
        // A cut elsewhere says nothing about the master.
        let plan = FaultPlan::clean(7).with_partition(ProcId(2), 40);
        let mut a = attempt(3, 5, Some(plan));
        assert!(a
            .settle(failed(DsmError::NodeFailed { proc: 2 }, 3), Some(&store), 3)
            .is_continue());
        assert_eq!((a.master, a.stats.failovers), (ProcId(0), 0));
    }

    #[test]
    fn fired_events_are_stripped_and_each_heal_counted_once() {
        use cvm_net::{CorruptKind, FaultEvent, ProtocolPhase};
        let store = cut_store(3, 2);
        let plan = FaultPlan::new(0.1, 7)
            .with_kill(ProcId(2), 30)
            .with_kill_at_phase(ProcId(1), ProtocolPhase::BitmapRound, 0)
            .with_partition_healed(ProcId(1), 10, 20)
            .with_partition_healed(ProcId(2), 5, 50)
            .with_partition(ProcId(2), 100)
            .with_slow_consumer(ProcId(1), 0, Duration::from_millis(1))
            .with_corrupt_at(ProcId(0), 3, CorruptKind::BitFlip);
        let mut a = attempt(3, 5, Some(plan));
        // The retried attempt's in-engine heals are the same windows the
        // strip counts: only the strip's count stands.
        let retried = Err(RunError {
            error: DsmError::NodeFailed { proc: 2 },
            partial: Box::new(attempt_report(3, 7)),
        });
        assert!(a.settle(retried, Some(&store), 3).is_continue());
        assert_eq!(a.stats.partitions_healed, 2);
        let left = a.plan.as_ref().expect("plan stays armed");
        assert_eq!(left.drop_rate, 0.1, "loss is kept");
        assert_eq!(
            left.events,
            vec![
                FaultEvent::Partition {
                    node: ProcId(2),
                    at_datagram: 100,
                    heal_at: None
                },
                FaultEvent::SlowConsumer {
                    node: ProcId(1),
                    at_datagram: 0,
                    dwell: Duration::from_millis(1)
                },
                FaultEvent::CorruptAt {
                    node: ProcId(0),
                    at_frame: 3,
                    kind: CorruptKind::BitFlip
                },
            ]
        );
        // The attempt that stands counts its own heals in-engine.
        let report = done(a.settle(Ok(attempt_report(3, 1)), Some(&store), 3)).unwrap();
        assert_eq!(report.recovery.partitions_healed, 3);
    }

    #[test]
    fn terminal_outcomes_return_with_every_counter_filled_in() {
        let store = cut_store(3, 2);
        let full = |quorum_losses| RecoveryStats {
            checkpoints_taken: store.checkpoints_taken(),
            bytes_snapshotted: store.bytes_snapshotted(),
            recoveries: 1,
            epochs_replayed: 1,
            failovers: 1,
            backoff_waits: 1,
            partitions_healed: 0,
            stale_msgs_fenced: 2,
            quorum_losses,
            rejoin_restores: 2,
        };
        // A lost quorum is counted and not retried.
        let mut a = attempt(3, 5, None);
        let _ = a.settle(failed(DsmError::NodeFailed { proc: 0 }, 3), Some(&store), 3);
        let lost = DsmError::QuorumLost { got: 1, needed: 2 };
        let err = done(a.settle(failed(lost.clone(), 3), Some(&store), 3)).unwrap_err();
        assert_eq!(err.error, lost);
        assert_eq!(err.partial.recovery, full(1));
        // Neither is a protocol violation or a cancellation.
        for error in [DsmError::Protocol { context: "test" }, DsmError::Cancelled] {
            let mut a = attempt(3, 5, None);
            let _ = a.settle(failed(DsmError::NodeFailed { proc: 0 }, 3), Some(&store), 3);
            let err = done(a.settle(failed(error.clone(), 3), Some(&store), 3)).unwrap_err();
            assert_eq!(err.error, error);
            assert_eq!(err.partial.recovery, full(0));
        }
        // An exhausted budget returns the node death itself.
        let mut a = attempt(3, 1, None);
        let _ = a.settle(failed(DsmError::NodeFailed { proc: 0 }, 3), Some(&store), 3);
        let err = done(a.settle(failed(DsmError::NodeFailed { proc: 2 }, 3), Some(&store), 3))
            .unwrap_err();
        assert_eq!(err.error, DsmError::NodeFailed { proc: 2 });
        assert_eq!(err.partial.recovery, full(0));
        // Without a store there is no cut to roll back to.
        let mut a = attempt(3, 5, None);
        let err = done(a.settle(failed(DsmError::NodeFailed { proc: 0 }, 3), None, 3)).unwrap_err();
        assert_eq!(
            err.partial.recovery,
            RecoveryStats {
                stale_msgs_fenced: 1,
                rejoin_restores: 1,
                ..RecoveryStats::default()
            }
        );
    }

    #[test]
    fn rollback_resumes_from_the_newest_complete_cut() {
        let store = cut_store(3, 3);
        assert_eq!(store.max_epoch(), Some(4), "a partial cut sits above");
        let mut a = attempt(3, 5, None);
        assert!(a
            .settle(failed(DsmError::NodeFailed { proc: 1 }, 6), Some(&store), 3)
            .is_continue());
        assert_eq!(a.stats.epochs_replayed, 3, "epochs 4..=6 run again");
        assert_eq!(store.max_epoch(), Some(3), "the partial cut is pruned");
        assert_eq!(store.last_complete_epoch(3), Some(3));
    }

    fn idle_node() -> (Node, Vec<Endpoint>) {
        let (eps, _) = Network::new(2, NetConfig::default());
        let node = Node {
            state: Mutex::new(NodeCore::new(DsmConfig::new(2), ProcId(0))),
            sender: eps[0].sender(),
            ctl: Arc::new(ClusterCtl::default()),
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
            ctl: Arc::new(ClusterCtl::default()),
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
            ctl: Arc::new(ClusterCtl::default()),
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
