//! Distributed locks with lazy-release-consistent grants.
//!
//! Each lock has a static manager (`lock % nprocs`).  Requests go to the
//! manager, which forwards them to the last process it sent the token
//! towards; holders chain at most one successor, forming a distributed
//! queue (the TreadMarks algorithm).  A grant carries the interval records
//! the requester lacks — this is where LRC piggybacks consistency
//! information on synchronization (paper §3.1).
//!
//! Interval boundaries: a *remote* acquire closes the current interval
//! before requesting (the acquire begins a new interval whose stamp must
//! reflect the merged knowledge); an unlock always closes the current
//! interval (the release point that orders prior accesses before any
//! future acquirer).  Re-acquiring a cached token creates no interval —
//! there is no remote synchronization to order against, and program order
//! already covers local accesses.

use crossbeam::channel::bounded;
use cvm_vclock::{ProcId, VClock};

use crate::error::DsmError;
use crate::fault;
use crate::msg::Msg;
use crate::node::{LockLocal, LockMgr, NodeCore};
use crate::pages::Node;
use crate::simtime::OverheadCat;

impl NodeCore {
    fn lock_local(&mut self, lock: u32) -> &mut LockLocal {
        let is_mgr = self.manager_of(lock) == self.proc;
        self.locks.entry(lock).or_insert_with(|| LockLocal {
            // The manager starts out holding every token it manages.
            have_token: is_mgr,
            ..LockLocal::default()
        })
    }

    fn lock_mgr(&mut self, lock: u32) -> &mut LockMgr {
        debug_assert_eq!(self.manager_of(lock), self.proc);
        let me = self.proc;
        self.lock_mgr.entry(lock).or_insert(LockMgr { last: me })
    }
}

/// Application-thread `lock()`.
pub(crate) fn app_lock(node: &Node, lock: u32) {
    fault::halt_if_stopped(&node.ctl);
    let mut st = node.state.lock();
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, c.lock_handling);
    // Recording/replaying runs disable token caching: a cached-token
    // reacquire bypasses the manager and therefore the schedule, which
    // would leave the recorded grant order an incomplete account of the
    // critical-section order (and replay unable to reproduce it exactly).
    let cache_ok = !st.cfg.record_sync && st.cfg.replay.is_none();
    {
        let l = st.lock_local(lock);
        assert!(!l.held, "recursive lock({lock})");
        if l.have_token && cache_ok {
            l.held = true;
            st.stats.locks_local += 1;
            if st.cfg.trace {
                // A cached-token reacquire pairs with our own release:
                // program order already covers it.
                st.trace
                    .push(cvm_race::trace::TraceEvent::Acquire { lock, from: None });
            }
            return;
        }
    }
    st.stats.locks_remote += 1;
    let me = st.proc;
    let deadline = st.cfg.op_deadline;
    // Remote acquire: interval boundary (close now; reopen at grant, after
    // the merge).
    let r = st.close_interval(&node.sender);
    fault::check(node, me, r);
    let (tx, rx) = bounded(1);
    st.lock_local(lock).waiter = Some(tx);
    let vc = st.vc.clone();
    let mgr = st.manager_of(lock);
    let r = if mgr == me {
        mgr_handle_req(&mut st, node, lock, me, vc)
    } else {
        let msg = Msg::LockReq {
            lock,
            requester: me,
            vc,
        };
        st.send_msg(&node.sender, mgr, &msg)
    };
    fault::check(node, me, r);
    drop(st);
    fault::await_signal(node, &rx, deadline, me, "lock grant");
}

/// Application-thread `unlock()`.
pub(crate) fn app_unlock(node: &Node, lock: u32) {
    let mut st = node.state.lock();
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, c.lock_handling);
    {
        let l = st.lock_local(lock);
        assert!(l.held, "unlock({lock}) without holding it");
        l.held = false;
    }
    let me = st.proc;
    // Release point: close the interval so its record is available to the
    // next acquirer, and snapshot the released knowledge — a later grant
    // must not carry anything newer (happens-before-1 orders the acquirer
    // after the release, not after the grant).
    let r = st.close_interval(&node.sender);
    fault::check(node, me, r);
    st.open_interval();
    if st.cfg.trace {
        st.trace.push(cvm_race::trace::TraceEvent::Release { lock });
        let idx = (st.trace.len() - 1) as u32;
        st.trace_last_release.insert(lock, idx);
    }
    let release_vc = st.vc.clone();
    st.lock_local(lock).release_vc = Some(release_vc);
    if let Some((succ, vc)) = st.lock_local(lock).successor.take() {
        let r = grant(&mut st, node, lock, succ, &vc);
        fault::check(node, me, r);
    }
}

/// Manager-side request handling, including replay gating (§6.1).
pub(crate) fn mgr_handle_req(
    st: &mut NodeCore,
    node: &Node,
    lock: u32,
    requester: ProcId,
    vc: VClock,
) -> Result<(), DsmError> {
    if let Some(cursor) = &st.replay {
        if let Some(expected) = cursor.expected(lock) {
            if expected != requester {
                // Ahead of its recorded turn: hold it back.
                st.replay_pending
                    .entry(lock)
                    .or_default()
                    .push((requester, vc));
                return Ok(());
            }
        }
    }
    forward(st, node, lock, requester, vc)?;
    // Forwarding may unblock held-back requests in recorded order.
    loop {
        let expected = match &st.replay {
            Some(cursor) => cursor.expected(lock),
            None => None,
        };
        let Some(expected) = expected else { break };
        let Some(pending) = st.replay_pending.get_mut(&lock) else {
            break;
        };
        let Some(pos) = pending.iter().position(|(p, _)| *p == expected) else {
            break;
        };
        let (p, pvc) = pending.remove(pos);
        if pending.is_empty() {
            // Drop drained queues: the barrier-cut snapshot asserts no
            // replay holds are live, and a stale empty entry would trip it.
            st.replay_pending.remove(&lock);
        }
        forward(st, node, lock, p, pvc)?;
    }
    Ok(())
}

fn forward(
    st: &mut NodeCore,
    node: &Node,
    lock: u32,
    requester: ProcId,
    vc: VClock,
) -> Result<(), DsmError> {
    if st.cfg.record_sync {
        st.sched_rec.record(lock, requester);
    }
    if let Some(cursor) = &mut st.replay {
        if cursor.expected(lock) == Some(requester) {
            cursor.advance(lock);
        }
    }
    let last = {
        let mgr = st.lock_mgr(lock);
        let last = mgr.last;
        mgr.last = requester;
        last
    };
    // `last == requester` happens when the tail re-requests a token it
    // still caches (recording/replay runs disable the local fast path):
    // the forward goes back to the requester, which self-grants.
    if last == st.proc {
        handle_fwd(st, node, lock, requester, vc)
    } else {
        let msg = Msg::LockFwd {
            lock,
            requester,
            vc,
        };
        st.send_msg(&node.sender, last, &msg)
    }
}

/// A forwarded request arriving at the (believed) token holder.
pub(crate) fn handle_fwd(
    st: &mut NodeCore,
    node: &Node,
    lock: u32,
    requester: ProcId,
    vc: VClock,
) -> Result<(), DsmError> {
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, c.lock_handling);
    let can_grant = {
        let l = st.lock_local(lock);
        l.have_token && !l.held && l.successor.is_none()
    };
    if can_grant {
        grant(st, node, lock, requester, &vc)
    } else {
        let l = st.lock_local(lock);
        if l.successor.is_some() {
            return Err(DsmError::Protocol {
                context: "second lock successor queued at one node",
            });
        }
        l.successor = Some((requester, vc));
        Ok(())
    }
}

fn grant(
    st: &mut NodeCore,
    node: &Node,
    lock: u32,
    to: ProcId,
    to_vc: &VClock,
) -> Result<(), DsmError> {
    let release_vc = {
        let l = st.lock_local(lock);
        debug_assert!(l.have_token && !l.held);
        l.have_token = false;
        l.release_vc.clone()
    };
    // No release yet (the manager's pristine token): the acquire imposes
    // no ordering and carries no consistency information.
    let vc = release_vc.unwrap_or_else(|| VClock::new(st.cfg.nprocs));
    let records = st.records_between(to_vc, &vc);
    // Trace pairing: which of our Release events this grant hands over
    // (None for a pristine token).
    let trace_from = if st.cfg.trace {
        st.trace_last_release.get(&lock).map(|&idx| (st.proc, idx))
    } else {
        None
    };
    let msg = Msg::LockGrant {
        lock,
        records,
        vc,
        trace_from,
    };
    st.send_msg(&node.sender, to, &msg)
}

/// A grant arriving at a blocked requester.
pub(crate) fn handle_grant(
    st: &mut NodeCore,
    lock: u32,
    records: Vec<std::sync::Arc<cvm_race::Interval>>,
    vc: VClock,
    trace_from: Option<(ProcId, u32)>,
) -> Result<(), DsmError> {
    st.apply_records(records, &vc);
    st.open_interval();
    if st.cfg.trace {
        st.trace.push(cvm_race::trace::TraceEvent::Acquire {
            lock,
            from: trace_from,
        });
    }
    let waiter = {
        let l = st.lock_local(lock);
        l.have_token = true;
        l.held = true;
        l.waiter.take()
    };
    let Some(tx) = waiter else {
        return Err(DsmError::Protocol {
            context: "lock grant without a waiting acquirer",
        });
    };
    let _ = tx.send(());
    // Grant records are the only retained-state growth between barriers;
    // meter them against the budget here.
    st.check_budget()
}

/// Reacts to a peer declared dead by the reliability layer: any lock we
/// manage whose token was last forwarded toward the dead peer is
/// reclaimed at the manager (the paper's CVM left recovery to the
/// application; here the manager re-arms so surviving requesters get a
/// grant instead of waiting on a corpse), and successor chains pointing
/// at the dead peer are dropped.  Queued successors that the reclaimed
/// token can now serve are granted immediately.
pub(crate) fn handle_peer_death(
    st: &mut NodeCore,
    node: &Node,
    peer: ProcId,
) -> Result<(), DsmError> {
    let me = st.proc;
    let reclaimed: Vec<u32> = st
        .lock_mgr
        .iter()
        .filter(|(_, m)| m.last == peer)
        .map(|(&l, _)| l)
        .collect();
    for lock in &reclaimed {
        if let Some(m) = st.lock_mgr.get_mut(lock) {
            m.last = me;
        }
        st.lock_local(*lock).have_token = true;
    }
    let chained: Vec<u32> = st.locks.keys().copied().collect();
    for lock in chained {
        let l = st.lock_local(lock);
        if l.successor.as_ref().is_some_and(|(s, _)| *s == peer) {
            l.successor = None;
        }
        let can_grant = l.have_token && !l.held && l.successor.is_some();
        if can_grant {
            if let Some((succ, vc)) = st.lock_local(lock).successor.take() {
                grant(st, node, lock, succ, &vc)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cvm_net::wire::Wire;
    use cvm_net::{NetConfig, Network};
    use parking_lot::Mutex;

    use super::*;
    use crate::config::DsmConfig;
    use crate::fault::ClusterCtl;

    fn manager_node(nprocs: usize) -> (Node, Vec<cvm_net::Endpoint>) {
        let (eps, _) = Network::new(nprocs, NetConfig::default());
        let node = Node {
            state: Mutex::new(NodeCore::new(DsmConfig::new(nprocs), ProcId(0))),
            sender: eps[0].sender(),
            ctl: Arc::new(ClusterCtl::default()),
        };
        (node, eps)
    }

    fn recv_msg(ep: &cvm_net::Endpoint) -> Msg {
        let pkt = ep.recv().expect("delivery");
        Msg::from_bytes(&pkt.payload).expect("decodes")
    }

    #[test]
    fn dead_holder_token_is_reclaimed_and_regranted() {
        // P0 manages lock 0; P1 acquires it, dies holding it; P2's request
        // must then be served from the reclaimed token, not queue forever
        // behind the corpse.
        let (node, eps) = manager_node(3);
        let mut st = node.state.lock();
        let vc = VClock::new(3);
        mgr_handle_req(&mut st, &node, 0, ProcId(1), vc.clone()).unwrap();
        assert!(matches!(recv_msg(&eps[1]), Msg::LockGrant { lock: 0, .. }));
        assert_eq!(st.lock_mgr[&0].last, ProcId(1));
        assert!(!st.locks[&0].have_token, "token left with P1");

        handle_peer_death(&mut st, &node, ProcId(1)).unwrap();
        assert_eq!(st.lock_mgr[&0].last, ProcId(0), "manager re-armed");
        assert!(st.locks[&0].have_token, "token reclaimed");

        mgr_handle_req(&mut st, &node, 0, ProcId(2), vc).unwrap();
        assert!(matches!(recv_msg(&eps[2]), Msg::LockGrant { lock: 0, .. }));
        assert_eq!(st.lock_mgr[&0].last, ProcId(2));
    }

    #[test]
    fn successor_chain_to_dead_peer_is_dropped() {
        // P0 holds the lock with P1 chained as successor; P1 dies before
        // the release, so the chain entry must evaporate (a release would
        // otherwise grant into the void and strand the token).
        let (node, _eps) = manager_node(3);
        let mut st = node.state.lock();
        st.lock_local(0).held = true;
        handle_fwd(&mut st, &node, 0, ProcId(1), VClock::new(3)).unwrap();
        assert!(st.locks[&0].successor.is_some());

        handle_peer_death(&mut st, &node, ProcId(1)).unwrap();
        assert!(st.locks[&0].successor.is_none(), "dead successor dropped");
        assert!(st.locks[&0].held, "our own hold is untouched");
    }

    #[test]
    fn queued_survivor_is_granted_when_holder_dies() {
        // The reclaimed token immediately serves a surviving successor
        // queued at the manager (P2 asked while P1 held the token; P1's
        // death must not orphan P2's request).
        let (node, eps) = manager_node(3);
        let mut st = node.state.lock();
        let vc = VClock::new(3);
        mgr_handle_req(&mut st, &node, 0, ProcId(1), vc.clone()).unwrap();
        assert!(matches!(recv_msg(&eps[1]), Msg::LockGrant { lock: 0, .. }));
        // P2's request forwards to P1 (the believed holder) — simulate the
        // in-flight request by chaining P2 at the manager as if P1 had
        // forwarded the token back before dying.
        st.lock_local(0).successor = Some((ProcId(2), vc));

        handle_peer_death(&mut st, &node, ProcId(1)).unwrap();
        assert!(
            matches!(recv_msg(&eps[2]), Msg::LockGrant { lock: 0, .. }),
            "reclaimed token must serve the queued survivor"
        );
        assert!(!st.locks[&0].have_token, "token handed to P2");
    }
}
