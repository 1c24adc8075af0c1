//! The shared-memory access path and page coherence protocols.
//!
//! Applications access shared memory a word at a time through
//! [`shared_access`] or a contiguous run of words at a time through
//! [`shared_run`]; the software page table stands in for `mprotect`:
//! an access without sufficient rights raises a *software fault* handled
//! exactly as CVM's SIGSEGV handler would — by fetching data or rights
//! from the page's home/owner and retrying.
//!
//! **Single-writer** (the paper's baseline): one writable copy per page;
//! a static home node tracks the current owner and forwards requests;
//! ownership transfers carry the page contents.  Requests that reach a
//! node whose own ownership transfer is still in flight are queued and
//! drained after the local access completes (FIFO links make the queue
//! hold at most reads followed by one ownership transfer).
//!
//! **Multi-writer** (home-based): any node upgrades a readable copy to
//! writable locally by twinning; diffs flush to the home at interval
//! close; faulting nodes fetch the master copy from the home, gated on
//! the write notices they have already seen (so a fetch never returns a
//! copy missing a diff the requester's clock requires).

use std::sync::Arc;

use crossbeam::channel::bounded;
use cvm_page::{Frame, GAddr, PageId, Protection, SHARED_BASE, WORD_BYTES};
use cvm_vclock::ProcId;
use parking_lot::{Mutex, MutexGuard};

use crate::config::Protocol;
use crate::error::DsmError;
use crate::fault::{self, ClusterCtl};
use crate::msg::Msg;
use crate::node::{NodeCore, QueuedPageReq};
use crate::simtime::OverheadCat;

/// One simulated node: protocol state, its sending half, and the shared
/// run-wide failure/teardown control block.
pub(crate) struct Node {
    pub state: Mutex<NodeCore>,
    pub sender: cvm_net::NetSender,
    pub ctl: Arc<ClusterCtl>,
}

/// The words of one access: a read fills them, a write stores them.
pub(crate) enum Words<'a> {
    Read(&'a mut [u64]),
    Write(&'a [u64]),
}

impl Words<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Words::Read(out) => out.len(),
            Words::Write(src) => src.len(),
        }
    }

    /// Words `from .. from + k` of the run.
    fn part(&mut self, from: usize, k: usize) -> Words<'_> {
        match self {
            Words::Read(out) => Words::Read(&mut out[from..from + k]),
            Words::Write(src) => Words::Write(&src[from..from + k]),
        }
    }
}

/// Application-thread shared access.  Returns the value read (or the value
/// written, for writes).
///
/// # Panics
///
/// Panics if `addr` lies outside the shared segment: the page table is
/// bounded by the segment, and an access past it is an application bug, not
/// a fault to service.
pub(crate) fn shared_access(node: &Node, addr: GAddr, write: bool, value: u64, site: u32) -> u64 {
    let mut word = [value];
    let words = if write {
        Words::Write(&word)
    } else {
        Words::Read(&mut word)
    };
    let st = node.state.lock();
    let (page, at) = locate_run(&st, addr, 1);
    access_segment(node, st, addr, page, at, words, site);
    word[0]
}

/// Application-thread access to `words.len()` consecutive shared words
/// starting at `addr`: the per-access routine executed once per word, with
/// the bookkeeping batched.  The run is walked page segment by page segment;
/// each segment takes the node lock once and leaves exactly what its words
/// accessed one at a time would — counters, cycles, notices, bitmap bits,
/// twins, faults — so the service thread gets in between segments, and a
/// fault mid-run re-enters at the segment that raised it.  Runs carry no
/// access-site id: a §6.1 watchpoint hit inside one reports site 0.
///
/// # Panics
///
/// Panics if any word of the run lies outside the shared segment.
pub(crate) fn shared_run(node: &Node, addr: GAddr, mut words: Words<'_>) {
    let n = words.len();
    let mut done = 0;
    while done < n {
        let st = node.state.lock();
        let from = addr.word(done as u64);
        let (page, at) = locate_run(&st, from, n - done);
        let k = (st.cfg.geometry.page_words - at).min(n - done);
        access_segment(node, st, from, page, at, words.part(done, k), 0);
        done += k;
    }
}

/// Splits `addr` into page and word, vouching that `n` words from there lie
/// inside the segment.
#[inline]
fn locate_run(st: &NodeCore, addr: GAddr, n: usize) -> (PageId, usize) {
    let at = st.cfg.geometry.locate(addr);
    let capacity = st.cfg.shared_capacity;
    assert!(
        (addr.0 - SHARED_BASE).saturating_add(n as u64 * WORD_BYTES) <= capacity,
        "shared access of {n} word(s) at {addr} outside the segment [{}, {})",
        GAddr(SHARED_BASE),
        GAddr(SHARED_BASE.saturating_add(capacity)),
    );
    at
}

/// One page segment of a run (`words` start at word `word` of `page`, which
/// holds them all): charge, track, then perform the access under the page's
/// protection, faulting and retrying until it allows it.  Always inlined: in
/// the one-word caller the length is then a constant and the slice copy a
/// single move.
#[inline(always)]
fn access_segment<'a>(
    node: &'a Node,
    mut st: MutexGuard<'a, NodeCore>,
    addr: GAddr,
    page: PageId,
    word: usize,
    mut words: Words<'_>,
    site: u32,
) {
    let k = words.len();
    let write = matches!(words, Words::Write(_));
    let access = st.cfg.costs.access;
    st.clock.add(OverheadCat::Base, k as u64 * access);
    st.track_run(addr, page, word, k, write, site);
    loop {
        let NodeCore {
            cfg,
            pages,
            cur,
            stats,
            pending_local_write,
            ..
        } = &mut *st;
        if let Some(frame) = pages.frame_mut(page) {
            match (&mut words, frame.prot) {
                (Words::Read(out), Protection::Read | Protection::Write) => {
                    stats.shared_reads += k as u64;
                    out.copy_from_slice(&frame.data[word..word + k]);
                    return;
                }
                (Words::Write(src), Protection::Write) => {
                    if !cur.is_dirty(page) {
                        if cfg.protocol == Protocol::MultiWriter {
                            frame.ensure_twin();
                        }
                        cur.note_dirty(page);
                    }
                    stats.shared_writes += k as u64;
                    frame.data[word..word + k].copy_from_slice(src);
                    if !pending_local_write.is_empty() && pending_local_write.remove(&page) {
                        let me = st.proc;
                        let r = drain_page_queue(&mut st, node, page);
                        fault::check(node, me, r);
                    }
                    return;
                }
                (Words::Write(src), Protection::Read) if cfg.protocol == Protocol::MultiWriter => {
                    // Local upgrade: twin and write; no messages (the whole
                    // point of multiple writers).
                    frame.ensure_twin();
                    frame.prot = Protection::Write;
                    cur.note_dirty(page);
                    stats.shared_writes += k as u64;
                    frame.data[word..word + k].copy_from_slice(src);
                    return;
                }
                _ => {}
            }
        }
        st = fault(node, st, page, write);
    }
}

/// Takes a software page fault: resolves it locally when possible, or
/// sends the request and blocks until the reply installs the page.
/// Returns with the state lock re-acquired; the caller retries.
fn fault<'a>(
    node: &'a Node,
    mut st: MutexGuard<'a, NodeCore>,
    page: PageId,
    write: bool,
) -> MutexGuard<'a, NodeCore> {
    let c = st.cfg.costs;
    st.clock.add(OverheadCat::Base, c.fault);
    if write {
        st.stats.write_faults += 1;
    } else {
        st.stats.read_faults += 1;
    }
    let me = st.proc;
    let home = st.home_of(page);
    let deadline = st.cfg.op_deadline;

    match st.cfg.protocol {
        Protocol::SingleWriter => {
            if home == me {
                let owner = st.owner_of(page);
                if owner == me {
                    // First touch at the home: install a zeroed frame; the
                    // home starts out owning its pages.
                    debug_assert!(
                        st.pages.frame(page).is_none(),
                        "home owner with a resident frame cannot fault"
                    );
                    st.pages.install_zeroed(page, Protection::Write);
                    return st;
                }
                // Forward straight to the owner (we are the home).
                let (tx, rx) = bounded(1);
                st.page_wait.insert(page, tx);
                let r = if write {
                    st.home_owner.insert(page, me);
                    let msg = Msg::PageOwnFwd {
                        page,
                        requester: me,
                    };
                    st.send_msg(&node.sender, owner, &msg)
                } else {
                    let msg = Msg::PageReadFwd {
                        page,
                        requester: me,
                    };
                    st.send_msg(&node.sender, owner, &msg)
                };
                fault::check(node, me, r);
                drop(st);
                fault::await_signal(node, &rx, deadline, me, "page reply");
                node.state.lock()
            } else {
                let (tx, rx) = bounded(1);
                st.page_wait.insert(page, tx);
                let msg = if write {
                    Msg::PageOwnReq {
                        page,
                        requester: me,
                    }
                } else {
                    Msg::PageReadReq {
                        page,
                        requester: me,
                    }
                };
                let r = st.send_msg(&node.sender, home, &msg);
                fault::check(node, me, r);
                drop(st);
                fault::await_signal(node, &rx, deadline, me, "page reply");
                node.state.lock()
            }
        }
        Protocol::MultiWriter => {
            let needed: Vec<(ProcId, u32)> = st.mw_seen.get(&page).cloned().unwrap_or_default();
            if home == me {
                let satisfied = {
                    let h = st.mw_home.entry(page).or_default();
                    needed
                        .iter()
                        .all(|(p, idx)| h.applied.get(p).copied().unwrap_or(0) >= *idx)
                };
                if satisfied {
                    if st.pages.frame(page).is_none() {
                        st.pages.install_zeroed(page, Protection::Read);
                    } else {
                        st.pages.protect(page, Protection::Read);
                    }
                    return st;
                }
                // Wait for the missing diffs to arrive at ourselves.
                let (tx, rx) = bounded(1);
                st.mw_home
                    .get_mut(&page)
                    .expect("entry created above")
                    .local_waiter = Some((tx, needed));
                drop(st);
                fault::await_signal(node, &rx, deadline, me, "diff wait");
                node.state.lock()
            } else {
                let (tx, rx) = bounded(1);
                st.page_wait.insert(page, tx);
                let msg = Msg::PageFetchReq {
                    page,
                    requester: me,
                    needed,
                };
                let r = st.send_msg(&node.sender, home, &msg);
                fault::check(node, me, r);
                drop(st);
                fault::await_signal(node, &rx, deadline, me, "page fetch");
                node.state.lock()
            }
        }
    }
}

/// Services remote requests deferred while our own ownership transfer was
/// in flight (called after the local access completes).
pub(crate) fn drain_page_queue(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
) -> Result<(), DsmError> {
    let Some(queue) = st.page_queue.remove(&page) else {
        return Ok(());
    };
    for req in queue {
        match req {
            QueuedPageReq::Read(requester) => reply_read(st, node, page, requester)?,
            QueuedPageReq::Own(requester) => transfer_ownership(st, node, page, requester)?,
        }
    }
    Ok(())
}

fn page_data(st: &mut NodeCore, page: PageId) -> Vec<u64> {
    let c = st.cfg.costs;
    let data = st
        .pages
        .frame(page)
        .expect("serving a page we do not hold")
        .data
        .to_vec();
    st.clock
        .add(OverheadCat::Base, data.len() as u64 * c.copy_per_word);
    st.stats.pages_sent += 1;
    data
}

fn reply_read(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
) -> Result<(), DsmError> {
    let data = page_data(st, page);
    st.send_msg(&node.sender, requester, &Msg::PageReadReply { page, data })
}

fn transfer_ownership(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
) -> Result<(), DsmError> {
    debug_assert!(
        st.pages.protection(page).writable(),
        "transfer by non-owner"
    );
    let data = page_data(st, page);
    st.pages.protect(page, Protection::Read);
    st.send_msg(&node.sender, requester, &Msg::PageOwnReply { page, data })
}

/// Home node: a read-copy request (single-writer).
pub(crate) fn on_page_read_req(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
) -> Result<(), DsmError> {
    debug_assert_eq!(st.home_of(page), st.proc);
    let owner = st.owner_of(page);
    if owner == st.proc {
        // First genuine touch installs the zeroed master copy; if our own
        // ownership reclaim is in flight the fwd handler defers instead.
        if st.pages.frame(page).is_none() && !st.page_wait.contains_key(&page) {
            st.pages.install_zeroed(page, Protection::Write);
        }
        on_page_read_fwd(st, node, page, requester)
    } else {
        let msg = Msg::PageReadFwd { page, requester };
        st.send_msg(&node.sender, owner, &msg)
    }
}

/// Home node: an ownership request (single-writer).
pub(crate) fn on_page_own_req(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
) -> Result<(), DsmError> {
    debug_assert_eq!(st.home_of(page), st.proc);
    let owner = st.owner_of(page);
    st.home_owner.insert(page, requester);
    if owner == st.proc {
        if st.pages.frame(page).is_none() && !st.page_wait.contains_key(&page) {
            st.pages.install_zeroed(page, Protection::Write);
        }
        on_page_own_fwd(st, node, page, requester)
    } else {
        let msg = Msg::PageOwnFwd { page, requester };
        st.send_msg(&node.sender, owner, &msg)
    }
}

/// Believed owner: a forwarded read-copy request.
pub(crate) fn on_page_read_fwd(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
) -> Result<(), DsmError> {
    if st.page_wait.contains_key(&page)
        || st.pending_local_write.contains(&page)
        || !st.pages.protection(page).writable()
    {
        // Our own ownership transfer is still in flight: defer.
        st.page_queue
            .entry(page)
            .or_default()
            .push_back(QueuedPageReq::Read(requester));
        Ok(())
    } else {
        reply_read(st, node, page, requester)
    }
}

/// Believed owner: a forwarded ownership request.
pub(crate) fn on_page_own_fwd(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
) -> Result<(), DsmError> {
    if st.page_wait.contains_key(&page)
        || st.pending_local_write.contains(&page)
        || !st.pages.protection(page).writable()
    {
        st.page_queue
            .entry(page)
            .or_default()
            .push_back(QueuedPageReq::Own(requester));
        Ok(())
    } else {
        transfer_ownership(st, node, page, requester)
    }
}

/// Faulting node: page contents arrive (read copy or ownership).
///
/// # Errors
///
/// [`DsmError::Protocol`] for a reply that is not one page long or that no
/// local fault is waiting for; the node's state is untouched in both cases.
pub(crate) fn on_page_reply(
    st: &mut NodeCore,
    page: PageId,
    data: Vec<u64>,
    own: bool,
) -> Result<(), DsmError> {
    if data.len() != st.cfg.geometry.page_words {
        return Err(DsmError::Protocol {
            context: "page reply of the wrong length",
        });
    }
    let Some(tx) = st.page_wait.remove(&page) else {
        return Err(DsmError::Protocol {
            context: "page reply without a waiting fault",
        });
    };
    let prot = if own {
        st.pending_local_write.insert(page);
        Protection::Write
    } else {
        Protection::Read
    };
    st.pages.install(page, Frame::from_data(data, prot));
    let _ = tx.send(());
    Ok(())
}

/// Home node: a multi-writer fetch, gated on required diffs.
pub(crate) fn on_page_fetch_req(
    st: &mut NodeCore,
    node: &Node,
    page: PageId,
    requester: ProcId,
    needed: Vec<(ProcId, u32)>,
) -> Result<(), DsmError> {
    debug_assert_eq!(st.home_of(page), st.proc);
    let satisfied = {
        let h = st.mw_home.entry(page).or_default();
        needed
            .iter()
            .all(|(p, idx)| h.applied.get(p).copied().unwrap_or(0) >= *idx)
    };
    if satisfied {
        st.reply_mw_fetch(&node.sender, page, requester)
    } else {
        st.mw_home
            .get_mut(&page)
            .expect("entry created above")
            .waiting
            .push((requester, needed));
        Ok(())
    }
}

/// Home node: diffs arriving from a remote writer.
pub(crate) fn on_diff_flush(
    st: &mut NodeCore,
    node: &Node,
    writer: ProcId,
    interval: u32,
    diffs: Vec<cvm_page::Diff>,
) -> Result<(), DsmError> {
    let c = st.cfg.costs;
    for diff in diffs {
        let page = diff.page;
        debug_assert_eq!(st.home_of(page), st.proc);
        if st.pages.frame(page).is_none() {
            // Master copies survive invalidation (data retained), but the
            // very first touch may come from a remote writer.
            st.pages.install_zeroed(page, Protection::Invalid);
        }
        st.clock
            .add(OverheadCat::Base, diff.len() as u64 * c.diff_per_word);
        let frame = st.pages.frame_mut(page).expect("just ensured");
        // The master copy is also the home's working copy.  While the home
        // holds a twin, its own diff at interval close must be its own
        // stores only, so the twin follows every word the home has not
        // changed this interval; a word it has changed keeps its twin
        // value, and with it the home's write bit.
        if let Some(twin) = frame.twin.as_mut() {
            for &(w, v) in &diff.entries {
                let w = w as usize;
                if twin[w] == frame.data[w] {
                    twin[w] = v;
                }
            }
        }
        diff.apply(&mut frame.data);
        let h = st.mw_home.entry(page).or_default();
        let e = h.applied.entry(writer).or_insert(0);
        *e = (*e).max(interval);
    }
    st.service_mw_waiters(&node.sender)?;
    // A barrier checkpoint deferred on these very watermarks may now be
    // able to complete (no-op when none is pending).
    crate::checkpoint::maybe_complete(st, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsmConfig;
    use cvm_net::{NetConfig, Network};
    use cvm_vclock::ProcId;

    fn two_nodes() -> (Node, Node, Vec<cvm_net::Endpoint>) {
        let cfg = DsmConfig::new(2);
        let (eps, _) = Network::new(2, NetConfig::default());
        let n0 = Node {
            state: Mutex::new(NodeCore::new(cfg.clone(), ProcId(0))),
            sender: eps[0].sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        let n1 = Node {
            state: Mutex::new(NodeCore::new(cfg, ProcId(1))),
            sender: eps[1].sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        (n0, n1, eps)
    }

    #[test]
    fn home_first_touch_installs_owned_zeroed_page() {
        let (n0, _n1, _eps) = two_nodes();
        // Page 0 is homed at P0; a local write fault self-resolves.
        let g = n0.state.lock().cfg.geometry;
        let addr = g.addr_of(PageId(0), 3);
        let v = shared_access(&n0, addr, true, 99, 0);
        assert_eq!(v, 99);
        let st = n0.state.lock();
        assert_eq!(st.pages.protection(PageId(0)), Protection::Write);
        assert_eq!(st.pages.read_word(PageId(0), 3), 99);
        assert!(st.cur.is_dirty(PageId(0)));
        assert_eq!(st.stats.write_faults, 1);
        assert_eq!(st.stats.shared_writes, 1);
    }

    #[test]
    fn read_after_write_hits_locally() {
        let (n0, _n1, _eps) = two_nodes();
        let g = n0.state.lock().cfg.geometry;
        let addr = g.addr_of(PageId(0), 0);
        shared_access(&n0, addr, true, 7, 0);
        let v = shared_access(&n0, addr, false, 0, 0);
        assert_eq!(v, 7);
        // Second access takes no fault.
        assert_eq!(n0.state.lock().stats.read_faults, 0);
    }

    #[test]
    #[should_panic(expected = "outside the segment [0x100000000, 0x104000000)")]
    fn access_past_the_segment_panics_with_the_limit() {
        let (n0, _n1, _eps) = two_nodes();
        let capacity = n0.state.lock().cfg.shared_capacity;
        shared_access(&n0, GAddr(SHARED_BASE + capacity), false, 0, 0);
    }

    #[test]
    #[should_panic(
        expected = "shared access of 2 word(s) at 0x103fffff8 outside the segment [0x100000000, 0x104000000)"
    )]
    fn run_past_the_segment_panics_with_the_limit() {
        let (n0, _n1, _eps) = two_nodes();
        let capacity = n0.state.lock().cfg.shared_capacity;
        // The first word is the segment's last; the second is past it.
        let last = GAddr(SHARED_BASE + capacity - WORD_BYTES);
        shared_run(&n0, last, Words::Write(&[1, 2]));
    }

    #[test]
    fn empty_run_touches_nothing_and_charges_nothing() {
        let (n0, _n1, _eps) = two_nodes();
        let capacity = n0.state.lock().cfg.shared_capacity;
        for addr in [GAddr(SHARED_BASE), GAddr(SHARED_BASE + capacity)] {
            shared_run(&n0, addr, Words::Read(&mut []));
            shared_run(&n0, addr, Words::Write(&[]));
        }
        let st = n0.state.lock();
        assert_eq!(st.clock.now(), 0);
        assert_eq!(st.analysis.total_calls(), 0);
        assert_eq!(st.pages.resident(), 0);
        assert_eq!(st.stats.read_faults + st.stats.write_faults, 0);
        assert!(st.cur.dirty_pages().is_empty() && st.cur.read_pages().is_empty());
    }

    #[test]
    fn watched_word_inside_a_run_is_one_hit() {
        let (n0, _n1, _eps) = two_nodes();
        let g = n0.state.lock().cfg.geometry;
        n0.state.lock().cfg.detect.watch = Some(crate::config::Watch {
            addr: g.addr_of(PageId(0), 9),
            epoch: 0,
        });
        let mut buf = [0; 8];
        // Words 4..12 hold the watched one; 10..18 and 1..9 do not.
        shared_run(&n0, g.addr_of(PageId(0), 4), Words::Read(&mut buf));
        shared_run(&n0, g.addr_of(PageId(0), 10), Words::Read(&mut buf));
        shared_run(&n0, g.addr_of(PageId(0), 1), Words::Write(&buf));
        let st = n0.state.lock();
        assert_eq!(st.watch_hits.len(), 1);
        assert!(!st.watch_hits[0].write);
    }

    #[test]
    fn stray_page_reply_leaves_the_node_untouched() {
        let (n0, _n1, _eps) = two_nodes();
        let mut st = n0.state.lock();
        let words = st.cfg.geometry.page_words;
        let err = on_page_reply(&mut st, PageId(1), vec![0; words], true).unwrap_err();
        assert_eq!(
            err,
            DsmError::Protocol {
                context: "page reply without a waiting fault"
            }
        );
        assert_eq!(st.pages.resident(), 0);
        assert!(st.pending_local_write.is_empty());
    }

    #[test]
    fn misshapen_page_reply_is_an_error_and_keeps_the_fault_waiting() {
        let (n0, _n1, _eps) = two_nodes();
        let mut st = n0.state.lock();
        let (tx, rx) = bounded(1);
        st.page_wait.insert(PageId(1), tx);
        let words = st.cfg.geometry.page_words;
        let err = on_page_reply(&mut st, PageId(1), vec![0; words - 1], true).unwrap_err();
        assert_eq!(
            err,
            DsmError::Protocol {
                context: "page reply of the wrong length"
            }
        );
        assert_eq!(st.pages.resident(), 0);
        assert!(st.pending_local_write.is_empty());
        assert!(st.page_wait.contains_key(&PageId(1)));
        assert!(rx.try_recv().is_err(), "the faulting thread was not woken");
        // The well-formed reply still lands.
        on_page_reply(&mut st, PageId(1), vec![7; words], true).unwrap();
        assert_eq!(st.pages.protection(PageId(1)), Protection::Write);
        assert!(st.pending_local_write.contains(&PageId(1)));
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn remote_request_queues_while_ownership_in_flight() {
        let (n0, _n1, _eps) = two_nodes();
        let mut st = n0.state.lock();
        // Simulate an in-flight local fault on page 0.
        let (tx, _rx) = bounded(1);
        st.page_wait.insert(PageId(0), tx);
        on_page_read_fwd(&mut st, &n0, PageId(0), ProcId(1)).unwrap();
        assert_eq!(st.page_queue[&PageId(0)].len(), 1);
        on_page_own_fwd(&mut st, &n0, PageId(0), ProcId(1)).unwrap();
        assert_eq!(st.page_queue[&PageId(0)].len(), 2);
    }
}

#[cfg(test)]
mod mw_tests {
    use super::*;
    use crate::config::{DsmConfig, Protocol};
    use cvm_net::{NetConfig, Network};
    use cvm_vclock::ProcId;

    fn mw_node(proc: u16) -> (Node, Vec<cvm_net::Endpoint>) {
        let mut cfg = DsmConfig::new(2);
        cfg.protocol = Protocol::MultiWriter;
        let (eps, _) = Network::new(2, NetConfig::default());
        let node = Node {
            state: Mutex::new(NodeCore::new(cfg, ProcId(proc))),
            sender: eps[proc as usize].sender(),
            ctl: Arc::new(ClusterCtl::new()),
        };
        (node, eps)
    }

    #[test]
    fn fetch_waits_for_required_diffs() {
        // Home = P0 for page 0.  A fetch needing P1's interval 3 must not
        // be answered until that diff arrives.
        let (home, eps) = mw_node(0);
        {
            let mut st = home.state.lock();
            on_page_fetch_req(&mut st, &home, PageId(0), ProcId(1), vec![(ProcId(1), 3)]).unwrap();
            assert_eq!(
                st.mw_home[&PageId(0)].waiting.len(),
                1,
                "fetch must queue until the diff arrives"
            );
            // Diff for interval 2 is not enough.
            on_diff_flush(
                &mut st,
                &home,
                ProcId(1),
                2,
                vec![cvm_page::Diff {
                    page: PageId(0),
                    entries: vec![(0, 7)],
                }],
            )
            .unwrap();
            assert_eq!(st.mw_home[&PageId(0)].waiting.len(), 1);
            // Interval 3 satisfies the gate; the reply goes out.
            on_diff_flush(
                &mut st,
                &home,
                ProcId(1),
                3,
                vec![cvm_page::Diff {
                    page: PageId(0),
                    entries: vec![(1, 9)],
                }],
            )
            .unwrap();
            assert!(st.mw_home[&PageId(0)].waiting.is_empty());
            assert_eq!(st.stats.pages_sent, 1);
        }
        // The reply carries the master copy with both diffs applied.
        use cvm_net::wire::Wire as _;
        let pkt = eps[1].try_recv().expect("fetch reply sent");
        let decoded = crate::msg::Msg::from_bytes(&pkt.payload).unwrap();
        match decoded {
            crate::msg::Msg::PageFetchReply { page, data } => {
                assert_eq!(page, PageId(0));
                assert_eq!(data[0], 7);
                assert_eq!(data[1], 9);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    #[test]
    fn fetch_with_no_requirements_answers_immediately() {
        let (home, eps) = mw_node(0);
        {
            let mut st = home.state.lock();
            on_page_fetch_req(&mut st, &home, PageId(0), ProcId(1), vec![]).unwrap();
            assert!(st
                .mw_home
                .get(&PageId(0))
                .is_none_or(|h| h.waiting.is_empty()));
        }
        assert!(eps[1].try_recv().is_ok(), "immediate reply expected");
    }

    /// The home stores to `home_word` of its page 0, then a peer's diff
    /// writes `remote_word`; returns the write bits of the home's closed
    /// interval under diff-derived write detection (§6.5).
    fn home_write_bits(home_word: usize, remote_word: u32) -> Vec<usize> {
        let (home, _eps) = mw_node(0);
        home.state.lock().cfg.detect.write_detection = crate::config::WriteDetection::Diffs;
        let g = home.state.lock().cfg.geometry;
        shared_access(&home, g.addr_of(PageId(0), home_word), true, 9, 0);
        let mut st = home.state.lock();
        let diff = cvm_page::Diff {
            page: PageId(0),
            entries: vec![(remote_word, 5)],
        };
        on_diff_flush(&mut st, &home, ProcId(1), 1, vec![diff]).unwrap();
        let id = cvm_vclock::IntervalId::new(ProcId(0), st.cur.index);
        st.close_interval(&home.sender).unwrap();
        st.bitmaps
            .get(id, PageId(0))
            .map_or(Vec::new(), |bm| bm.write.iter_set().collect())
    }

    #[test]
    fn home_does_not_claim_a_remote_diff_as_its_write() {
        assert_eq!(home_write_bits(3, 5), vec![3]);
    }

    #[test]
    fn remote_diff_over_a_home_store_keeps_the_home_write_bit() {
        assert_eq!(home_write_bits(3, 3), vec![3]);
    }
}
