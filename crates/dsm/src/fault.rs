//! Cluster-wide failure propagation.
//!
//! The original CVM ran over real UDP: peers could die, partitions could
//! form, and the system's end-to-end protocols had to surface that rather
//! than hang.  This module is the reproduction's equivalent: a shared
//! [`ClusterCtl`] carries the *first* failure diagnosed anywhere in the
//! cluster (first error wins; later ones are consequences), plus the
//! teardown flag that distinguishes real failures from the benign send
//! errors of an orderly shutdown.
//!
//! Application threads cannot return errors — the [`ProcHandle`]
//! (crate::ProcHandle) API mirrors CVM's (`read`/`write`/`lock`/`barrier`
//! return values, not `Result`s) — so a failing thread *unwinds* with the
//! private [`DsmUnwind`] sentinel, which `Cluster::run` catches and maps
//! to the recorded [`DsmError`].  A process-wide panic hook filters the
//! sentinel so failure unwinds are silent; genuine application panics
//! still print and propagate.
//!
//! Every blocking protocol wait goes through [`await_signal`] (or the
//! barrier-specific variant), which polls for the reply, watches the
//! failure cell, and enforces the per-operation deadline from
//! [`DsmConfig::op_deadline`](crate::DsmConfig::op_deadline) — so a dead
//! peer converts a would-be deadlock into a structured error within the
//! deadline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use cvm_vclock::ProcId;
use parking_lot::Mutex;

use crate::error::DsmError;
use crate::node::NodeCore;
use crate::pages::Node;

/// How often blocked application threads re-check the failure cell.
pub(crate) const APP_POLL: Duration = Duration::from_millis(1);

/// How often idle service threads re-check the teardown flag.
pub(crate) const SERVICE_POLL: Duration = Duration::from_millis(5);

/// External cancellation handle for a running cluster.
///
/// Clone the token, stash it in
/// [`DsmConfig::cancel`](crate::DsmConfig::cancel), and call
/// [`cancel`](CancelToken::cancel) from any thread: every node's service
/// loop and every application op's entry check read the flag and route
/// [`DsmError::Cancelled`] through the run-wide first-error cell, so a
/// running application thread unwinds at its next barrier, lock or page
/// fault, a blocked one within one poll interval, and `Cluster::run`
/// returns the structured error with a drained partial report — the same
/// orderly path a fault takes, minus the fault.  Cancellation is
/// level-triggered and idempotent; a token cancelled before the run starts
/// stops it at the first op or service poll.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every run holding this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Shared run-wide control block: first-failure cell + teardown flag, and
/// the run's external cancel token.
#[derive(Debug, Default)]
pub(crate) struct ClusterCtl {
    failure: Mutex<Option<DsmError>>,
    /// Set once `failure` holds an error: the lock-free read behind every
    /// application op's entry check.
    failed: AtomicBool,
    teardown: AtomicBool,
    cancel: Option<CancelToken>,
}

impl ClusterCtl {
    /// A control block that also watches `cancel` (see
    /// [`ClusterCtl::observe_cancel`]).
    pub(crate) fn watching(cancel: Option<CancelToken>) -> Self {
        ClusterCtl {
            cancel,
            ..ClusterCtl::default()
        }
    }

    /// Records `err` if no failure is recorded yet (first error wins —
    /// later errors are downstream consequences of the first).
    pub(crate) fn fail(&self, err: DsmError) {
        let mut cell = self.failure.lock();
        if cell.is_none() {
            *cell = Some(err);
            self.failed.store(true, Ordering::SeqCst);
        }
    }

    /// Routes a fired cancel token into the failure cell as
    /// [`DsmError::Cancelled`] (outside teardown, where a late cancel
    /// changes nothing).
    pub(crate) fn observe_cancel(&self) {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() && !self.tearing_down() {
                self.fail(DsmError::Cancelled);
            }
        }
    }

    /// During the seat-announcement round a peer death is a symptom, not
    /// the diagnosis: the seat could not assemble its ack majority.
    /// Replaces a recorded `NodeFailed` with the named `QuorumLost` so a
    /// minority-side master never surfaces a generic failure (or worse, a
    /// raw timeout) for what is structurally a lost quorum.
    pub(crate) fn reclassify_as_quorum_loss(&self, got: usize, needed: usize) {
        let mut cell = self.failure.lock();
        if matches!(*cell, Some(DsmError::NodeFailed { .. })) {
            *cell = Some(DsmError::QuorumLost { got, needed });
        }
    }

    /// The recorded failure, if any.
    pub(crate) fn failure(&self) -> Option<DsmError> {
        self.failure.lock().clone()
    }

    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Marks the start of orderly shutdown: send errors after this point
    /// are expected (peers exit at different times) and must not be
    /// recorded as failures.
    pub(crate) fn begin_teardown(&self) {
        self.teardown.store(true, Ordering::SeqCst);
    }

    pub(crate) fn tearing_down(&self) -> bool {
        self.teardown.load(Ordering::SeqCst)
    }
}

/// Panic payload marking a failure-driven unwind (the real error lives in
/// the [`ClusterCtl`]); filtered by the quiet panic hook.
pub(crate) struct DsmUnwind;

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that silences [`DsmUnwind`]
/// unwinds and delegates everything else to the previous hook.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<DsmUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Unwinds the calling application thread (failure already recorded).
pub(crate) fn unwind() -> ! {
    install_quiet_hook();
    std::panic::panic_any(DsmUnwind);
}

/// Unwinds the calling application thread if the run has failed or been
/// cancelled.  Every application protocol op (`barrier`, `lock`, a page
/// fault) checks on entry, so a stopped run ends at each thread's next op
/// — not at the next wait that happens to outlast [`APP_POLL`], which a
/// barrier whose processes arrive together never does.
pub(crate) fn halt_if_stopped(ctl: &ClusterCtl) {
    ctl.observe_cancel();
    if ctl.failed() {
        unwind();
    }
}

/// Records `err` as the cluster failure and unwinds the calling thread.
pub(crate) fn die(ctl: &ClusterCtl, err: DsmError) -> ! {
    ctl.fail(err);
    unwind();
}

/// A `Disconnected` send outside teardown means *this* node's wire
/// endpoint is gone — a scripted kill landing mid-protocol.  Every thread
/// that sends for node `me` (application, service, detection stage, the
/// driver's handoff round) names the death through here, so the failure is
/// the retryable [`DsmError::NodeFailed`] rather than a raw network error.
pub(crate) fn name_own_death(err: DsmError, me: ProcId) -> DsmError {
    match err {
        DsmError::Net(cvm_net::NetError::Disconnected) => DsmError::NodeFailed { proc: me.0 },
        other => other,
    }
}

/// Checks an application-side protocol result: `Ok` and teardown-time
/// errors pass, anything else fails the run (naming our own death) and
/// unwinds.
pub(crate) fn check(node: &Node, me: ProcId, result: Result<(), DsmError>) {
    let Err(err) = result else { return };
    if node.ctl.tearing_down() {
        return;
    }
    die(&node.ctl, name_own_death(err, me));
}

/// Blocks an application thread on a one-shot reply channel, polling the
/// failure cell and enforcing the operation deadline.
pub(crate) fn await_signal(
    node: &Node,
    rx: &Receiver<()>,
    wait: Duration,
    me: ProcId,
    op: &'static str,
) {
    let limit = Instant::now() + wait;
    loop {
        match rx.recv_timeout(APP_POLL) {
            Ok(()) => return,
            Err(RecvTimeoutError::Timeout) => {
                if node.ctl.failed() {
                    unwind();
                }
                if Instant::now() >= limit {
                    die(&node.ctl, DsmError::Timeout { op });
                }
            }
            // The reply sender vanished without signalling: our node's
            // protocol state was torn down under us.
            Err(RecvTimeoutError::Disconnected) => {
                die(&node.ctl, DsmError::NodeFailed { proc: me.0 });
            }
        }
    }
}

/// Polls `node`'s protocol state until `done` holds or `limit` passes.
/// The driver's bounded waits on the master (the handoff quorum, the
/// pipelined run-end drain) go through here.
pub(crate) fn await_state(node: &Node, limit: Instant, done: impl Fn(&NodeCore) -> bool) {
    while !done(&node.state.lock()) && Instant::now() < limit {
        std::thread::sleep(APP_POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_failure_wins() {
        let ctl = ClusterCtl::default();
        assert!(!ctl.failed());
        assert_eq!(ctl.failure(), None);
        ctl.fail(DsmError::NodeFailed { proc: 2 });
        ctl.fail(DsmError::Timeout { op: "late" });
        assert_eq!(ctl.failure(), Some(DsmError::NodeFailed { proc: 2 }));
    }

    #[test]
    fn teardown_flag_latches() {
        let ctl = ClusterCtl::default();
        assert!(!ctl.tearing_down());
        ctl.begin_teardown();
        assert!(ctl.tearing_down());
    }

    #[test]
    fn cancel_token_is_shared_and_idempotent() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        clone.cancel();
        assert!(t.is_cancelled(), "cancellation visible through all clones");
    }
}
