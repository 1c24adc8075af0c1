//! Metered in-process links: the bounded-queue primitive behind every
//! transport channel.
//!
//! The simulated cluster's channels used to be plain unbounded crossbeam
//! channels, which meant a slow or partitioned consumer let its producers
//! queue without limit — the exact failure mode the paper's §4 GC
//! discipline exists to prevent for detection metadata.  [`metered_link`]
//! wraps a channel with a shared depth gauge and a high-water mark, so
//! every queue in the transport is *observable*: the resource report can
//! state the deepest any link ever got, and tests can assert boundedness
//! instead of hoping for it.
//!
//! Backpressure itself is enforced one layer up, by the reliability
//! engine's credit window (see [`crate::reliable`]): the window keeps the
//! number of in-flight datagrams per link at or below the configured
//! capacity, so these queues stay shallow by protocol rather than by
//! blocking sends (the vendored channel stub cannot block).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};

/// Creates a metered link whose high-water mark is folded into
/// `high_water` (shared across all links of one fabric: the mark records
/// the deepest *any* of them got).
pub(crate) fn metered_link<T>(high_water: Arc<AtomicU64>) -> (LinkTx<T>, LinkRx<T>) {
    let (tx, rx) = channel::unbounded();
    let depth = Arc::new(AtomicU64::new(0));
    (
        LinkTx {
            tx,
            depth: Arc::clone(&depth),
            high_water,
        },
        LinkRx { rx, depth },
    )
}

/// Sending half of a metered link.
pub(crate) struct LinkTx<T> {
    tx: Sender<T>,
    depth: Arc<AtomicU64>,
    high_water: Arc<AtomicU64>,
}

// Manual impl: `#[derive(Clone)]` would demand `T: Clone`.
impl<T> Clone for LinkTx<T> {
    fn clone(&self) -> Self {
        LinkTx {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            high_water: Arc::clone(&self.high_water),
        }
    }
}

impl<T> LinkTx<T> {
    /// Sends, accounting the queue depth; on a closed link the depth
    /// charge is rolled back before the error is reported.
    pub(crate) fn send(&self, value: T) -> Result<(), channel::SendError<T>> {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        match self.tx.send(value) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Receiving half of a metered link.
pub(crate) struct LinkRx<T> {
    rx: Receiver<T>,
    depth: Arc<AtomicU64>,
}

impl<T> LinkRx<T> {
    fn took(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Blocking receive.
    pub(crate) fn recv(&self) -> Result<T, channel::RecvError> {
        let v = self.rx.recv()?;
        self.took();
        Ok(v)
    }

    /// Receive with a timeout (std-mpsc error type, matching the channel
    /// stub's implementation).
    pub(crate) fn recv_timeout(&self, d: Duration) -> Result<T, std::sync::mpsc::RecvTimeoutError> {
        let v = self.rx.recv_timeout(d)?;
        self.took();
        Ok(v)
    }

    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let v = self.rx.try_recv()?;
        self.took();
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_and_high_water_track_queueing() {
        let hw = Arc::new(AtomicU64::new(0));
        let (tx, rx) = metered_link::<u32>(Arc::clone(&hw));
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(hw.load(Ordering::Relaxed), 5);
        for i in 0..5 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        // Draining does not lower the high-water mark.
        assert_eq!(hw.load(Ordering::Relaxed), 5);
        assert_eq!(rx.depth.load(Ordering::Relaxed), 0);
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 9);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        assert!(rx.recv_timeout(Duration::from_millis(1)).is_err());
    }

    #[test]
    fn shared_mark_records_deepest_link() {
        let hw = Arc::new(AtomicU64::new(0));
        let (a_tx, _a_rx) = metered_link::<u8>(Arc::clone(&hw));
        let (b_tx, _b_rx) = metered_link::<u8>(Arc::clone(&hw));
        a_tx.send(1).unwrap();
        for i in 0..3 {
            b_tx.send(i).unwrap();
        }
        assert_eq!(hw.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn closed_link_rolls_back_depth() {
        let hw = Arc::new(AtomicU64::new(0));
        let (tx, rx) = metered_link::<u8>(Arc::clone(&hw));
        drop(rx);
        // Note: depth on a dead link is moot, but it must not wedge high.
        assert!(tx.send(1).is_err());
        assert_eq!(tx.depth.load(Ordering::Relaxed), 0);
    }
}
