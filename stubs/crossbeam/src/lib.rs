//! Offline drop-in subset of the `crossbeam` crate.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so the handful of external dependencies are replaced by local
//! stubs implementing exactly the API surface the workspace uses (see
//! `stubs/README.md`).  Channels are re-exports of `std::sync::mpsc`
//! (which has been backed by crossbeam's queue implementation since Rust
//! 1.72, including a `Sync` sender).  Upstream's multi-channel select macro
//! is deliberately absent: a consumer with several sources merges them
//! into one channel of an enum and blocks on that (see
//! `cvm_net::reliable`).

/// Multi-producer single-consumer channels (`std::sync::mpsc` re-exports).
pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, TryRecvError};

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }

    /// Creates a channel with a capacity hint.
    ///
    /// The stub backs this with an unbounded queue: `send` never blocks.
    /// The workspace only uses `bounded(1)` for one-shot wakeup signals,
    /// where the capacity bound is irrelevant.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn unbounded_roundtrip() {
        let (tx, rx) = channel::unbounded();
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn sender_is_sync_and_clone() {
        fn assert_sync_clone<T: Sync + Clone>(_: &T) {}
        let (tx, _rx) = channel::unbounded::<u32>();
        assert_sync_clone(&tx);
    }
}
