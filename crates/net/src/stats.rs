//! Per-traffic-class byte and message accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Classification of protocol traffic, used to attribute bandwidth.
///
/// The paper's Table 3 reports the *message overhead* of race detection as
/// the bandwidth added by read notices relative to the rest of the traffic;
/// the extra bitmap round at barriers is accounted separately (it feeds the
/// "Bitmaps" bar of Figure 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum TrafficClass {
    /// Page contents and diffs.
    Data = 0,
    /// Synchronization and consistency metadata (lock grants, barrier
    /// arrivals/releases, write notices, version vectors).
    Sync = 1,
    /// Read notices added by the race detector (paper modification ii).
    ReadNotice = 2,
    /// Access bitmaps transferred in the extra barrier round (mod iii).
    Bitmap = 3,
    /// Everything else (requests, control).
    Control = 4,
}

/// Number of traffic classes.
pub const NCLASSES: usize = 5;

impl TrafficClass {
    /// All classes, in discriminant order.
    pub const ALL: [TrafficClass; NCLASSES] = [
        TrafficClass::Data,
        TrafficClass::Sync,
        TrafficClass::ReadNotice,
        TrafficClass::Bitmap,
        TrafficClass::Control,
    ];
}

/// Byte counts of one message, split by traffic class.
///
/// A single lock-grant message mixes classes: its consistency metadata is
/// [`TrafficClass::Sync`] while the read notices riding along are
/// [`TrafficClass::ReadNotice`].  Senders therefore describe each packet
/// with a breakdown rather than one class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteBreakdown(pub [u64; NCLASSES]);

impl ByteBreakdown {
    /// A breakdown with all bytes in one class.
    pub fn single(class: TrafficClass, bytes: u64) -> Self {
        let mut b = ByteBreakdown::default();
        b.0[class as usize] = bytes;
        b
    }

    /// Adds `bytes` to `class`.
    pub fn add(&mut self, class: TrafficClass, bytes: u64) {
        self.0[class as usize] += bytes;
    }

    /// Total bytes across classes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Bytes in `class`.
    pub fn get(&self, class: TrafficClass) -> u64 {
        self.0[class as usize]
    }
}

// A breakdown rides inside every reliable-transport datagram (the frame
// carries the packet's accounting to the receiver), so it needs a wire
// form: the five class counters in discriminant order.
crate::wire! { struct ByteBreakdown(0) }

/// Shared, thread-safe network statistics.
#[derive(Debug, Default)]
pub struct NetStats {
    msgs: AtomicU64,
    bytes: [AtomicU64; NCLASSES],
    /// Deepest any transport link queue ever got (shared gauge across all
    /// of this network's metered links).  Kept out of [`StatsSnapshot`]:
    /// queue depth is timing-dependent, and the snapshot must stay
    /// byte-identical across identically-seeded runs.
    link_high_water: Arc<AtomicU64>,
}

impl NetStats {
    /// Creates a fresh statistics block behind an [`Arc`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Self> {
        Arc::new(NetStats::default())
    }

    /// Deepest any of this network's link queues ever got, in messages.
    pub fn link_high_water(&self) -> u64 {
        self.link_high_water.load(Ordering::Relaxed)
    }

    /// The shared gauge the network's metered links feed.
    pub(crate) fn link_gauge(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.link_high_water)
    }

    /// Records one message with the given byte breakdown.
    pub fn record(&self, breakdown: &ByteBreakdown) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        for (slot, &b) in self.bytes.iter().zip(&breakdown.0) {
            if b > 0 {
                slot.fetch_add(b, Ordering::Relaxed);
            }
        }
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            msgs: self.msgs.load(Ordering::Relaxed),
            bytes: core::array::from_fn(|i| self.bytes[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of [`NetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total messages sent.
    pub msgs: u64,
    /// Bytes sent, per traffic class.
    pub bytes: [u64; NCLASSES],
}

impl StatsSnapshot {
    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes in one class.
    pub fn class_bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class as usize]
    }

    /// The paper's Table 3 "Msg Ohead": bandwidth added by read notices as
    /// a fraction of all *other* traffic.
    pub fn read_notice_overhead(&self) -> f64 {
        let rn = self.class_bytes(TrafficClass::ReadNotice) as f64;
        let rest = (self.total_bytes() - self.class_bytes(TrafficClass::ReadNotice)) as f64;
        if rest == 0.0 {
            0.0
        } else {
            rn / rest
        }
    }

    /// Read-notice bandwidth relative to *synchronization* traffic only
    /// (consistency metadata, excluding page data and bitmap rounds) — the
    /// overhead as felt by the messages the notices actually ride on.
    pub fn read_notice_sync_overhead(&self) -> f64 {
        let rn = self.class_bytes(TrafficClass::ReadNotice) as f64;
        let sync = self.class_bytes(TrafficClass::Sync) as f64;
        if sync == 0.0 {
            0.0
        } else {
            rn / sync
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates() {
        let mut b = ByteBreakdown::single(TrafficClass::Sync, 100);
        b.add(TrafficClass::ReadNotice, 40);
        b.add(TrafficClass::Sync, 10);
        assert_eq!(b.total(), 150);
        assert_eq!(b.get(TrafficClass::Sync), 110);
        assert_eq!(b.get(TrafficClass::ReadNotice), 40);
        assert_eq!(b.get(TrafficClass::Data), 0);
    }

    #[test]
    fn stats_record_and_snapshot() {
        let s = NetStats::new();
        s.record(&ByteBreakdown::single(TrafficClass::Data, 4096));
        let mut b = ByteBreakdown::single(TrafficClass::Sync, 64);
        b.add(TrafficClass::ReadNotice, 32);
        s.record(&b);
        let snap = s.snapshot();
        assert_eq!(snap.msgs, 2);
        assert_eq!(snap.total_bytes(), 4192);
        assert_eq!(snap.class_bytes(TrafficClass::ReadNotice), 32);
    }

    #[test]
    fn read_notice_overhead_ratio() {
        let s = NetStats::new();
        s.record(&ByteBreakdown::single(TrafficClass::Data, 900));
        s.record(&ByteBreakdown::single(TrafficClass::Sync, 100));
        s.record(&ByteBreakdown::single(TrafficClass::ReadNotice, 250));
        let snap = s.snapshot();
        assert!((snap.read_notice_overhead() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_overhead() {
        let snap = NetStats::new().snapshot();
        assert_eq!(snap.read_notice_overhead(), 0.0);
        assert_eq!(snap.total_bytes(), 0);
    }
}
