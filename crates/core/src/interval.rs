//! Interval records: the unit of consistency information in LRC.

use cvm_page::PageId;
use cvm_vclock::{IntervalId, IntervalStamp, ProcId, VClock};

/// One LRC interval's consistency record.
///
/// CVM already shipped interval structures holding a version vector and
/// *write notices* (pages written during the interval) on every
/// synchronization message.  The race detector's modification (ii) adds
/// *read notices* — the analogous list of pages read (paper §4, step 1).
///
/// Notice lists are kept sorted and deduplicated; they are page-granularity
/// summaries, while the word-granularity bitmaps stay home with the
/// creating process until the barrier master requests them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Identity and vector timestamp.
    pub stamp: IntervalStamp,
    /// Pages written during the interval, sorted.
    pub write_notices: Vec<PageId>,
    /// Pages read during the interval, sorted (the paper's addition).
    pub read_notices: Vec<PageId>,
}

impl Interval {
    /// Creates an interval record, sorting and deduplicating the notices.
    pub fn new(
        stamp: IntervalStamp,
        mut write_notices: Vec<PageId>,
        mut read_notices: Vec<PageId>,
    ) -> Self {
        write_notices.sort_unstable();
        write_notices.dedup();
        read_notices.sort_unstable();
        read_notices.dedup();
        Interval {
            stamp,
            write_notices,
            read_notices,
        }
    }

    /// The interval's identity.
    #[inline]
    pub fn id(&self) -> IntervalId {
        self.stamp.id
    }

    /// The creating process.
    #[inline]
    pub fn proc(&self) -> ProcId {
        self.stamp.id.proc
    }

    /// Returns `true` if the interval accessed no shared pages.
    pub fn is_quiet(&self) -> bool {
        self.write_notices.is_empty() && self.read_notices.is_empty()
    }

    /// All pages touched (read or written), sorted and deduplicated.
    pub fn pages_touched(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .write_notices
            .iter()
            .chain(&self.read_notices)
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Encoded size of the read notices alone.
    ///
    /// Table 3's "Msg Ohead" column is defined as the bandwidth consumed by
    /// read notices; the DSM uses this to attribute bytes to
    /// [`cvm_net::TrafficClass::ReadNotice`].
    pub fn read_notice_bytes(&self) -> u64 {
        4 + self.read_notices.len() as u64 * 4
    }

    /// Read-notice bytes attributed to the detector's bandwidth overhead:
    /// zero for an empty list (an unmodified CVM record carries no
    /// read-notice payload; the 4-byte empty count is framing).
    pub fn read_notice_attr_bytes(&self) -> u64 {
        if self.read_notices.is_empty() {
            0
        } else {
            self.read_notice_bytes()
        }
    }
}

cvm_net::wire! { struct Interval { stamp, write_notices, read_notices } }

/// Convenience constructor used pervasively in tests: builds an interval
/// from raw parts.
///
/// `vc` must satisfy `vc[proc] == index`.
pub fn make_interval(
    proc: u16,
    index: u32,
    vc: Vec<u32>,
    writes: &[u32],
    reads: &[u32],
) -> Interval {
    Interval::new(
        IntervalStamp::new(IntervalId::new(ProcId(proc), index), VClock::from(vc)),
        writes.iter().map(|&p| PageId(p)).collect(),
        reads.iter().map(|&p| PageId(p)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_net::wire::Wire;

    #[test]
    fn notices_are_sorted_and_deduped() {
        let i = make_interval(0, 1, vec![1, 0], &[5, 2, 5, 1], &[9, 9, 0]);
        assert_eq!(i.write_notices, vec![PageId(1), PageId(2), PageId(5)]);
        assert_eq!(i.read_notices, vec![PageId(0), PageId(9)]);
    }

    #[test]
    fn pages_touched_unions_notices() {
        let i = make_interval(0, 1, vec![1, 0], &[3, 1], &[2, 3]);
        assert_eq!(i.pages_touched(), vec![PageId(1), PageId(2), PageId(3)]);
    }

    #[test]
    fn quiet_interval() {
        let i = make_interval(1, 2, vec![0, 2], &[], &[]);
        assert!(i.is_quiet());
        assert_eq!(i.pages_touched(), Vec::<PageId>::new());
    }

    #[test]
    fn wire_roundtrip_and_size() {
        let i = make_interval(1, 3, vec![2, 3, 0], &[1, 2], &[7]);
        let bytes = i.to_bytes();
        assert_eq!(bytes.len() as u64, i.wire_size());
        assert_eq!(Interval::from_bytes(&bytes).unwrap(), i);
    }

    #[test]
    fn read_notice_bytes_scale_with_list() {
        let none = make_interval(0, 1, vec![1], &[], &[]);
        let five = make_interval(0, 1, vec![1], &[], &[1, 2, 3, 4, 5]);
        assert_eq!(none.read_notice_bytes(), 4);
        assert_eq!(five.read_notice_bytes(), 24);
    }
}
