//! Protocol messages.
//!
//! Every message really is encoded to bytes before transmission; the byte
//! breakdown attributes consistency metadata, read notices (the paper's
//! modification ii), page/diff data, and bitmaps (modification iii) to
//! separate traffic classes so the bandwidth-overhead metric of Table 3
//! falls out of the accounting.

use std::sync::Arc;

use cvm_net::wire::Wire;
use cvm_net::{ByteBreakdown, TrafficClass};
use cvm_page::{Diff, PageBitmaps, PageId};
use cvm_race::{Interval, RaceReport};
use cvm_vclock::{IntervalId, ProcId, VClock};

/// All CVM protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Lock request, sent to the lock's manager.
    LockReq {
        /// Lock identifier.
        lock: u32,
        /// Requesting process.
        requester: ProcId,
        /// Requester's clock (so the granter can compute missing records).
        vc: VClock,
    },
    /// Lock request forwarded by the manager to the last holder.
    LockFwd {
        /// Lock identifier.
        lock: u32,
        /// Requesting process.
        requester: ProcId,
        /// Requester's clock.
        vc: VClock,
    },
    /// Lock grant: the token plus the consistency information the
    /// requester lacks.
    LockGrant {
        /// Lock identifier.
        lock: u32,
        /// Interval records unknown to the requester (shared with the
        /// granter's log — cloning the message clones `Arc`s, not records).
        records: Vec<Arc<Interval>>,
        /// The releaser's clock at its release of this lock.
        vc: VClock,
        /// Post-mortem trace pairing: `(releaser, trace index of the
        /// paired Release event)`; only present in tracing runs.
        trace_from: Option<(ProcId, u32)>,
    },
    /// Read-copy request (single-writer), sent to the page home.
    PageReadReq {
        /// Requested page.
        page: PageId,
        /// Faulting process.
        requester: ProcId,
    },
    /// Read-copy request forwarded by the home to the current owner.
    PageReadFwd {
        /// Requested page.
        page: PageId,
        /// Faulting process.
        requester: ProcId,
    },
    /// Page contents for a read fault.
    PageReadReply {
        /// The page.
        page: PageId,
        /// Page contents.
        data: Vec<u64>,
    },
    /// Ownership request (single-writer write fault), sent to the home.
    PageOwnReq {
        /// Requested page.
        page: PageId,
        /// Faulting process.
        requester: ProcId,
    },
    /// Ownership request forwarded by the home to the current owner.
    PageOwnFwd {
        /// Requested page.
        page: PageId,
        /// Faulting process.
        requester: ProcId,
    },
    /// Ownership transfer: page contents + the write token.
    PageOwnReply {
        /// The page.
        page: PageId,
        /// Page contents.
        data: Vec<u64>,
    },
    /// Multi-writer page fetch from the home, gated on the diffs the
    /// requester's clock requires.
    PageFetchReq {
        /// Requested page.
        page: PageId,
        /// Faulting process.
        requester: ProcId,
        /// Minimum `(writer, interval index)` diffs that must be applied
        /// at the home before the reply (write notices already seen).
        needed: Vec<(ProcId, u32)>,
    },
    /// Multi-writer page contents from the home.
    PageFetchReply {
        /// The page.
        page: PageId,
        /// Page contents.
        data: Vec<u64>,
    },
    /// Multi-writer diff flush to a page home at interval close.
    DiffFlush {
        /// Writing process.
        writer: ProcId,
        /// Interval index (of `writer`) the diffs belong to.
        interval: u32,
        /// The diffs for pages homed at the destination.
        diffs: Vec<Diff>,
    },
    /// Barrier arrival: the worker's records since the last barrier.
    BarrierArrive {
        /// Arriving process.
        from: ProcId,
        /// Worker's clock.
        vc: VClock,
        /// Interval records created since the last barrier.
        records: Vec<Arc<Interval>>,
    },
    /// The extra round (modification iii): master asks a node for access
    /// bitmaps named by the check list.
    BitmapReq {
        /// `(interval, page)` bitmaps wanted.
        items: Vec<(IntervalId, PageId)>,
    },
    /// Bitmaps returned to the master.
    BitmapReply {
        /// The bitmaps, in request order.
        items: Vec<(IntervalId, (PageId, PageBitmaps))>,
    },
    /// Barrier release: consistency info the worker lacks + race reports.
    BarrierRelease {
        /// Master's merged clock.
        vc: VClock,
        /// Records the worker has not seen.
        records: Vec<Arc<Interval>>,
        /// Races detected this epoch (one shared copy fanned out to every
        /// receiver).
        races: Arc<Vec<RaceReport>>,
        /// Epoch number just completed.
        epoch: u64,
        /// Master seat term the release was issued under (fencing: a
        /// receiver that has adopted a newer seat drops stale-term
        /// releases instead of applying them).
        term: u64,
    },
    /// Orderly service-thread shutdown.
    Shutdown,
    /// Checkpoint acknowledgement: a node's recovery image for `epoch` is
    /// stored (all diffs it homes are applied).  Sent to the barrier
    /// master, which holds every application thread at the barrier until
    /// the cluster-wide cut is complete.
    CkptAck {
        /// Acknowledging node.
        from: ProcId,
        /// Barrier epoch the image belongs to.
        epoch: u64,
    },
    /// Checkpoint commit: the master has all `nprocs` acknowledgements for
    /// `epoch`; receivers release their barrier-blocked application thread.
    CkptGo {
        /// The committed epoch.
        epoch: u64,
        /// Race reports whose detection drained between the cut being
        /// requested and committed (pipelined mode): receivers fold these
        /// into their race log *before* imaging, so a checkpoint never
        /// commits ahead of its epoch's detection.  Always empty in
        /// synchronous mode, where detection completes inside the barrier.
        races: Vec<RaceReport>,
        /// Master seat term the commit was issued under (fencing).
        term: u64,
    },
    /// Master-seat announcement after a failover: the successor tells
    /// every survivor it now holds the barrier-master role and which
    /// barrier epoch the cluster resumes from (its view of the newest
    /// complete checkpoint cut).  Receivers validate the epoch against
    /// their own restored resume point and acknowledge.
    MasterHandoff {
        /// The node assuming the master role.
        master: ProcId,
        /// The resume epoch: last complete checkpoint cut (0 if none).
        epoch: u64,
        /// The monotone seat term of this seating.  Receivers adopt the
        /// seat only for a term at least as new as their own; an old
        /// master reappearing after a heal carries a stale term and is
        /// fenced, so two masters can never both drive detection.
        term: u64,
    },
    /// Acknowledgement of a [`Msg::MasterHandoff`]: the sender agrees on
    /// the master seat and the resume epoch.  The successor holds the run
    /// until every survivor has acknowledged.
    MasterHandoffAck {
        /// Acknowledging node.
        from: ProcId,
        /// The resume epoch the sender agreed to.
        epoch: u64,
    },
}

cvm_net::wire! {
    enum Msg {
        LockReq { lock, requester, vc } = 0,
        LockFwd { lock, requester, vc } = 1,
        LockGrant { lock, records, vc, trace_from } = 2,
        PageReadReq { page, requester } = 3,
        PageReadFwd { page, requester } = 4,
        PageReadReply { page, data } = 5,
        PageOwnReq { page, requester } = 6,
        PageOwnFwd { page, requester } = 7,
        PageOwnReply { page, data } = 8,
        PageFetchReq { page, requester, needed } = 9,
        PageFetchReply { page, data } = 10,
        DiffFlush { writer, interval, diffs } = 11,
        BarrierArrive { from, vc, records } = 12,
        BitmapReq { items } = 13,
        BitmapReply { items } = 14,
        BarrierRelease { vc, records, races, epoch, term } = 15,
        Shutdown = 16,
        CkptAck { from, epoch } = 17,
        CkptGo { epoch, races, term } = 18,
        MasterHandoff { master, epoch, term } = 19,
        MasterHandoffAck { from, epoch } = 20,
    }
}

impl Msg {
    /// Structural validation of a freshly decoded message against the
    /// cluster shape: every process id must be in range and every vector
    /// clock as wide as the cluster.
    ///
    /// Decoding is a trust boundary — the bytes arrived over a wire whose
    /// checksum catches corruption but not forgery or a peer from a
    /// differently-sized cluster — and the service loop indexes directly
    /// with these ids, so an out-of-range value would panic deep inside
    /// the protocol.  A message that fails here is quarantined as a
    /// protocol error, never dispatched.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self, nprocs: usize) -> Result<(), &'static str> {
        fn proc_ok(p: ProcId, n: usize) -> Result<(), &'static str> {
            if p.index() < n {
                Ok(())
            } else {
                Err("process id out of range")
            }
        }
        fn vc_ok(vc: &VClock, n: usize) -> Result<(), &'static str> {
            if vc.len() == n {
                Ok(())
            } else {
                Err("vector clock width mismatch")
            }
        }
        fn id_ok(id: IntervalId, n: usize) -> Result<(), &'static str> {
            proc_ok(id.proc, n)
        }
        fn records_ok(records: &[Arc<Interval>], n: usize) -> Result<(), &'static str> {
            for rec in records {
                id_ok(rec.id(), n)?;
                vc_ok(&rec.stamp.vc, n)?;
            }
            Ok(())
        }
        match self {
            Msg::LockReq { requester, vc, .. } | Msg::LockFwd { requester, vc, .. } => {
                proc_ok(*requester, nprocs)?;
                vc_ok(vc, nprocs)
            }
            Msg::LockGrant {
                records,
                vc,
                trace_from,
                ..
            } => {
                records_ok(records, nprocs)?;
                vc_ok(vc, nprocs)?;
                if let Some((p, _)) = trace_from {
                    proc_ok(*p, nprocs)?;
                }
                Ok(())
            }
            Msg::PageReadReq { requester, .. }
            | Msg::PageReadFwd { requester, .. }
            | Msg::PageOwnReq { requester, .. }
            | Msg::PageOwnFwd { requester, .. } => proc_ok(*requester, nprocs),
            Msg::PageFetchReq {
                requester, needed, ..
            } => {
                proc_ok(*requester, nprocs)?;
                for (p, _) in needed {
                    proc_ok(*p, nprocs)?;
                }
                Ok(())
            }
            Msg::DiffFlush { writer, .. } => proc_ok(*writer, nprocs),
            Msg::BarrierArrive { from, vc, records } => {
                proc_ok(*from, nprocs)?;
                vc_ok(vc, nprocs)?;
                records_ok(records, nprocs)
            }
            Msg::BitmapReq { items } => {
                for (id, _) in items {
                    id_ok(*id, nprocs)?;
                }
                Ok(())
            }
            Msg::BitmapReply { items } => {
                for (id, _) in items {
                    id_ok(*id, nprocs)?;
                }
                Ok(())
            }
            Msg::BarrierRelease {
                vc, records, races, ..
            } => {
                vc_ok(vc, nprocs)?;
                records_ok(records, nprocs)?;
                for race in races.iter() {
                    id_ok(race.a, nprocs)?;
                    id_ok(race.b, nprocs)?;
                }
                Ok(())
            }
            Msg::CkptAck { from, .. } => proc_ok(*from, nprocs),
            Msg::MasterHandoff { master, .. } => proc_ok(*master, nprocs),
            Msg::MasterHandoffAck { from, .. } => proc_ok(*from, nprocs),
            Msg::CkptGo { races, .. } => {
                for race in races {
                    id_ok(race.a, nprocs)?;
                    id_ok(race.b, nprocs)?;
                }
                Ok(())
            }
            Msg::PageReadReply { .. }
            | Msg::PageOwnReply { .. }
            | Msg::PageFetchReply { .. }
            | Msg::Shutdown => Ok(()),
        }
    }

    /// The highest page id this message names anywhere — request and reply
    /// targets, diffs, notices inside interval records, bitmap items — or
    /// `None` if it names none.  Receivers index dense per-page tables, so
    /// they compare this against the segment's page count before dispatch.
    pub(crate) fn max_page(&self) -> Option<PageId> {
        fn noticed(records: &[Arc<Interval>]) -> Option<PageId> {
            records
                .iter()
                .flat_map(|r| r.write_notices.iter().chain(&r.read_notices))
                .copied()
                .max()
        }
        match self {
            Msg::PageReadReq { page, .. }
            | Msg::PageReadFwd { page, .. }
            | Msg::PageReadReply { page, .. }
            | Msg::PageOwnReq { page, .. }
            | Msg::PageOwnFwd { page, .. }
            | Msg::PageOwnReply { page, .. }
            | Msg::PageFetchReq { page, .. }
            | Msg::PageFetchReply { page, .. } => Some(*page),
            Msg::DiffFlush { diffs, .. } => diffs.iter().map(|d| d.page).max(),
            Msg::LockGrant { records, .. }
            | Msg::BarrierArrive { records, .. }
            | Msg::BarrierRelease { records, .. } => noticed(records),
            Msg::BitmapReq { items } => items.iter().map(|(_, page)| *page).max(),
            Msg::BitmapReply { items } => items.iter().map(|(_, (page, _))| *page).max(),
            Msg::LockReq { .. }
            | Msg::LockFwd { .. }
            | Msg::Shutdown
            | Msg::CkptAck { .. }
            | Msg::CkptGo { .. }
            | Msg::MasterHandoff { .. }
            | Msg::MasterHandoffAck { .. } => None,
        }
    }

    /// The highest word index any diff in this message names, or `None` if
    /// it carries none.  A diff is applied by indexing the page's words, so
    /// receivers compare this against the page size before dispatch.
    pub(crate) fn max_diff_word(&self) -> Option<usize> {
        match self {
            Msg::DiffFlush { diffs, .. } => diffs.iter().flat_map(Diff::words).max(),
            _ => None,
        }
    }

    /// Byte breakdown of this message's encoding for traffic accounting.
    ///
    /// Read notices riding inside interval records are split out as
    /// [`TrafficClass::ReadNotice`] (the detector's bandwidth cost); page
    /// contents and diffs are [`TrafficClass::Data`]; bitmap traffic is
    /// [`TrafficClass::Bitmap`]; the rest of a synchronization message is
    /// [`TrafficClass::Sync`]; pure requests are [`TrafficClass::Control`].
    pub fn breakdown(&self) -> ByteBreakdown {
        let total = self.wire_size();
        match self {
            Msg::LockGrant { records, .. } | Msg::BarrierArrive { records, .. } => {
                let rn: u64 = records.iter().map(|r| r.read_notice_attr_bytes()).sum();
                let mut b = ByteBreakdown::single(TrafficClass::Sync, total - rn);
                b.add(TrafficClass::ReadNotice, rn);
                b
            }
            Msg::BarrierRelease { records, .. } => {
                let rn: u64 = records.iter().map(|r| r.read_notice_attr_bytes()).sum();
                let mut b = ByteBreakdown::single(TrafficClass::Sync, total - rn);
                b.add(TrafficClass::ReadNotice, rn);
                b
            }
            Msg::PageReadReply { data, .. }
            | Msg::PageOwnReply { data, .. }
            | Msg::PageFetchReply { data, .. } => {
                let payload = data.len() as u64 * 8;
                let mut b = ByteBreakdown::single(TrafficClass::Control, total - payload);
                b.add(TrafficClass::Data, payload);
                b
            }
            Msg::DiffFlush { diffs, .. } => {
                let payload: u64 = diffs.iter().map(|d| d.entries.len() as u64 * 12).sum();
                let mut b = ByteBreakdown::single(TrafficClass::Control, total - payload);
                b.add(TrafficClass::Data, payload);
                b
            }
            Msg::BitmapReq { .. } | Msg::BitmapReply { .. } => {
                ByteBreakdown::single(TrafficClass::Bitmap, total)
            }
            Msg::LockReq { .. } | Msg::LockFwd { .. } => {
                ByteBreakdown::single(TrafficClass::Sync, total)
            }
            _ => ByteBreakdown::single(TrafficClass::Control, total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_net::wire::WireError;
    use cvm_race::make_interval;

    fn roundtrip(msg: Msg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len() as u64, msg.wire_size(), "{msg:?}");
        assert_eq!(Msg::from_bytes(&bytes).unwrap(), msg);
        // Breakdown must account for every byte.
        assert_eq!(msg.breakdown().total(), bytes.len() as u64, "{msg:?}");
    }

    #[test]
    fn all_messages_roundtrip() {
        let iv = make_interval(1, 3, vec![2, 3], &[1, 2], &[7, 8, 9]);
        roundtrip(Msg::LockReq {
            lock: 5,
            requester: ProcId(1),
            vc: VClock::from(vec![1, 2]),
        });
        roundtrip(Msg::LockFwd {
            lock: 5,
            requester: ProcId(1),
            vc: VClock::from(vec![1, 2]),
        });
        roundtrip(Msg::LockGrant {
            lock: 5,
            records: vec![Arc::new(iv.clone())],
            vc: VClock::from(vec![4, 4]),
            trace_from: Some((ProcId(1), 7)),
        });
        roundtrip(Msg::PageReadReq {
            page: PageId(3),
            requester: ProcId(0),
        });
        roundtrip(Msg::PageReadFwd {
            page: PageId(3),
            requester: ProcId(0),
        });
        roundtrip(Msg::PageReadReply {
            page: PageId(3),
            data: vec![1, 2, 3],
        });
        roundtrip(Msg::PageOwnReq {
            page: PageId(3),
            requester: ProcId(0),
        });
        roundtrip(Msg::PageOwnFwd {
            page: PageId(3),
            requester: ProcId(0),
        });
        roundtrip(Msg::PageOwnReply {
            page: PageId(3),
            data: vec![9; 16],
        });
        roundtrip(Msg::PageFetchReq {
            page: PageId(1),
            requester: ProcId(1),
            needed: vec![(ProcId(0), 4)],
        });
        roundtrip(Msg::PageFetchReply {
            page: PageId(1),
            data: vec![0; 8],
        });
        roundtrip(Msg::DiffFlush {
            writer: ProcId(1),
            interval: 7,
            diffs: vec![Diff {
                page: PageId(2),
                entries: vec![(0, 5), (10, 6)],
            }],
        });
        roundtrip(Msg::BarrierArrive {
            from: ProcId(2),
            vc: VClock::from(vec![1, 2, 3]),
            records: vec![Arc::new(iv.clone())],
        });
        roundtrip(Msg::BitmapReq {
            items: vec![(iv.id(), PageId(1))],
        });
        roundtrip(Msg::BitmapReply {
            items: vec![(iv.id(), (PageId(1), PageBitmaps::new(64)))],
        });
        roundtrip(Msg::BarrierRelease {
            vc: VClock::from(vec![5, 5]),
            records: vec![Arc::new(iv.clone())],
            races: Arc::new(vec![]),
            epoch: 9,
            term: 3,
        });
        roundtrip(Msg::Shutdown);
        roundtrip(Msg::CkptAck {
            from: ProcId(2),
            epoch: 41,
        });
        roundtrip(Msg::CkptGo {
            epoch: 41,
            races: vec![],
            term: 0,
        });
        roundtrip(Msg::CkptGo {
            epoch: 42,
            races: vec![cvm_race::RaceReport {
                addr: cvm_page::GAddr(64),
                kind: cvm_race::RaceKind::WriteWrite,
                a: iv.id(),
                b: iv.id(),
                epoch: 42,
            }],
            term: 2,
        });
        roundtrip(Msg::MasterHandoff {
            master: ProcId(1),
            epoch: 7,
            term: 1,
        });
        roundtrip(Msg::MasterHandoffAck {
            from: ProcId(2),
            epoch: 7,
        });
    }

    /// One fixture per variant, with non-trivial payloads: empty and
    /// absent fields, several records, bitmaps whose bit count is not a
    /// word multiple, and extreme ids.
    fn golden_msgs() -> Vec<Msg> {
        use cvm_page::{Bitmap, GAddr};
        use cvm_race::{RaceKind, RaceReport};
        let iv0 = Arc::new(make_interval(0, 1, vec![1, 0, 0], &[], &[]));
        let iv1 = Arc::new(make_interval(2, 5, vec![1, 0, 5], &[0, 1, 2, 3], &[9; 40]));
        let iv2 = Arc::new(make_interval(1, 3, vec![2, 3, 0], &[1, 2], &[7, 8, 9]));
        let race = |addr, kind, epoch| RaceReport {
            addr: GAddr(addr),
            kind,
            a: iv0.id(),
            b: iv1.id(),
            epoch,
        };
        let mut odd = PageBitmaps::new(65);
        odd.read.set(64);
        odd.write.set(3);
        vec![
            Msg::LockReq {
                lock: 5,
                requester: ProcId(1),
                vc: VClock::from(vec![1, 2, 3]),
            },
            Msg::LockFwd {
                lock: u32::MAX,
                requester: ProcId(2),
                vc: VClock::from(vec![0, 0, 7]),
            },
            Msg::LockGrant {
                lock: 1,
                records: vec![],
                vc: VClock::from(vec![0, 0, 0]),
                trace_from: None,
            },
            Msg::LockGrant {
                lock: 5,
                records: vec![Arc::clone(&iv0), Arc::clone(&iv1), Arc::clone(&iv2)],
                vc: VClock::from(vec![4, 4, 5]),
                trace_from: Some((ProcId(1), 7)),
            },
            Msg::PageReadReq {
                page: PageId(3),
                requester: ProcId(1),
            },
            Msg::PageReadFwd {
                page: PageId(0xdead),
                requester: ProcId(3),
            },
            Msg::PageReadReply {
                page: PageId(3),
                data: vec![],
            },
            Msg::PageOwnReq {
                page: PageId(0),
                requester: ProcId(0),
            },
            Msg::PageOwnFwd {
                page: PageId(u32::MAX),
                requester: ProcId(u16::MAX),
            },
            Msg::PageOwnReply {
                page: PageId(3),
                data: (0..16).map(|w| w * 0x0101_0101).collect(),
            },
            Msg::PageFetchReq {
                page: PageId(1),
                requester: ProcId(1),
                needed: vec![(ProcId(0), 4), (ProcId(2), 1), (ProcId(3), 9)],
            },
            Msg::PageFetchReply {
                page: PageId(1),
                data: vec![u64::MAX, 0, 1],
            },
            Msg::DiffFlush {
                writer: ProcId(0),
                interval: 2,
                diffs: vec![
                    Diff {
                        page: PageId(0),
                        entries: vec![],
                    },
                    Diff {
                        page: PageId(7),
                        entries: vec![(1, 2), (3, 4), (5, 6)],
                    },
                ],
            },
            Msg::BarrierArrive {
                from: ProcId(2),
                vc: VClock::from(vec![1, 2, 3]),
                records: vec![Arc::clone(&iv0), Arc::clone(&iv1), Arc::clone(&iv0)],
            },
            Msg::BitmapReq {
                items: vec![(iv0.id(), PageId(1)), (iv1.id(), PageId(9))],
            },
            Msg::BitmapReply {
                items: vec![
                    (iv0.id(), (PageId(1), PageBitmaps::new(64))),
                    (iv1.id(), (PageId(2), odd)),
                    (
                        iv1.id(),
                        (
                            PageId(3),
                            PageBitmaps {
                                read: Bitmap::new(1),
                                write: Bitmap::new(0),
                            },
                        ),
                    ),
                ],
            },
            Msg::BarrierRelease {
                vc: VClock::from(vec![5, 5, 5]),
                records: vec![Arc::clone(&iv1)],
                races: Arc::new(vec![
                    race(64, RaceKind::WriteWrite, 3),
                    race(128, RaceKind::ReadWrite, 3),
                ]),
                epoch: 3,
                term: 1,
            },
            Msg::Shutdown,
            Msg::CkptAck {
                from: ProcId(2),
                epoch: u64::MAX - 1,
            },
            Msg::CkptGo {
                epoch: 41,
                races: vec![],
                term: 0,
            },
            Msg::CkptGo {
                epoch: 42,
                races: vec![race(8, RaceKind::ReadWrite, 42)],
                term: 2,
            },
            Msg::MasterHandoff {
                master: ProcId(1),
                epoch: 7,
                term: 1,
            },
            Msg::MasterHandoffAck {
                from: ProcId(2),
                epoch: 7,
            },
        ]
    }

    /// The protocol's bytes are a contract (Table 3 counts them): every
    /// fixture's encoding, pinned by length and digest, and the short ones
    /// byte for byte.
    #[test]
    fn msg_bytes_are_pinned() {
        let pins: Vec<(usize, u64)> = golden_msgs().iter().map(cvm_net::wire::pin).collect();
        assert_eq!(
            pins,
            [
                (23, 5833926974389170672),
                (23, 6738656908107044078),
                (26, 3278093000330282085),
                (162, 18095816913903203099),
                (7, 6936611516240532512),
                (7, 2345925068327830023),
                (9, 7052967425584085443),
                (7, 17070369920818070769),
                (7, 5736283523663574856),
                (137, 3874984961190292740),
                (29, 2490114548968460386),
                (33, 7027947388961217030),
                (63, 13456967334322555401),
                (133, 12389818110641754725),
                (25, 322759996394580420),
                (115, 16417816855765432331),
                (149, 16835570654968373098),
                (1, 12638170707881218831),
                (11, 4692800143363674727),
                (21, 3246428364549857564),
                (50, 11576623407778615012),
                (19, 12899223985760892253),
                (11, 8850142418622763822),
            ]
        );
        let page = Msg::PageReadReq {
            page: PageId(3),
            requester: ProcId(1),
        };
        assert_eq!(page.to_bytes(), [3, 3, 0, 0, 0, 1, 0]);
        let ack = Msg::CkptAck {
            from: ProcId(2),
            epoch: 0x0102,
        };
        assert_eq!(ack.to_bytes(), [17, 2, 0, 2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(Msg::Shutdown.to_bytes(), [16]);
    }

    /// Every golden fixture, and the empty and one-bit bitmap rounds, keeps
    /// the codec's laws, and its breakdown accounts for every byte.  A count
    /// prefix claiming more items than the body holds is rejected before
    /// anything is allocated.
    #[test]
    fn golden_msgs_keep_the_wire_laws() {
        use cvm_page::Bitmap;
        let iv = make_interval(1, 3, vec![2, 3], &[1, 2], &[7]);
        let one_bit = PageBitmaps {
            read: Bitmap::new(1),
            write: Bitmap::new(1),
        };
        let extra = [
            Msg::BitmapReq { items: vec![] },
            Msg::BitmapReply { items: vec![] },
            Msg::BitmapReply {
                items: vec![(iv.id(), (PageId(3), one_bit))],
            },
        ];
        for msg in golden_msgs().iter().chain(&extra) {
            cvm_net::wire::assert_wire_laws(msg);
            assert_eq!(msg.breakdown().total(), msg.wire_size(), "{msg:?}");
        }
        for tag in [13, 14] {
            let mut hostile = vec![tag];
            u32::MAX.encode(&mut hostile);
            assert_eq!(
                Msg::from_bytes(&hostile),
                Err(WireError::BadLength(u64::from(u32::MAX)))
            );
        }
    }

    #[test]
    fn grant_breakdown_separates_read_notices() {
        let iv = make_interval(0, 1, vec![1, 0], &[1], &[2, 3, 4, 5, 6]);
        let rn = iv.read_notice_bytes();
        let msg = Msg::LockGrant {
            lock: 0,
            records: vec![Arc::new(iv)],
            vc: VClock::from(vec![1, 0]),
            trace_from: None,
        };
        let b = msg.breakdown();
        assert_eq!(b.get(TrafficClass::ReadNotice), rn);
        assert_eq!(b.total(), msg.wire_size());
        assert!(b.get(TrafficClass::Sync) > 0);
    }

    #[test]
    fn page_reply_breakdown_is_mostly_data() {
        let msg = Msg::PageReadReply {
            page: PageId(0),
            data: vec![0; 512],
        };
        let b = msg.breakdown();
        assert_eq!(b.get(TrafficClass::Data), 4096);
        assert!(b.get(TrafficClass::Control) < 16);
    }

    #[test]
    fn garbage_decoding_fails_cleanly() {
        assert!(Msg::from_bytes(&[99]).is_err());
        assert!(Msg::from_bytes(&[]).is_err());
        assert!(Msg::from_bytes(&[2, 1]).is_err()); // A lock grant, cut short.
    }

    #[test]
    fn validate_accepts_well_formed_messages() {
        let iv = make_interval(1, 3, vec![2, 3], &[1, 2], &[7, 8, 9]);
        let msgs = [
            Msg::LockReq {
                lock: 5,
                requester: ProcId(1),
                vc: VClock::from(vec![1, 2]),
            },
            Msg::BarrierArrive {
                from: ProcId(0),
                vc: VClock::from(vec![1, 2]),
                records: vec![Arc::new(iv.clone())],
            },
            Msg::Shutdown,
            Msg::CkptAck {
                from: ProcId(1),
                epoch: 1,
            },
            Msg::MasterHandoff {
                master: ProcId(1),
                epoch: 3,
                term: 2,
            },
            Msg::MasterHandoffAck {
                from: ProcId(0),
                epoch: 3,
            },
        ];
        for m in &msgs {
            assert_eq!(m.validate(2), Ok(()), "{m:?}");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_and_misshapen() {
        // Requester outside the cluster.
        let m = Msg::PageReadReq {
            page: PageId(0),
            requester: ProcId(4),
        };
        assert!(m.validate(4).is_err());
        assert!(m.validate(5).is_ok());
        // Clock narrower than the cluster.
        let m = Msg::LockReq {
            lock: 0,
            requester: ProcId(0),
            vc: VClock::from(vec![1, 2]),
        };
        assert!(m.validate(3).is_err());
        // Record created by a process the cluster does not have.
        let iv = make_interval(2, 1, vec![0, 0, 1], &[], &[]);
        let m = Msg::BarrierArrive {
            from: ProcId(0),
            vc: VClock::from(vec![0, 0]),
            records: vec![Arc::new(iv)],
        };
        assert!(m.validate(2).is_err());
        // A needed-diff entry naming an out-of-range writer.
        let m = Msg::PageFetchReq {
            page: PageId(0),
            requester: ProcId(0),
            needed: vec![(ProcId(9), 1)],
        };
        assert!(m.validate(2).is_err());
        // A handoff claiming a master seat outside the cluster.
        let m = Msg::MasterHandoff {
            master: ProcId(3),
            epoch: 0,
            term: 1,
        };
        assert!(m.validate(2).is_err());
    }
}
