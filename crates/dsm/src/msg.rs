//! Protocol messages.
//!
//! Every message really is encoded to bytes before transmission; the byte
//! breakdown attributes consistency metadata, read notices (the paper's
//! modification ii), page/diff data, and bitmaps (modification iii) to
//! separate traffic classes so the bandwidth-overhead metric of Table 3
//! falls out of the accounting.

use std::sync::Arc;

use cvm_net::wire::{Reader, Wire, WireError};
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

const TAG_LOCK_REQ: u8 = 0;
const TAG_LOCK_FWD: u8 = 1;
const TAG_LOCK_GRANT: u8 = 2;
const TAG_PAGE_READ_REQ: u8 = 3;
const TAG_PAGE_READ_FWD: u8 = 4;
const TAG_PAGE_READ_REPLY: u8 = 5;
const TAG_PAGE_OWN_REQ: u8 = 6;
const TAG_PAGE_OWN_FWD: u8 = 7;
const TAG_PAGE_OWN_REPLY: u8 = 8;
const TAG_PAGE_FETCH_REQ: u8 = 9;
const TAG_PAGE_FETCH_REPLY: u8 = 10;
const TAG_DIFF_FLUSH: u8 = 11;
const TAG_BARRIER_ARRIVE: u8 = 12;
const TAG_BITMAP_REQ: u8 = 13;
const TAG_BITMAP_REPLY: u8 = 14;
const TAG_BARRIER_RELEASE: u8 = 15;
const TAG_SHUTDOWN: u8 = 16;
const TAG_CKPT_ACK: u8 = 17;
const TAG_CKPT_GO: u8 = 18;
const TAG_MASTER_HANDOFF: u8 = 19;
const TAG_MASTER_HANDOFF_ACK: u8 = 20;

impl Wire for Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::LockReq {
                lock,
                requester,
                vc,
            } => {
                buf.push(TAG_LOCK_REQ);
                lock.encode(buf);
                requester.encode(buf);
                vc.encode(buf);
            }
            Msg::LockFwd {
                lock,
                requester,
                vc,
            } => {
                buf.push(TAG_LOCK_FWD);
                lock.encode(buf);
                requester.encode(buf);
                vc.encode(buf);
            }
            Msg::LockGrant {
                lock,
                records,
                vc,
                trace_from,
            } => {
                buf.push(TAG_LOCK_GRANT);
                lock.encode(buf);
                records.encode(buf);
                vc.encode(buf);
                trace_from.encode(buf);
            }
            Msg::PageReadReq { page, requester } => {
                buf.push(TAG_PAGE_READ_REQ);
                page.encode(buf);
                requester.encode(buf);
            }
            Msg::PageReadFwd { page, requester } => {
                buf.push(TAG_PAGE_READ_FWD);
                page.encode(buf);
                requester.encode(buf);
            }
            Msg::PageReadReply { page, data } => {
                buf.push(TAG_PAGE_READ_REPLY);
                page.encode(buf);
                data.encode(buf);
            }
            Msg::PageOwnReq { page, requester } => {
                buf.push(TAG_PAGE_OWN_REQ);
                page.encode(buf);
                requester.encode(buf);
            }
            Msg::PageOwnFwd { page, requester } => {
                buf.push(TAG_PAGE_OWN_FWD);
                page.encode(buf);
                requester.encode(buf);
            }
            Msg::PageOwnReply { page, data } => {
                buf.push(TAG_PAGE_OWN_REPLY);
                page.encode(buf);
                data.encode(buf);
            }
            Msg::PageFetchReq {
                page,
                requester,
                needed,
            } => {
                buf.push(TAG_PAGE_FETCH_REQ);
                page.encode(buf);
                requester.encode(buf);
                needed.encode(buf);
            }
            Msg::PageFetchReply { page, data } => {
                buf.push(TAG_PAGE_FETCH_REPLY);
                page.encode(buf);
                data.encode(buf);
            }
            Msg::DiffFlush {
                writer,
                interval,
                diffs,
            } => {
                buf.push(TAG_DIFF_FLUSH);
                writer.encode(buf);
                interval.encode(buf);
                diffs.encode(buf);
            }
            Msg::BarrierArrive { from, vc, records } => {
                buf.push(TAG_BARRIER_ARRIVE);
                from.encode(buf);
                vc.encode(buf);
                records.encode(buf);
            }
            Msg::BitmapReq { items } => {
                buf.push(TAG_BITMAP_REQ);
                items.encode(buf);
            }
            Msg::BitmapReply { items } => {
                buf.push(TAG_BITMAP_REPLY);
                items.encode(buf);
            }
            Msg::BarrierRelease {
                vc,
                records,
                races,
                epoch,
                term,
            } => {
                buf.push(TAG_BARRIER_RELEASE);
                vc.encode(buf);
                records.encode(buf);
                races.encode(buf);
                epoch.encode(buf);
                term.encode(buf);
            }
            Msg::Shutdown => buf.push(TAG_SHUTDOWN),
            Msg::CkptAck { from, epoch } => {
                buf.push(TAG_CKPT_ACK);
                from.encode(buf);
                epoch.encode(buf);
            }
            Msg::CkptGo { epoch, races, term } => {
                buf.push(TAG_CKPT_GO);
                epoch.encode(buf);
                races.encode(buf);
                term.encode(buf);
            }
            Msg::MasterHandoff {
                master,
                epoch,
                term,
            } => {
                buf.push(TAG_MASTER_HANDOFF);
                master.encode(buf);
                epoch.encode(buf);
                term.encode(buf);
            }
            Msg::MasterHandoffAck { from, epoch } => {
                buf.push(TAG_MASTER_HANDOFF_ACK);
                from.encode(buf);
                epoch.encode(buf);
            }
        }
    }

    /// Arithmetic size: every variant is sized without encoding, so the
    /// per-message traffic accounting in the send path costs O(records)
    /// arithmetic instead of a full serialization pass.  Closed forms are
    /// used for vectors of fixed-size elements; everything else sums the
    /// components' own arithmetic `wire_size`s.  `send_msg` checks this
    /// against the real encoding in debug builds.
    fn wire_size(&self) -> u64 {
        fn records_size(records: &[Arc<Interval>]) -> u64 {
            4 + records.iter().map(Wire::wire_size).sum::<u64>()
        }
        let body = match self {
            Msg::LockReq { vc, .. } | Msg::LockFwd { vc, .. } => 4 + 2 + vc.wire_size(),
            Msg::LockGrant {
                records,
                vc,
                trace_from,
                ..
            } => 4 + records_size(records) + vc.wire_size() + trace_from.wire_size(),
            Msg::PageReadReq { .. }
            | Msg::PageReadFwd { .. }
            | Msg::PageOwnReq { .. }
            | Msg::PageOwnFwd { .. } => 4 + 2,
            Msg::PageReadReply { data, .. }
            | Msg::PageOwnReply { data, .. }
            | Msg::PageFetchReply { data, .. } => 4 + 4 + data.len() as u64 * 8,
            Msg::PageFetchReq { needed, .. } => 4 + 2 + 4 + needed.len() as u64 * 6,
            Msg::DiffFlush { diffs, .. } => {
                2 + 4 + 4 + diffs.iter().map(Wire::wire_size).sum::<u64>()
            }
            Msg::BarrierArrive { vc, records, .. } => 2 + vc.wire_size() + records_size(records),
            Msg::BitmapReq { items } => 4 + items.len() as u64 * (6 + 4),
            Msg::BitmapReply { items } => {
                4 + items
                    .iter()
                    .map(|(_, (_, bm))| 6 + 4 + bm.wire_size())
                    .sum::<u64>()
            }
            Msg::BarrierRelease {
                vc, records, races, ..
            } => {
                vc.wire_size()
                    + records_size(records)
                    + 4
                    + races.iter().map(Wire::wire_size).sum::<u64>()
                    + 8
                    + 8
            }
            Msg::Shutdown => 0,
            Msg::CkptAck { .. } => 2 + 8,
            Msg::CkptGo { races, .. } => 8 + 4 + races.iter().map(Wire::wire_size).sum::<u64>() + 8,
            Msg::MasterHandoff { .. } => 2 + 8 + 8,
            Msg::MasterHandoffAck { .. } => 2 + 8,
        };
        1 + body
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        Msg::from_bytes_borrowed(bytes)
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            TAG_LOCK_REQ => Msg::LockReq {
                lock: u32::decode(r)?,
                requester: ProcId::decode(r)?,
                vc: VClock::decode(r)?,
            },
            TAG_LOCK_FWD => Msg::LockFwd {
                lock: u32::decode(r)?,
                requester: ProcId::decode(r)?,
                vc: VClock::decode(r)?,
            },
            TAG_LOCK_GRANT => Msg::LockGrant {
                lock: u32::decode(r)?,
                records: Vec::<Arc<Interval>>::decode(r)?,
                vc: VClock::decode(r)?,
                trace_from: Option::<(ProcId, u32)>::decode(r)?,
            },
            TAG_PAGE_READ_REQ => Msg::PageReadReq {
                page: PageId::decode(r)?,
                requester: ProcId::decode(r)?,
            },
            TAG_PAGE_READ_FWD => Msg::PageReadFwd {
                page: PageId::decode(r)?,
                requester: ProcId::decode(r)?,
            },
            TAG_PAGE_READ_REPLY => Msg::PageReadReply {
                page: PageId::decode(r)?,
                data: Vec::<u64>::decode(r)?,
            },
            TAG_PAGE_OWN_REQ => Msg::PageOwnReq {
                page: PageId::decode(r)?,
                requester: ProcId::decode(r)?,
            },
            TAG_PAGE_OWN_FWD => Msg::PageOwnFwd {
                page: PageId::decode(r)?,
                requester: ProcId::decode(r)?,
            },
            TAG_PAGE_OWN_REPLY => Msg::PageOwnReply {
                page: PageId::decode(r)?,
                data: Vec::<u64>::decode(r)?,
            },
            TAG_PAGE_FETCH_REQ => Msg::PageFetchReq {
                page: PageId::decode(r)?,
                requester: ProcId::decode(r)?,
                needed: Vec::<(ProcId, u32)>::decode(r)?,
            },
            TAG_PAGE_FETCH_REPLY => Msg::PageFetchReply {
                page: PageId::decode(r)?,
                data: Vec::<u64>::decode(r)?,
            },
            TAG_DIFF_FLUSH => Msg::DiffFlush {
                writer: ProcId::decode(r)?,
                interval: u32::decode(r)?,
                diffs: Vec::<Diff>::decode(r)?,
            },
            TAG_BARRIER_ARRIVE => Msg::BarrierArrive {
                from: ProcId::decode(r)?,
                vc: VClock::decode(r)?,
                records: Vec::<Arc<Interval>>::decode(r)?,
            },
            TAG_BITMAP_REQ => Msg::BitmapReq {
                items: Vec::<(IntervalId, PageId)>::decode(r)?,
            },
            TAG_BITMAP_REPLY => Msg::BitmapReply {
                items: Vec::<(IntervalId, (PageId, PageBitmaps))>::decode(r)?,
            },
            TAG_BARRIER_RELEASE => Msg::BarrierRelease {
                vc: VClock::decode(r)?,
                records: Vec::<Arc<Interval>>::decode(r)?,
                races: Arc::<Vec<RaceReport>>::decode(r)?,
                epoch: u64::decode(r)?,
                term: u64::decode(r)?,
            },
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_CKPT_ACK => Msg::CkptAck {
                from: ProcId::decode(r)?,
                epoch: u64::decode(r)?,
            },
            TAG_CKPT_GO => Msg::CkptGo {
                epoch: u64::decode(r)?,
                races: Vec::<RaceReport>::decode(r)?,
                term: u64::decode(r)?,
            },
            TAG_MASTER_HANDOFF => Msg::MasterHandoff {
                master: ProcId::decode(r)?,
                epoch: u64::decode(r)?,
                term: u64::decode(r)?,
            },
            TAG_MASTER_HANDOFF_ACK => Msg::MasterHandoffAck {
                from: ProcId::decode(r)?,
                epoch: u64::decode(r)?,
            },
            tag => return Err(WireError::BadTag { what: "Msg", tag }),
        })
    }
}

/// Fixed encoded size of the four page request/forward variants:
/// tag + `PageId` + `ProcId`.
const PAGE_REQ_BYTES: usize = 1 + 4 + 2;
/// Fixed encoded size of a checkpoint acknowledgement: tag + `ProcId` +
/// epoch.
const CKPT_ACK_BYTES: usize = 1 + 2 + 8;

impl Msg {
    /// Decodes a message from a borrowed frame body without the generic
    /// length-prefixed [`Reader`] walk where the layout permits.
    ///
    /// Every variant's encoded size is known arithmetically (see
    /// [`Wire::wire_size`]), which this path exploits two ways:
    ///
    /// * **Fixed-size messages** — the page request/forward quartet,
    ///   checkpoint acks, and `Shutdown` — are recognized by `tag` +
    ///   exact length and their fields read straight out of the slice,
    ///   with no cursor, no per-field bounds checks, and no allocation.
    /// * **Bitmap replies**, the detector's hot inbound message, decode
    ///   through a specialized loop that sizes the item vector exactly
    ///   from the validated count prefix; each bitmap's word region is
    ///   then taken with a single bounds check and bulk-converted (see
    ///   `Bitmap`'s wire impl), so the frame parses without intermediate
    ///   `Vec` staging.
    ///
    /// Anything else — and any fixed-size candidate whose length does not
    /// match, so malformed input reports byte-identical errors — falls
    /// back to the generic decoder.  `Msg::from_bytes` delegates here.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, malformed, or oversized
    /// input, exactly as the generic decoder would.
    pub fn from_bytes_borrowed(bytes: &[u8]) -> Result<Msg, WireError> {
        match bytes.first() {
            Some(
                &tag
                @ (TAG_PAGE_READ_REQ | TAG_PAGE_READ_FWD | TAG_PAGE_OWN_REQ | TAG_PAGE_OWN_FWD),
            ) if bytes.len() == PAGE_REQ_BYTES => {
                let page = PageId(u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]));
                let requester = ProcId(u16::from_le_bytes([bytes[5], bytes[6]]));
                Ok(match tag {
                    TAG_PAGE_READ_REQ => Msg::PageReadReq { page, requester },
                    TAG_PAGE_READ_FWD => Msg::PageReadFwd { page, requester },
                    TAG_PAGE_OWN_REQ => Msg::PageOwnReq { page, requester },
                    _ => Msg::PageOwnFwd { page, requester },
                })
            }
            Some(&TAG_CKPT_ACK) if bytes.len() == CKPT_ACK_BYTES => {
                let from = ProcId(u16::from_le_bytes([bytes[1], bytes[2]]));
                let mut e = [0u8; 8];
                e.copy_from_slice(&bytes[3..11]);
                Ok(Msg::CkptAck {
                    from,
                    epoch: u64::from_le_bytes(e),
                })
            }
            Some(&TAG_SHUTDOWN) if bytes.len() == 1 => Ok(Msg::Shutdown),
            Some(&TAG_BITMAP_REPLY) => decode_bitmap_reply(&bytes[1..]),
            _ => {
                let mut r = Reader::new(bytes);
                let msg = Msg::decode(&mut r)?;
                r.finish()?;
                Ok(msg)
            }
        }
    }

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

/// Specialized decoder for [`Msg::BitmapReply`] bodies (tag stripped).
///
/// Semantically identical to the generic path — same hostile-length
/// guard, same error values — but the item vector is allocated once at
/// its exact final size and each element decodes in a straight line, so
/// the master's bitmap-collection round never re-allocates mid-frame.
fn decode_bitmap_reply(body: &[u8]) -> Result<Msg, WireError> {
    // A minimal item is an interval id, a page id, and two empty bitmaps
    // (their 4-byte length prefixes): the count guard below rejects any
    // prefix claiming more items than the body could possibly hold.
    const MIN_ITEM_BYTES: u64 = 6 + 4 + (4 + 4);
    let mut r = Reader::new(body);
    let count = u32::decode(&mut r)?;
    let count = r.check_count(u64::from(count), MIN_ITEM_BYTES)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let id = IntervalId::decode(&mut r)?;
        let page = PageId::decode(&mut r)?;
        let bitmaps = PageBitmaps::decode(&mut r)?;
        items.push((id, (page, bitmaps)));
    }
    r.finish()?;
    Ok(Msg::BitmapReply { items })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The fixed-size fast path and the generic decoder agree on every
    /// eligible variant, and malformed lengths report the same errors.
    #[test]
    fn borrowed_fast_path_matches_generic_decode() {
        let fixed = [
            Msg::PageReadReq {
                page: PageId(7),
                requester: ProcId(1),
            },
            Msg::PageReadFwd {
                page: PageId(0xdead),
                requester: ProcId(3),
            },
            Msg::PageOwnReq {
                page: PageId(0),
                requester: ProcId(0),
            },
            Msg::PageOwnFwd {
                page: PageId(u32::MAX),
                requester: ProcId(u16::MAX),
            },
            Msg::CkptAck {
                from: ProcId(2),
                epoch: u64::MAX - 1,
            },
            Msg::Shutdown,
        ];
        for msg in &fixed {
            let bytes = msg.to_bytes();
            let mut r = Reader::new(&bytes);
            let generic = Msg::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(&Msg::from_bytes_borrowed(&bytes).unwrap(), msg);
            assert_eq!(generic, *msg);
            // Truncation and trailing garbage must fail identically to the
            // generic path (the fast path falls back on length mismatch).
            let mut long = bytes.clone();
            long.push(0);
            let generic_err = |b: &[u8]| {
                let mut r = Reader::new(b);
                Msg::decode(&mut r).and_then(|_| r.finish())
            };
            assert_eq!(
                Msg::from_bytes_borrowed(&long).unwrap_err(),
                generic_err(&long).unwrap_err(),
                "{msg:?}"
            );
            if bytes.len() > 1 {
                let short = &bytes[..bytes.len() - 1];
                assert_eq!(
                    Msg::from_bytes_borrowed(short).unwrap_err(),
                    generic_err(short).unwrap_err(),
                    "{msg:?}"
                );
            }
        }
    }

    /// The specialized bitmap-reply decoder is byte-equivalent to the
    /// generic one, including on truncated and hostile-length input.
    #[test]
    fn bitmap_reply_fast_path_matches_generic_decode() {
        let iv = make_interval(1, 3, vec![2, 3], &[1, 2], &[7]);
        let mut odd = PageBitmaps::new(65);
        odd.read.set(64);
        odd.write.set(3);
        let msg = Msg::BitmapReply {
            items: vec![
                (iv.id(), (PageId(1), PageBitmaps::new(64))),
                (iv.id(), (PageId(2), odd)),
            ],
        };
        let bytes = msg.to_bytes();
        assert_eq!(Msg::from_bytes_borrowed(&bytes).unwrap(), msg);
        for cut in 1..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let generic = Msg::decode(&mut r).and_then(|_| r.finish());
            assert_eq!(
                Msg::from_bytes_borrowed(&bytes[..cut]),
                generic.map(|()| unreachable!("truncated decode succeeded")),
                "cut at {cut}"
            );
        }
        // A count prefix claiming more items than the body can hold is
        // rejected before any allocation.
        let mut hostile = vec![TAG_BITMAP_REPLY];
        u32::MAX.encode(&mut hostile);
        assert_eq!(
            Msg::from_bytes_borrowed(&hostile).unwrap_err(),
            WireError::BadLength(u64::from(u32::MAX)),
        );
    }

    /// The arithmetic `wire_size` must match the encoder byte-for-byte on
    /// the hot variants with non-trivial payloads (empty collections,
    /// absent options, bitmaps whose bit count is not a word multiple).
    #[test]
    fn wire_size_matches_encoding_on_hot_variants() {
        use cvm_page::Bitmap;
        let iv0 = make_interval(0, 1, vec![1, 0, 0], &[], &[]);
        let iv1 = make_interval(2, 5, vec![1, 0, 5], &[0, 1, 2, 3], &[9; 40]);
        let iv0 = Arc::new(iv0);
        let iv1 = Arc::new(iv1);
        roundtrip(Msg::LockGrant {
            lock: 1,
            records: vec![],
            vc: VClock::from(vec![0, 0, 0]),
            trace_from: None,
        });
        roundtrip(Msg::LockGrant {
            lock: 1,
            records: vec![Arc::clone(&iv0), Arc::clone(&iv1)],
            vc: VClock::from(vec![3, 1, 5]),
            trace_from: None,
        });
        roundtrip(Msg::BarrierArrive {
            from: ProcId(2),
            vc: VClock::from(vec![1, 2, 3]),
            records: vec![Arc::clone(&iv0), Arc::clone(&iv1), Arc::clone(&iv0)],
        });
        roundtrip(Msg::PageReadReply {
            page: PageId(3),
            data: vec![],
        });
        roundtrip(Msg::PageFetchReq {
            page: PageId(1),
            requester: ProcId(1),
            needed: vec![(ProcId(0), 4), (ProcId(2), 1), (ProcId(3), 9)],
        });
        roundtrip(Msg::DiffFlush {
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
        });
        roundtrip(Msg::BitmapReq { items: vec![] });
        let mut odd = PageBitmaps::new(65);
        odd.read.set(64);
        odd.write.set(0);
        roundtrip(Msg::BitmapReply {
            items: vec![
                (iv0.id(), (PageId(1), PageBitmaps::new(64))),
                (iv1.id(), (PageId(2), odd)),
                (
                    iv1.id(),
                    (
                        PageId(3),
                        PageBitmaps {
                            read: Bitmap::new(1),
                            write: Bitmap::new(1),
                        },
                    ),
                ),
            ],
        });
        roundtrip(Msg::BarrierRelease {
            vc: VClock::from(vec![5, 5, 5]),
            records: vec![iv1],
            races: Arc::new(vec![
                cvm_race::RaceReport {
                    addr: cvm_page::GAddr(64),
                    kind: cvm_race::RaceKind::WriteWrite,
                    a: iv0.id(),
                    b: iv0.id(),
                    epoch: 3,
                },
                cvm_race::RaceReport {
                    addr: cvm_page::GAddr(128),
                    kind: cvm_race::RaceKind::ReadWrite,
                    a: iv0.id(),
                    b: iv0.id(),
                    epoch: 3,
                },
            ]),
            epoch: 3,
            term: 1,
        });
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
        assert!(Msg::from_bytes(&[TAG_LOCK_GRANT, 1]).is_err());
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
