//! Race reports and the cluster-wide race log.

use std::collections::BTreeSet;
use std::fmt;

use cvm_net::wire::{fnv1a64, Wire};
use cvm_page::{GAddr, SegmentMap};
use cvm_vclock::IntervalId;

/// Kind of conflicting access pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum RaceKind {
    /// One interval read the word, the other wrote it.
    ReadWrite,
    /// Both intervals wrote the word.
    WriteWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::ReadWrite => write!(f, "read-write"),
            RaceKind::WriteWrite => write!(f, "write-write"),
        }
    }
}

/// One detected data race: a word accessed by two concurrent intervals,
/// at least one access a write.
///
/// The system "prints the shared segment address for each detected race
/// condition, together with the interval indexes" (§6.1); combined with the
/// allocator's segment map this identifies the exact variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaceReport {
    /// Address of the racy word.
    pub addr: GAddr,
    /// Conflict kind.
    pub kind: RaceKind,
    /// First involved interval (lower process id).
    pub a: IntervalId,
    /// Second involved interval.
    pub b: IntervalId,
    /// Barrier epoch in which the race was detected (0-based).
    pub epoch: u64,
}

impl RaceReport {
    /// Stable identity of this report: an FNV-1a 64 hash over the
    /// canonical wire encoding (address, kind, both interval ids, epoch —
    /// all little-endian, no padding).
    ///
    /// Because detection output is byte-identical across
    /// `DetectConfig::workers` counts, sync vs. pipelined masters, and
    /// recovery/failover paths, the fingerprint is a run-independent key:
    /// deduplicating reports across seeds or comparing two runs reduces to
    /// comparing `u64` sets.  It is *not* a cryptographic hash — it keys
    /// dedup maps, it does not authenticate anything.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(&self.to_bytes())
    }

    /// Renders the report, symbolizing the address through `map`.
    pub fn render(&self, map: &SegmentMap) -> String {
        format!(
            "DATA RACE ({}): {} at {} between {:?} and {:?} [epoch {}]",
            self.kind,
            map.symbolize(self.addr),
            self.addr,
            self.a,
            self.b,
            self.epoch
        )
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DATA RACE ({}): {} between {:?} and {:?} [epoch {}]",
            self.kind, self.addr, self.a, self.b, self.epoch
        )
    }
}

cvm_net::wire! { enum RaceKind { ReadWrite = 0, WriteWrite = 1 } }
cvm_net::wire! { struct RaceReport { addr, kind, a, b, epoch } }

/// Accumulated race reports for a whole execution.
#[derive(Clone, Debug, Default)]
pub struct RaceLog {
    reports: Vec<RaceReport>,
}

impl RaceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RaceLog::default()
    }

    /// Appends reports from one epoch.
    pub fn extend(&mut self, reports: impl IntoIterator<Item = RaceReport>) {
        self.reports.extend(reports);
    }

    /// All reports, in detection order.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Returns `true` if no race was detected.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Distinct racy addresses, sorted.
    pub fn distinct_addrs(&self) -> Vec<GAddr> {
        let set: BTreeSet<GAddr> = self.reports.iter().map(|r| r.addr).collect();
        set.into_iter().collect()
    }

    /// Reports touching `addr`.
    pub fn at(&self, addr: GAddr) -> Vec<&RaceReport> {
        self.reports.iter().filter(|r| r.addr == addr).collect()
    }

    /// Returns `true` if any report has the given kind.
    pub fn has_kind(&self, kind: RaceKind) -> bool {
        self.reports.iter().any(|r| r.kind == kind)
    }

    /// Fingerprints of all reports, in detection order (duplicates kept).
    pub fn fingerprints(&self) -> Vec<u64> {
        self.reports.iter().map(RaceReport::fingerprint).collect()
    }

    /// The deduplicated fingerprint set: the run's race identity,
    /// independent of detection order and report multiplicity.
    pub fn distinct_fingerprints(&self) -> BTreeSet<u64> {
        self.reports.iter().map(RaceReport::fingerprint).collect()
    }

    /// Per-address summary: `(addr, read-write reports, write-write
    /// reports)`, sorted by address — the condensed view a user reads
    /// first (one racy variable usually generates many interval pairs).
    pub fn summary(&self) -> Vec<(GAddr, usize, usize)> {
        let mut map: std::collections::BTreeMap<GAddr, (usize, usize)> =
            std::collections::BTreeMap::new();
        for r in &self.reports {
            let e = map.entry(r.addr).or_default();
            match r.kind {
                RaceKind::ReadWrite => e.0 += 1,
                RaceKind::WriteWrite => e.1 += 1,
            }
        }
        map.into_iter().map(|(a, (rw, ww))| (a, rw, ww)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_page::{Geometry, SharedAlloc};
    use cvm_vclock::ProcId;

    fn report(addr: u64, kind: RaceKind) -> RaceReport {
        RaceReport {
            addr: GAddr(addr),
            kind,
            a: IntervalId::new(ProcId(0), 1),
            b: IntervalId::new(ProcId(1), 2),
            epoch: 3,
        }
    }

    /// One report per kind.
    fn golden_reports() -> Vec<RaceReport> {
        vec![
            report(cvm_page::SHARED_BASE + 64, RaceKind::ReadWrite),
            report(u64::MAX, RaceKind::WriteWrite),
        ]
    }

    /// Fingerprints hash these bytes, so they must never move: pinned by
    /// length and digest, and the first byte for byte.
    #[test]
    fn race_report_bytes_are_pinned() {
        let pins: Vec<(usize, u64)> = golden_reports().iter().map(cvm_net::wire::pin).collect();
        assert_eq!(
            pins,
            [(29, 15475556278136889389), (29, 3261451609562995077),]
        );
        let mut bytes = (cvm_page::SHARED_BASE + 64).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 0]);
        bytes.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(golden_reports()[0].to_bytes(), bytes);
    }

    #[test]
    fn golden_reports_keep_the_wire_laws() {
        golden_reports()
            .iter()
            .for_each(cvm_net::wire::assert_wire_laws);
    }

    #[test]
    fn wire_roundtrip() {
        let r = report(cvm_page::SHARED_BASE + 64, RaceKind::WriteWrite);
        let bytes = r.to_bytes();
        assert_eq!(bytes.len() as u64, r.wire_size());
        assert_eq!(RaceReport::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn render_symbolizes_via_segment_map() {
        let mut alloc = SharedAlloc::new(Geometry::default(), 1 << 16);
        let bound = alloc.alloc("MinTourLen", 8).unwrap();
        let map = alloc.into_map();
        let r = report(bound.0, RaceKind::ReadWrite);
        let text = r.render(&map);
        assert!(text.contains("MinTourLen"), "got: {text}");
        assert!(text.contains("read-write"));
        assert!(text.contains("s0^1"));
    }

    #[test]
    fn log_queries() {
        let mut log = RaceLog::new();
        assert!(log.is_empty());
        log.extend([
            report(100, RaceKind::ReadWrite),
            report(100, RaceKind::WriteWrite),
            report(200, RaceKind::ReadWrite),
        ]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.distinct_addrs(), vec![GAddr(100), GAddr(200)]);
        assert_eq!(log.at(GAddr(100)).len(), 2);
        assert!(log.has_kind(RaceKind::WriteWrite));
    }

    #[test]
    fn display_mentions_kind_and_intervals() {
        let r = report(64, RaceKind::WriteWrite);
        let s = r.to_string();
        assert!(s.contains("write-write"));
        assert!(s.contains("s0^1") && s.contains("s1^2"));
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let r = report(100, RaceKind::ReadWrite);
        // Deterministic: same report, same hash, every call.
        assert_eq!(r.fingerprint(), r.fingerprint());
        // Pinned value: the canonical encoding (and hence the fingerprint)
        // is part of the service's dedup contract — changing either is a
        // breaking change and must show up in review.
        assert_eq!(r.fingerprint(), fnv1a64(&r.to_bytes()));
        // Every field participates.
        for other in [
            report(101, RaceKind::ReadWrite),
            report(100, RaceKind::WriteWrite),
            RaceReport {
                a: IntervalId::new(ProcId(0), 7),
                ..report(100, RaceKind::ReadWrite)
            },
            RaceReport {
                epoch: 9,
                ..report(100, RaceKind::ReadWrite)
            },
        ] {
            assert_ne!(r.fingerprint(), other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn log_fingerprints_dedup() {
        let mut log = RaceLog::new();
        log.extend([
            report(100, RaceKind::ReadWrite),
            report(100, RaceKind::ReadWrite), // Duplicate report.
            report(200, RaceKind::WriteWrite),
        ]);
        assert_eq!(log.fingerprints().len(), 3);
        let distinct = log.distinct_fingerprints();
        assert_eq!(distinct.len(), 2);
        assert!(distinct.contains(&report(200, RaceKind::WriteWrite).fingerprint()));
    }
}
