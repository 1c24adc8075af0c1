//! The post-mortem baseline: trace logs + offline analysis.
//!
//! The paper's closest prior work (Adve, Hill, Miller & Netzer, "Detecting
//! data races on weak memory systems") is a *post-mortem* technique: the
//! run writes trace logs of synchronization events (with enough
//! information to derive their relative order) and computation events
//! (with READ/WRITE attributes); an offline pass reconstructs the ordering
//! and compares accesses.  The paper's pitch is that LRC metadata makes
//! the same analysis possible *online*, "do\[ing\] away with trace logs,
//! post-mortem analysis, and much of the overhead".
//!
//! To measure that claim rather than assert it, this module implements the
//! baseline: [`TraceEvent`] is the per-process log record, and
//! [`analyze_trace`] is the offline analyzer.  `cvm-dsm` can record traces
//! (`DsmConfig::trace`) with or without the online detector, so the two
//! approaches run on identical executions: equal race reports, very
//! different storage behaviour (the trace grows without bound; the online
//! detector's retained state is garbage-collected every barrier).

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::path::Path;

use cvm_net::wire::{Reader, Wire, WireError};
use cvm_page::{Geometry, PageBitmaps, PageId};
use cvm_vclock::{IntervalId, ProcId, VClock};

use crate::{RaceKind, RaceReport};

/// One record in a process's trace log.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A computation event: the shared accesses performed since the
    /// previous synchronization event, as per-page read/write bitmaps
    /// (the READ/WRITE attributes of the baseline).
    Computation {
        /// Accessed pages and their word bitmaps.
        pages: Vec<(PageId, PageBitmaps)>,
    },
    /// A lock release.
    Release {
        /// The lock.
        lock: u32,
    },
    /// A lock acquire, with the releaser's identity: the process and the
    /// index of its `Release` event this acquire pairs with (`None` for a
    /// reacquired cached token or a pristine manager token — no
    /// cross-process edge).
    Acquire {
        /// The lock.
        lock: u32,
        /// `(releaser, releaser's trace index of the paired Release)`.
        from: Option<(ProcId, u32)>,
    },
    /// Arrival at global barrier number `epoch`.
    BarrierArrive {
        /// Barrier epoch (0-based).
        epoch: u64,
    },
    /// Resumption from global barrier number `epoch`.
    BarrierResume {
        /// Barrier epoch (0-based).
        epoch: u64,
    },
}

impl TraceEvent {
    /// Approximate on-disk size of this record in bytes (what the baseline
    /// would have written to its trace file).
    pub fn trace_bytes(&self) -> u64 {
        match self {
            TraceEvent::Computation { pages } => {
                8 + pages.iter().map(|(_, bm)| 4 + bm.wire_bytes()).sum::<u64>()
            }
            TraceEvent::Release { .. } => 8,
            TraceEvent::Acquire { .. } => 16,
            TraceEvent::BarrierArrive { .. } | TraceEvent::BarrierResume { .. } => 12,
        }
    }
}

impl Wire for TraceEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TraceEvent::Computation { pages } => {
                buf.push(0);
                pages.encode(buf);
            }
            TraceEvent::Release { lock } => {
                buf.push(1);
                lock.encode(buf);
            }
            TraceEvent::Acquire { lock, from } => {
                buf.push(2);
                lock.encode(buf);
                from.encode(buf);
            }
            TraceEvent::BarrierArrive { epoch } => {
                buf.push(3);
                epoch.encode(buf);
            }
            TraceEvent::BarrierResume { epoch } => {
                buf.push(4);
                epoch.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => TraceEvent::Computation {
                pages: Vec::<(PageId, PageBitmaps)>::decode(r)?,
            },
            1 => TraceEvent::Release {
                lock: u32::decode(r)?,
            },
            2 => TraceEvent::Acquire {
                lock: u32::decode(r)?,
                from: Option::<(ProcId, u32)>::decode(r)?,
            },
            3 => TraceEvent::BarrierArrive {
                epoch: u64::decode(r)?,
            },
            4 => TraceEvent::BarrierResume {
                epoch: u64::decode(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "TraceEvent",
                    tag,
                })
            }
        })
    }
}

/// Writes per-process trace logs to disk, one file per process — the
/// deployment shape of the post-mortem baseline, whose trace files are
/// analyzed after the run ends.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_traces(dir: &Path, traces: &[Vec<TraceEvent>]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (p, log) in traces.iter().enumerate() {
        let mut buf = Vec::new();
        log.to_vec().encode(&mut buf);
        let mut f = std::fs::File::create(dir.join(format!("trace-p{p}.bin")))?;
        f.write_all(&buf)?;
    }
    Ok(())
}

/// Loads trace logs previously written by [`save_traces`].
///
/// # Errors
///
/// Propagates filesystem errors; malformed files surface as
/// `InvalidData`.
pub fn load_traces(dir: &Path, nprocs: usize) -> std::io::Result<Vec<Vec<TraceEvent>>> {
    let mut traces = Vec::with_capacity(nprocs);
    for p in 0..nprocs {
        let mut bytes = Vec::new();
        std::fs::File::open(dir.join(format!("trace-p{p}.bin")))?.read_to_end(&mut bytes)?;
        let log = Vec::<TraceEvent>::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        traces.push(log);
    }
    Ok(traces)
}

/// Statistics of one post-mortem analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostmortemStats {
    /// Total trace records across processes.
    pub events: u64,
    /// Approximate trace-file bytes the baseline would have stored.
    pub trace_bytes: u64,
    /// Computation-event pairs compared at word level.
    pub pairs_compared: u64,
    /// Races found.
    pub races: u64,
}

/// Runs the offline analysis over per-process trace logs.
///
/// Ordering reconstruction: program order within each log, release→acquire
/// edges from the recorded pairings, and all-arrive-before-all-resume
/// edges for each barrier epoch.  Event vector clocks are computed in one
/// forward pass per process with cross-edges resolved iteratively (the
/// logs form a DAG).  Unordered computation-event pairs are compared at
/// word granularity exactly like the online detector's step 5.
///
/// Reports use `(process, computation-event ordinal)` as the interval
/// identity and the barrier epoch the event belongs to.
///
/// # Panics
///
/// Panics if an `Acquire` names a releaser event that is not a `Release`
/// in the referenced log — a corrupt trace.
pub fn analyze_trace(
    traces: &[Vec<TraceEvent>],
    geometry: Geometry,
) -> (Vec<RaceReport>, PostmortemStats) {
    let nprocs = traces.len();
    let mut stats = PostmortemStats::default();
    for log in traces {
        stats.events += log.len() as u64;
        stats.trace_bytes += log.iter().map(TraceEvent::trace_bytes).sum::<u64>();
    }

    // Assign each event a vector clock (width = nprocs, one entry per
    // process counting its events).  Cross edges: acquire joins the clock
    // of the paired release; barrier-resume joins the clocks of every
    // arrival of that epoch.
    let mut clocks: Vec<Vec<VClock>> = traces
        .iter()
        .map(|log| vec![VClock::new(nprocs); log.len()])
        .collect();
    // Pre-index barrier arrivals per epoch.
    let mut arrivals: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
    for (p, log) in traces.iter().enumerate() {
        for (i, ev) in log.iter().enumerate() {
            if let TraceEvent::BarrierArrive { epoch } = ev {
                arrivals.entry(*epoch).or_default().push((p, i));
            }
        }
    }
    // Forward passes until stable (cross edges only point to events with
    // lower epoch/step, so two passes suffice for barriers; lock edges can
    // chain, so iterate to fixpoint — logs are DAGs, this terminates).
    let mut changed = true;
    while changed {
        changed = false;
        for (p, log) in traces.iter().enumerate() {
            let me = ProcId::from_index(p);
            let mut cur = VClock::new(nprocs);
            for (i, ev) in log.iter().enumerate() {
                cur.bump(me);
                match ev {
                    TraceEvent::Acquire {
                        from: Some((q, rel_idx)),
                        ..
                    } => {
                        let q_idx = q.index();
                        let rel = *rel_idx as usize;
                        assert!(
                            matches!(traces[q_idx][rel], TraceEvent::Release { .. }),
                            "acquire pairs with a non-release event: corrupt trace"
                        );
                        cur.merge(&clocks[q_idx][rel]);
                    }
                    TraceEvent::BarrierResume { epoch } => {
                        if let Some(arr) = arrivals.get(epoch) {
                            for &(q, i_arr) in arr {
                                cur.merge(&clocks[q][i_arr]);
                            }
                        }
                    }
                    _ => {}
                }
                if clocks[p][i] != cur {
                    clocks[p][i] = cur.clone();
                    changed = true;
                }
            }
        }
    }

    // Collect computation events with identities and epochs.
    struct Comp<'a> {
        proc: ProcId,
        ordinal: u32,
        epoch: u64,
        clock: VClock,
        /// Own-process event count at this event (for the ordering test).
        step: u32,
        pages: &'a [(PageId, PageBitmaps)],
    }
    let mut comps: Vec<Comp<'_>> = Vec::new();
    for (p, log) in traces.iter().enumerate() {
        let mut ordinal = 0;
        let mut epoch = 0;
        for (i, ev) in log.iter().enumerate() {
            match ev {
                TraceEvent::Computation { pages } => {
                    ordinal += 1;
                    comps.push(Comp {
                        proc: ProcId::from_index(p),
                        ordinal,
                        epoch,
                        clock: clocks[p][i].clone(),
                        step: i as u32 + 1,
                        pages,
                    });
                }
                TraceEvent::BarrierResume { .. } => epoch += 1,
                _ => {}
            }
        }
    }

    // Compare unordered pairs.  Event a precedes event b iff b's clock has
    // seen a's step on a's process.
    let mut reports = Vec::new();
    for (x, a) in comps.iter().enumerate() {
        for b in comps.iter().skip(x + 1) {
            if a.proc == b.proc {
                continue;
            }
            let a_before_b = b.clock.get(a.proc) >= a.step;
            let b_before_a = a.clock.get(b.proc) >= b.step;
            if a_before_b || b_before_a {
                continue;
            }
            for (pa, bma) in a.pages {
                for (pb, bmb) in b.pages {
                    if pa != pb {
                        continue;
                    }
                    stats.pairs_compared += 1;
                    let report = |word: usize, kind: RaceKind| RaceReport {
                        addr: geometry.addr_of(*pa, word),
                        kind,
                        a: IntervalId::new(a.proc, a.ordinal),
                        b: IntervalId::new(b.proc, b.ordinal),
                        epoch: a.epoch.min(b.epoch),
                    };
                    // Same precedence as the online step 5: write-write
                    // first, then read-write pairs not already reported.
                    for w in bma.write.overlap_words(&bmb.write) {
                        reports.push(report(w, RaceKind::WriteWrite));
                    }
                    for w in bma.write.overlap_words(&bmb.read) {
                        if !bmb.write.get(w) {
                            reports.push(report(w, RaceKind::ReadWrite));
                        }
                    }
                    for w in bma.read.overlap_words(&bmb.write) {
                        if !bma.write.get(w) {
                            reports.push(report(w, RaceKind::ReadWrite));
                        }
                    }
                }
            }
        }
    }
    stats.races = reports.len() as u64;
    (reports, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(pages: Vec<(u32, &[usize], &[usize])>) -> TraceEvent {
        TraceEvent::Computation {
            pages: pages
                .into_iter()
                .map(|(p, reads, writes)| {
                    let mut bm = PageBitmaps::new(64);
                    for &w in reads {
                        bm.read.set(w);
                    }
                    for &w in writes {
                        bm.write.set(w);
                    }
                    (PageId(p), bm)
                })
                .collect(),
        }
    }

    fn g() -> Geometry {
        Geometry { page_words: 64 }
    }

    #[test]
    fn unordered_writes_race() {
        let traces = vec![
            vec![
                comp(vec![(0, &[], &[3])]),
                TraceEvent::BarrierArrive { epoch: 0 },
            ],
            vec![
                comp(vec![(0, &[], &[3])]),
                TraceEvent::BarrierArrive { epoch: 0 },
            ],
        ];
        let (reports, stats) = analyze_trace(&traces, g());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::WriteWrite);
        assert_eq!(reports[0].addr, g().addr_of(PageId(0), 3));
        assert_eq!(stats.races, 1);
        assert!(stats.trace_bytes > 0);
    }

    #[test]
    fn barrier_orders_computation_events() {
        let traces = vec![
            vec![
                comp(vec![(0, &[], &[3])]),
                TraceEvent::BarrierArrive { epoch: 0 },
                TraceEvent::BarrierResume { epoch: 0 },
            ],
            vec![
                TraceEvent::BarrierArrive { epoch: 0 },
                TraceEvent::BarrierResume { epoch: 0 },
                comp(vec![(0, &[3], &[])]),
            ],
        ];
        let (reports, _) = analyze_trace(&traces, g());
        assert!(reports.is_empty(), "barrier-ordered accesses: {reports:?}");
    }

    #[test]
    fn lock_edge_orders_critical_sections() {
        // P0: CS writes word 5, releases (event index 2).
        // P1: acquires from P0's release, CS writes word 5.
        let traces = vec![
            vec![
                TraceEvent::Acquire {
                    lock: 1,
                    from: None,
                },
                comp(vec![(2, &[], &[5])]),
                TraceEvent::Release { lock: 1 },
            ],
            vec![
                TraceEvent::Acquire {
                    lock: 1,
                    from: Some((ProcId(0), 2)),
                },
                comp(vec![(2, &[], &[5])]),
                TraceEvent::Release { lock: 1 },
            ],
        ];
        let (reports, _) = analyze_trace(&traces, g());
        assert!(reports.is_empty(), "lock-ordered accesses: {reports:?}");
    }

    #[test]
    fn missing_lock_edge_races() {
        let traces = vec![
            vec![
                TraceEvent::Acquire {
                    lock: 1,
                    from: None,
                },
                comp(vec![(2, &[], &[5])]),
                TraceEvent::Release { lock: 1 },
            ],
            vec![
                // No acquire pairing: independent critical section on a
                // DIFFERENT lock.
                TraceEvent::Acquire {
                    lock: 2,
                    from: None,
                },
                comp(vec![(2, &[], &[5])]),
                TraceEvent::Release { lock: 2 },
            ],
        ];
        let (reports, _) = analyze_trace(&traces, g());
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn transitive_lock_chains_order() {
        // P0 rel -> P1 acq ... P1 rel -> P2 acq: P0's write ordered before
        // P2's.
        let traces = vec![
            vec![comp(vec![(0, &[], &[1])]), TraceEvent::Release { lock: 1 }],
            vec![
                TraceEvent::Acquire {
                    lock: 1,
                    from: Some((ProcId(0), 1)),
                },
                TraceEvent::Release { lock: 1 },
            ],
            vec![
                TraceEvent::Acquire {
                    lock: 1,
                    from: Some((ProcId(1), 1)),
                },
                comp(vec![(0, &[], &[1])]),
            ],
        ];
        let (reports, _) = analyze_trace(&traces, g());
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn read_write_pairs_reported_once() {
        let traces = vec![
            vec![comp(vec![(1, &[7], &[])])],
            vec![comp(vec![(1, &[], &[7])])],
        ];
        let (reports, _) = analyze_trace(&traces, g());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn empty_traces_are_clean() {
        let (reports, stats) = analyze_trace(&[vec![], vec![]], g());
        assert!(reports.is_empty());
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn trace_files_roundtrip() {
        let traces = vec![
            vec![
                TraceEvent::Acquire {
                    lock: 3,
                    from: None,
                },
                comp(vec![(1, &[2], &[5])]),
                TraceEvent::Release { lock: 3 },
                TraceEvent::BarrierArrive { epoch: 0 },
                TraceEvent::BarrierResume { epoch: 0 },
            ],
            vec![TraceEvent::Acquire {
                lock: 3,
                from: Some((ProcId(0), 2)),
            }],
        ];
        let dir = std::env::temp_dir().join(format!("cvm-trace-test-{}", std::process::id()));
        save_traces(&dir, &traces).unwrap();
        let loaded = load_traces(&dir, 2).unwrap();
        assert_eq!(loaded, traces);
        // Offline analysis works identically on reloaded logs.
        let (a, _) = analyze_trace(&traces, g());
        let (b, _) = analyze_trace(&loaded, g());
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_trace_file_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("cvm-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("trace-p0.bin"), [9, 9, 9]).unwrap();
        let err = load_traces(&dir, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(dir);
    }
}
